"""Self-tests of the benchmark's tracer, checks and input generation.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""
import ast
import json
from pathlib import Path

import measure
import reference
import run
import tracer
import worker
from zetalim.identities import CaseResult, PointRecord, VerificationReport


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer(clock=_fake_clock([0.0, 2.0, 5.0, 6.0, 7.0, 10.0]))
    inner = t.wrap("b.inner", lambda: None)

    def body():
        inner()
        inner()

    t.wrap("a.outer", body)()
    assert t.self_times() == {"a.outer": 6.0, "b.inner": 4.0}
    assert t.calls() == {"a.outer": 1, "b.inner": 2}
    assert [s.parent for s in t.spans] == [-1, 0, 0]


def test_errors_are_counted_once_in_the_innermost_layer():
    t = tracer.Tracer()

    def fail():
        raise ValueError("boom")

    inner = t.wrap("hurwitz.fail", fail)
    outer = t.wrap("regsum.call", lambda: inner())
    try:
        outer()
    except ValueError:
        pass
    assert t.counters == {"hurwitz.errors": 1}


def test_install_wraps_reimported_names_and_uninstall_restores():
    import zetalim
    from zetalim import hurwitz, identities

    original = hurwitz.hurwitz_zeta
    t = tracer.Tracer(tracer.zetalim_hooks())
    t.install()
    try:
        assert identities.hurwitz_zeta is not original
        assert identities.hurwitz_zeta is hurwitz.hurwitz_zeta is zetalim.hurwitz_zeta
        case = next(c for c in identities.registry() if c.id == "EQ3.18")
        identities.verify(case)
    finally:
        t.uninstall()
    assert identities.hurwitz_zeta is original and zetalim.hurwitz_zeta is original
    metrics = tracer.layer_metrics(t)
    assert metrics["hurwitz.em_calls.m1"] == 12.0
    assert metrics["identities.cases"] == 1.0 and metrics["identities.points"] == 12.0
    assert metrics["identities.self_s"] > 0.0
    assert set(metrics) == {name for name, _ in tracer.PER_LAYER}


def test_reference_check_flags_a_perturbed_value():
    ops = reference.make_inputs("zeta-sweep", 7)[:6]
    refs = reference.references("zeta-sweep", ops)
    exact = list(refs)
    assert sum(run.value_misses(exact, refs, reference.SWEEP_RTOL)) == 0
    perturbed = list(refs)
    perturbed[3] = refs[3] * (1 + 1e-7) + 1e-7
    assert run.value_misses(perturbed, refs, reference.SWEEP_RTOL) == [False] * 3 + [True] + [False] * 2
    raised = list(refs)
    raised[0] = "ConvergenceError: stalled"
    assert sum(run.value_misses(raised, refs, reference.SWEEP_RTOL)) == 1


def test_cli_check_flags_a_perturbed_value_and_a_bad_exit():
    ref = {"value": 1.6449340668482264, "rtol": reference.SWEEP_RTOL}
    good = json.dumps({"value": 1.6449340668482264})
    assert run.cli_failure(ref, 0, good) is None
    assert run.cli_failure(ref, 0, json.dumps({"value": 1.6449341})) == "value"
    assert run.cli_failure(ref, 1, good) == "exit 1"
    assert run.cli_failure(ref, 0, "value 1.64") == "unexpected output"


def _report(lhs: float) -> VerificationReport:
    ok = PointRecord((("x", 0.5),), 1.0, 1.0, 0.0, True)
    point = PointRecord((("x", 0.25),), lhs, 1.0, abs(lhs - 1.0), abs(lhs - 1.0) <= 1e-9)
    cases = (CaseResult("A", (ok,), 0.0, True, 1e-9),
             CaseResult("B", (ok, point), point.residual, point.passed, 1e-9))
    passed = sum(c.passed for c in cases)
    return VerificationReport(cases, len(cases), passed, point.residual, 0.0)


def test_failing_registry_point_raises_fail_frac():
    clean = {"cases": worker.summarize_report(_report(1.0))}
    assert run.registry_failures([clean, clean]) == (2, 0, False)
    broken = {"cases": worker.summarize_report(_report(1.5))}
    attempted, failed, _ = run.registry_failures([broken, broken])
    assert failed / attempted > 0


def test_registry_digest_mismatch_is_a_failed_op():
    first = {"cases": worker.summarize_report(_report(1.0))}
    moved = {"cases": worker.summarize_report(_report(1.0 + 1e-12))}
    attempted, failed, drift = run.registry_failures([first, moved])
    assert (attempted, failed, drift) == (2, 1, True)


def test_reference_never_imports_zetalim():
    tree = ast.parse(Path(reference.__file__).read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not any(name.split(".")[0] == "zetalim" for name in names)


def test_inputs_depend_only_on_the_seed_and_keep_negative_s():
    for workload in ("cli", "zeta-sweep", "regsum-edge"):
        assert reference.make_inputs(workload, 3) == reference.make_inputs(workload, 3)
        assert reference.make_inputs(workload, 3) != reference.make_inputs(workload, 4)
    sweep = reference.make_inputs("zeta-sweep", 3)
    s_values = [op[1] for op in sweep if op[0] == "zeta"]
    assert min(s_values) < -19.0 and max(s_values) > 3.0
    edge = [x for _, x in reference.make_inputs("regsum-edge", 3)]
    assert all(0.011 <= x <= 0.05 or 0.95 <= x <= 0.989 for x in edge)


def test_op_summary_counts_the_tail():
    s = measure.op_summary([float(k) for k in range(1, 101)], 90.0)
    assert s["p50"] == 50.5 and s["beyond"] == 10
