"""Measured child process: run.py starts it with PYTHONPATH pointing at
the tree under test and sends one JSON job on stdin.  The reply is one
JSON object on stdout.

Jobs:
  setup       time a fresh import of the entry module plus a first call
  registry    one pass of verify(case) over the whole registry
  zeta-sweep  repeated passes over the seeded zeta / gamma_1 ops
  regsum-edge repeated passes over the seeded edge-band limits
  cli         repeated passes of cli.main over the seeded argv lists

In a traced job the passes alternate untraced / traced, so the tracing
overhead is measured on the same inputs in the same process.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

from measure import median

SPANS_FILE = "spans-{}.json"


def _setup(job: dict) -> dict:
    start = time.perf_counter()
    if job["entry"] == "zetalim.cli":
        import zetalim.cli  # noqa: F401

        return {"setup_s": time.perf_counter() - start}
    import zetalim as z

    warm = job["warmup"]
    if warm == "registry":
        z.registry()
    elif warm == "zeta-sweep":
        z.hurwitz_zeta(z.HurwitzQuery(2.0, 1.0, 0))
        z.stieltjes_gamma(z.StieltjesQuery(1, 1.0))
    elif warm == "regsum-edge":
        z.regularized_limit(0.25, "sine", "unit")
    return {"setup_s": time.perf_counter() - start}


def summarize_report(report) -> list:
    """Per-case pass flag, point counts and a digest of the report's
    deterministic fields (everything but wall_time)."""
    out = []
    for case in report.cases:
        h = hashlib.sha256(case.case_id.encode())
        for p in case.points:
            h.update(repr((p.coords, p.lhs, p.rhs, p.residual, p.passed, p.note)).encode())
        out.append({
            "id": case.case_id,
            "passed": bool(case.passed),
            "points": len(case.points),
            "points_failed": sum(not p.passed for p in case.points),
            "digest": h.hexdigest(),
        })
    return out


def _registry(job: dict, tracer_mod) -> dict:
    import zetalim as z

    tracer = _new_tracer(tracer_mod)
    if tracer is not None:
        tracer.install()
    cases, ops_ms = [], []
    pass_start = time.perf_counter()
    for case in z.registry():
        t0 = time.perf_counter()
        report = z.verify(case)
        ops_ms.append(1e3 * (time.perf_counter() - t0))
        cases += summarize_report(report)
    pass_s = time.perf_counter() - pass_start
    out = {"pass_s": pass_s, "ops_ms": ops_ms, "cases": cases, "rss_mb": _rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer_mod.layer_metrics(tracer)
        tracer.dump(os.path.join(job["out_dir"], SPANS_FILE.format("registry")))
    return out


def _rss_mb() -> float:
    """Peak RSS so far; read before the reply is built, so the benchmark's
    own bookkeeping stays out of it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _new_tracer(tracer_mod):
    return None if tracer_mod is None else tracer_mod.Tracer(tracer_mod.zetalim_hooks())


def _sweep_op(z):
    def run(op):
        kind = op[0]
        if kind == "zeta":
            return z.hurwitz_zeta(z.HurwitzQuery(op[1], op[2], op[3])).value
        if kind == "gamma1":
            return z.stieltjes_gamma(z.StieltjesQuery(1, op[1])).value
        return z.gamma1_reflection_diff(op[1]).value
    return run


def _edge_op(z):
    from reference import EDGE_CASES

    args = {case[0]: case[1:] for case in EDGE_CASES}

    def run(op):
        trig, weight, parity, scale = args[op[0]]
        return z.regularized_limit(op[1], trig, weight, parity, scale).value
    return run


def _cli_op(z):
    from zetalim import cli

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return [code, buf.getvalue()]
    return run


def _repeat(job: dict, tracer_mod) -> dict:
    """Passes over job["ops"] until job["seconds"] have elapsed."""
    import zetalim as z

    kind = job["kind"]
    run = {"zeta-sweep": _sweep_op, "regsum-edge": _edge_op, "cli": _cli_op}[kind](z)
    ops = job["ops"]
    best = [math.inf] * len(ops)
    first, moved = None, set()
    walls = {False: [], True: []}
    layers = []
    tracer = _new_tracer(tracer_mod)
    deadline = time.perf_counter() + job["seconds"]
    traced = False
    while True:
        if traced:
            tracer.reset()
            tracer.install()
        values = []
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                v = run(op)
            except (ArithmeticError, ValueError) as exc:
                v = f"{type(exc).__name__}: {exc}"
            ms = 1e3 * (time.perf_counter() - t0)
            if not traced:
                best[i] = min(best[i], ms)
            values.append(v)
        walls[traced].append(time.perf_counter() - pass_start)
        if traced:
            tracer.uninstall()
            layers.append(tracer_mod.layer_metrics(tracer))
        if first is None:
            first = values
        else:
            moved.update(i for i, (v, f) in enumerate(zip(values, first)) if not _same(v, f))
        if time.perf_counter() >= deadline and (tracer is None or walls[True]):
            break
        if tracer is not None:
            traced = not traced
    out = {
        "rss_mb": _rss_mb(),
        "values": first,
        "moved_ops": sorted(moved),
        "passes": len(walls[False]),
        "traced_passes": len(walls[True]),
        "op_best_ms": best,
    }
    if tracer is not None:
        out["traced_wall_s"] = median(walls[True])
        out["untraced_wall_s"] = median(walls[False])
        out["layers"] = {k: median([d[k] for d in layers]) for k in layers[0]}
        tracer.dump(os.path.join(job["out_dir"], SPANS_FILE.format(kind)))
    return out


def _same(a, b) -> bool:
    """Equal values, NaN equal to NaN."""
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def main() -> int:
    job = json.load(sys.stdin)
    if job["kind"] == "setup":
        out = _setup(job)
    else:
        tracer_mod = None
        if job["trace"]:
            import tracer as tracer_mod
        out = _registry(job, tracer_mod) if job["kind"] == "registry" else _repeat(job, tracer_mod)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
