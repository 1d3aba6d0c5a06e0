"""zetalim benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload against the source tree next to this directory
(`src/`, put on PYTHONPATH of every child; nothing is installed).  Load
comes from this one process: no threads, one child process at a time.

Workloads (inputs are made from the seed by reference.py):
  registry     verify(case) over the 29-case registry, one fresh
               interpreter per pass, so identities' module-level
               lru_cache can never make a later pass cheaper.
  cli          closed loop, one client: each op is one README command
               (`zetalim ... --format json`) through cli.main, in one
               process; see run_cli for where process start-up shows.
  zeta-sweep   in-process hurwitz_zeta (s in [-20, 4], m = 0, 1, 2),
               gamma_1 and its reflection difference.
  regsum-edge  in-process regularized limits at x next to 0 and 1,
               where the master sum needs its largest heads.

With --trace 0 the last stdout line carries the end-to-end metrics:
  setup_s      median over SETUP_PROBES fresh interpreters of importing
               the entry module plus a first call
  wall_s       time of one pass over the workload's input set, each op
               counted at its fastest repetition in the run
  op_p50_ms    median over the input set of each op's fastest repetition
  op_tail_ms   the workload's TAIL_PCT percentile over the input set of
               each op's fastest repetition: the cost of its slowest ops
  peak_rss_mb  peak RSS of the process doing the work
Each op is repeated for the whole run.  The machine this was written on
shares its cores with other tenants, whose load only ever adds time and
moves by 10-20 % within seconds; an op's fastest repetition is its cost
without that interference, and is far steadier from run to run than a
median over repetitions.  The tail uses it too: a percentile of all
repetitions pooled, or of each op's median, spread up to 0.25 over five
seeds for cli, where it falls inside the hasse repetitions and read what
the neighbours were doing at that moment.  Starting a fresh
process there varied up to twofold from minute to minute, which is why
the cli ops run in one process rather than one subprocess each.
With --trace 1 it carries the per-layer metrics of tracer.PER_LAYER,
from spans recorded around each layer's functions, and the tracing
overhead (traced / untraced pass time).

Checking: every op's output is compared with an mpmath reference (the
registry checks itself: every case and point passes and every pass
yields the same report digest).  `attempted` is the number of distinct
ops in the input set (registry cases for registry), however many passes
the run made, so `attempted` and `failed` depend on the seed and the
program, never on the speed of the machine.  `failed` counts the ops
that raised, returned a non-finite value or a non-zero exit code, missed
their reference, or gave another output in a later pass than in the
first; fail_frac = failed / attempted is printed with the metrics.
`correct` is true when every output was obtained and checked and
repeated passes gave identical outputs.  An op that misses its reference
is counted in `failed`, not hidden: when this benchmark was written,
about half of zeta-sweep's ops (its s < -2 points) missed, and
regularized_limit raised ConvergenceError at a few edge-band x.

Every result, with its environment (Python, numpy, mpmath, nproc,
commit, seed), is also written to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import reference
from measure import median, op_summary, run_child
from tracer import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
# Fixed per workload, so that a faster or slower program is compared at
# the same percentile.  Each lands inside the workload's slowest group of
# ops rather than on the step to the next group: cli's p95 falls among its
# eight hasse commands (24-35 ms at their fastest, against about 1 ms
# for every other command), zeta-sweep's p99 among its three slowest calls.
TAIL_PCT = {"registry": 95.0, "cli": 95.0, "zeta-sweep": 99.0, "regsum-edge": 95.0}
SETUP_ENTRY = {"cli": "zetalim.cli"}
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.err_log = str(OUT / "stderr.log")

    def child(self, argv):
        return run_child([sys.executable] + argv, self.env, str(ROOT), self.err_log)

    def worker(self, job: dict) -> dict:
        job = dict(job, out_dir=str(OUT))
        got = run_child([sys.executable, str(BENCH / "worker.py")], self.env, str(ROOT),
                        self.err_log, json.dumps(job))
        if got.code != 0:
            raise RuntimeError(f"worker {job['kind']} exited {got.code}; see {self.err_log}")
        return json.loads(got.out)

    def setup_s(self, entry: str) -> float:
        job = {"kind": "setup", "entry": entry, "warmup": self.workload}
        return median([self.worker(job)["setup_s"] for _ in range(SETUP_PROBES)])


# ---------------------------------------------------------------------------
# checks


def registry_failures(passes: list) -> tuple:
    """(attempted, failed, nondeterministic) over registry passes.  Each
    case is one op however many passes ran, so the counts depend on the
    program and not on how fast it ran.  A case fails when it or any of
    its points fails in any pass, or when its report digest differs from
    the first pass's."""
    first = {c["id"]: c["digest"] for c in passes[0]["cases"]}
    bad, moved = set(), set()
    for p in passes:
        for c in p["cases"]:
            if first.get(c["id"]) != c["digest"]:
                moved.add(c["id"])
            if c["id"] in moved or not c["passed"] or c["points_failed"] > 0:
                bad.add(c["id"])
    drift = bool(moved) or any(len(p["cases"]) != len(first) for p in passes)
    return len(first), len(bad), drift


def cli_failure(ref: dict, code: int, text: str):
    """Reason the command's output is wrong, or None."""
    if code != 0:
        return f"exit {code}"
    try:
        data = json.loads(text)
        if "value" in ref:
            return "value" if reference.misses(data["value"], ref["value"], ref["rtol"]) else None
        if data["summary"]["cases_passed"] != 1 or data["summary"]["cases_run"] != 1:
            return "case failed"
        points = data["cases"][0]["points"]
        if len(points) != len(ref["points"]):
            return "grid size"
        for got, (x, lhs, rhs) in zip(points, ref["points"]):
            if got.get("x", got.get("u")) != x or got["pass"] is not True:
                return "point"
            if reference.misses(got["lhs"], lhs, ref["rtol"]) or reference.misses(got["rhs"], rhs, ref["rtol"]):
                return "side"
    except (ValueError, KeyError, IndexError, TypeError):
        return "unexpected output"
    return None


def value_misses(values: list, refs: list, rtol: float) -> list:
    """Per op, whether its value misses its reference."""
    return [reference.misses(v, r, rtol) for v, r in zip(values, refs)]


# ---------------------------------------------------------------------------
# workloads


def run_registry(b: Bench, inputs, refs) -> dict:
    passes = []
    traced = False
    deadline = time.perf_counter() + b.seconds
    while True:
        p = b.worker({"kind": "registry", "trace": traced})
        p["traced"] = traced
        passes.append(p)
        if time.perf_counter() >= deadline and (not b.trace or traced):
            break
        traced = b.trace and not traced
    attempted, failed, drift = registry_failures(passes)
    plain = [p for p in passes if not p["traced"]]
    res = {
        "attempted": attempted, "failed": failed, "correct": not drift,
        "passes": len(plain),
        "op_best_ms": [min(col) for col in zip(*(p["ops_ms"] for p in plain))],
        "peak_rss_mb": max(p["rss_mb"] for p in plain),
        "cases": len(passes[0]["cases"]),
        "points": sum(c["points"] for c in passes[0]["cases"]),
    }
    if b.trace:
        traced_passes = [p for p in passes if p["traced"]]
        res["traced_wall_s"] = median([p["pass_s"] for p in traced_passes])
        res["untraced_wall_s"] = median([p["pass_s"] for p in plain])
        res["layers"] = {k: median([p["layers"][k] for p in traced_passes])
                         for k in traced_passes[0]["layers"]}
    return res


def run_in_process(b: Bench, inputs, refs) -> dict:
    kind = b.workload
    job = {"kind": kind, "trace": b.trace, "seconds": b.seconds,
           "ops": [c["argv"] for c in inputs] if kind == "cli" else inputs}
    out = b.worker(job)
    if kind == "cli":
        misses = [cli_failure(r, code, text) is not None
                  for r, (code, text) in zip(refs, out["values"])]
    else:
        rtol = reference.SWEEP_RTOL if kind == "zeta-sweep" else reference.LIMIT_RTOL
        misses = value_misses(out["values"], refs, rtol)
    moved = set(out["moved_ops"])
    res = {
        "attempted": len(inputs),
        "failed": sum(miss or i in moved for i, miss in enumerate(misses)),
        "correct": len(out["values"]) == len(inputs) and not moved,
        "passes": out["passes"], "op_best_ms": out["op_best_ms"],
        "peak_rss_mb": out["rss_mb"],
    }
    for key in ("traced_wall_s", "untraced_wall_s", "layers"):
        if key in out:
            res[key] = out[key]
    return res


def run_cli(b: Bench, inputs, refs) -> dict:
    """The README commands through cli.main in one process.  The cost of
    starting a process for each command shows in setup_s and, in the
    traced run, in cli.interp_start_s, cli.import_s and cli.command_s."""
    res = run_in_process(b, inputs, refs)
    if b.trace:
        layers = res["layers"]
        layers["cli.interp_start_s"] = median(
            [b.child(["-c", "pass"]).wall_s for _ in range(SETUP_PROBES)])
        layers["cli.import_s"] = b.setup_s("zetalim.cli")
        layers["cli.command_s"] = median(
            [b.child(["-m", "zetalim.cli"] + cmd["argv"]).wall_s
             for cmd in inputs[:len(reference.CLI_MIX)]])
    return res


RUNNERS = {"registry": run_registry, "cli": run_cli,
           "zeta-sweep": run_in_process, "regsum-edge": run_in_process}


# ---------------------------------------------------------------------------
# environment and report


def environment(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    versions = {}
    for pkg in ("numpy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "python": platform.python_version(), **versions,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "commit": commit,
        "src_sha256": src.hexdigest(), "seed": seed,
    }


def report(b: Bench, res: dict, setup_s) -> tuple:
    """(metrics, printable lines)."""
    if b.trace:
        layers = dict(res["layers"])
        layers["trace.overhead"] = res["traced_wall_s"] / res["untraced_wall_s"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        lines = [f"{name:30s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        return metrics, lines
    best = res["op_best_ms"]
    ops = op_summary(best, TAIL_PCT[b.workload])
    values = {"setup_s": setup_s, "wall_s": sum(best) / 1e3, "op_p50_ms": ops["p50"],
              "op_tail_ms": ops["tail"], "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
        "wall_s": f"{len(best)} ops at their fastest of {res['passes']} passes",
        "op_p50_ms": f"median of {len(best)} ops",
        "op_tail_ms": f"p{ops['tail_pct']:g} of the same, {ops['beyond']} ops beyond",
    }
    lines = [f"{name:12s} {m['value']:.6g} {m['unit']}  {notes.get(name, '')}".rstrip()
             for name, m in metrics.items()]
    lines.append(f"{'fail_frac':12s} {res['failed'] / res['attempted']:.6g} 1  "
                 f"({res['failed']} of {res['attempted']} ops)")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=reference.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zetalim" / "__init__.py").is_file():
        print(f"error: no zetalim source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    b = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    inputs = reference.make_inputs(b.workload, b.seed)
    refs = reference.references(b.workload, inputs)
    setup_s = None if b.trace else b.setup_s(SETUP_ENTRY.get(b.workload, "zetalim"))
    res = RUNNERS[b.workload](b, inputs, refs)
    metrics, lines = report(b, res, setup_s)
    env = environment(b.seed)
    result = {"correct": bool(res["correct"]), "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = dict(result, workload=b.workload, seconds=b.seconds, trace=b.trace, env=env,
                  details={k: v for k, v in res.items() if k != "layers"})
    name = f"result-{b.workload}-seed{b.seed}-trace{int(b.trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(f"workload {b.workload}  seed {b.seed}  seconds {b.seconds:g}  trace {int(b.trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
