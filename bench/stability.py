"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/stability.py --workload registry --runs 10 [--first-seed 1]

Runs bench/run.py once per seed and workload, one run at a time, taking
the workloads in turn for each seed so that a slow spell of the machine
falls on several workloads rather than on several runs of one.  Prints
for each end-to-end metric its median and its quartile spread
(Q3 - Q1) / median next to the bound from BENCHMARK.json.  A spread above a third of the
bound is flagged; one above the bound (setup_s excepted) makes the exit
status 1.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from measure import median, quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    status = 0
    values = {w: {name: [] for name in bounds} for w in args.workload}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workload:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            got = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(got.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v[-1]:.5g}" for k, v in values[workload].items()), flush=True)
    for workload in args.workload:
        for name, vals in values[workload].items():
            spread = quartile_spread(vals)
            flag = ""
            if spread is None or spread > bounds[name]:
                flag = "  <-- above bound"
                if name != "setup_s":
                    status = 1
            elif spread >= bounds[name] / 3:
                flag = "  (above bound/3)"
            print(f"{workload:12s} {name:12s} median {median(vals):.6g} {units[name]}  "
                  f"spread {spread:.4f}  bound {bounds[name]}{flag}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
