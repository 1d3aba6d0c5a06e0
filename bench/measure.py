"""Order statistics and a child-process runner.

Shared by run.py (the parent) and worker.py (the measured child); it
imports neither zetalim nor mpmath.
"""
from __future__ import annotations

import math
import statistics
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


def percentile(sorted_vals: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not sorted_vals:
        raise ValueError("percentile of an empty sample")
    rank = (len(sorted_vals) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (rank - lo)


def median(vals: Sequence[float]) -> float:
    return percentile(sorted(vals), 50.0)


def op_summary(latencies: Sequence[float], tail_pct: float) -> Dict[str, float]:
    """Median and tail of per-op latencies, with the number of values
    lying strictly beyond the tail percentile."""
    vals = sorted(latencies)
    tail = percentile(vals, tail_pct)
    return {
        "n": len(vals),
        "p50": percentile(vals, 50.0),
        "tail": tail,
        "tail_pct": tail_pct,
        "beyond": sum(1 for v in vals if v > tail),
    }


@dataclass
class Child:
    out: str
    code: int
    wall_s: float


def run_child(argv: List[str], env: Dict[str, str], cwd: str, err_path: str,
              stdin_text: str = "", timeout: float = 150.0) -> Child:
    """Run one child to completion; its stderr is appended to err_path.
    On a timeout the child is killed and waited for."""
    with open(err_path, "ab") as err:
        start = time.perf_counter()
        got = subprocess.run(argv, input=stdin_text.encode(), stdout=subprocess.PIPE,
                             stderr=err, env=env, cwd=cwd, timeout=timeout)
        wall = time.perf_counter() - start
    return Child(got.stdout.decode(), got.returncode, wall)


def quartile_spread(vals: Sequence[float]) -> Optional[float]:
    """(Q3 - Q1) / median as statistics.quantiles(n=4) gives them."""
    if len(vals) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / q2 if q2 else None
