"""Span tracer for zetalim's layers, installed from outside the package.

Tracer.install() replaces each layer's public functions, plus the
regsum master-sum internals, with timing wrappers.  A function is
replaced under every name that binds it in any loaded zetalim.* module,
because modules re-import each other's functions: identities, for
example, calls its own `hurwitz_zeta` name bound by `from .hurwitz
import`.  Spans stay in memory; uninstall() restores every original.

Self time of a span is its duration minus the durations of its direct
child spans.  A layer's self time is the sum over its spans.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

LAYERS = ("special", "extrapolate", "hurwitz", "stieltjes", "regsum", "identities", "cli")
# Internals wrapped in addition to the public functions.
PRIVATE = {"regsum": ("_master_sum_adaptive", "_master_sum")}

Hook = Callable[[Counter, tuple, dict, object], None]


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name: str, parent: int) -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0


class Tracer:
    def __init__(self, hooks: Optional[Dict[str, Hook]] = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._hooks = hooks or {}
        self._clock = clock
        self._stack: List[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """`fn` recording one span per call under `name` ("layer.func")."""
        spans, stack, clock, counters = self.spans, self._stack, self._clock, self.counters
        hook = self._hooks.get(name)
        errors = name.split(".", 1)[0] + ".errors"

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # Count an error once, in the innermost layer it left.
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    counters[errors] += 1
                raise
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layers=LAYERS) -> None:
        """Wrap the functions of every loaded layer module."""
        loaded = {name: mod for name, mod in sys.modules.items()
                  if (name == "zetalim" or name.startswith("zetalim.")) and mod is not None}
        for layer in layers:
            mod = loaded.get(f"zetalim.{layer}")
            if mod is None:
                continue
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not n.startswith("_")]
            for fname in names + list(PRIVATE.get(layer, ())):
                original = getattr(mod, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for ns in loaded.values():
                    for attr, obj in list(vars(ns).items()):
                        if obj is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def calls(self) -> Counter:
        return Counter(span.name for span in self.spans)

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: Dict[str, float] = {}
        for span, inner in zip(self.spans, child):
            out[span.name] = out.get(span.name, 0.0) + (span.end - span.start - inner)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([[s.name, s.parent, s.start, s.end] for s in self.spans], handle)


# ---------------------------------------------------------------------------
# zetalim counters and per-layer metrics


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def zetalim_hooks() -> Dict[str, Hook]:
    from zetalim import regsum

    cap = regsum._HEAD_CAP

    def em(counters, args, kwargs, result):
        counters[f"hurwitz.em_calls.m{_arg(args, kwargs, 0, 'q').m}"] += 1
        counters["hurwitz.em_terms"] += result.terms_used

    def master(counters, args, kwargs, result):
        head = _arg(args, kwargs, 3, "n_direct")
        counters["regsum.master_head_terms"] += head
        counters["regsum.master_calls_at_cap"] += head >= cap

    def stieltjes_terms(counters, args, kwargs, result):
        counters["stieltjes.terms"] += result.terms_used

    def report(counters, args, kwargs, result):
        counters["identities.cases"] += len(result.cases)
        for case in result.cases:
            counters["identities.points"] += len(case.points)
            counters["identities.points_failed"] += sum(not p.passed for p in case.points)

    hooks = {"hurwitz.hurwitz_zeta": em, "regsum._master_sum": master,
             "identities.verify": report, "identities.verify_all": report}
    for fname in ("stieltjes_gamma", "gamma1_finite_difference",
                  "gamma1_reflection_diff", "integral_gamma"):
        hooks[f"stieltjes.{fname}"] = stieltjes_terms
    return hooks


PER_LAYER = (
    ("cli.interp_start_s", "s"), ("cli.import_s", "s"), ("cli.command_s", "s"),
    ("cli.main_self_s", "s"),
    ("regsum.master_calls", "count"), ("regsum.master_self_s", "s"),
    ("regsum.master_head_terms", "count"), ("regsum.master_calls_at_cap", "count"),
    ("regsum.master_useful_ratio", "ratio"),
    ("regsum.trig_sum_calls", "count"), ("regsum.limit_calls", "count"),
    ("regsum.limit_self_s", "s"), ("regsum.errors", "count"),
    ("extrapolate.calls", "count"), ("extrapolate.self_s", "s"),
    ("hurwitz.em_calls.m0", "count"), ("hurwitz.em_calls.m1", "count"),
    ("hurwitz.em_calls.m2", "count"), ("hurwitz.em_self_s", "s"),
    ("hurwitz.em_terms", "count"), ("hurwitz.errors", "count"),
    ("hurwitz.hasse_calls", "count"), ("hurwitz.hasse_self_s", "s"),
    ("stieltjes.calls", "count"), ("stieltjes.self_s", "s"), ("stieltjes.terms", "count"),
    ("special.calls", "count"), ("special.self_s", "s"),
    ("identities.cases", "count"), ("identities.points", "count"),
    ("identities.points_failed", "count"), ("identities.self_s", "s"),
    ("trace.spans", "count"), ("trace.overhead", "ratio"),
)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of the spans and counters recorded so far.

    cli.interp_start_s, cli.import_s, cli.command_s and trace.overhead are
    measured outside the traced process and are left at 0 here.
    """
    calls = tracer.calls()
    selfs = tracer.self_times()

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update({k: float(v) for k, v in tracer.counters.items() if k in out})
    master = calls["regsum._master_sum"]
    out.update({
        "cli.main_self_s": selfs.get("cli.main", 0.0),
        "regsum.master_calls": master,
        "regsum.master_self_s": selfs.get("regsum._master_sum", 0.0),
        "regsum.master_useful_ratio": calls["regsum._master_sum_adaptive"] / master if master else 0.0,
        "regsum.trig_sum_calls": calls["regsum.trig_dirichlet_sum"],
        "regsum.limit_calls": calls["regsum.regularized_limit"],
        "regsum.limit_self_s": selfs.get("regsum.regularized_limit", 0.0),
        "extrapolate.calls": layer_sum(calls, "extrapolate"),
        "extrapolate.self_s": layer_sum(selfs, "extrapolate"),
        "hurwitz.em_self_s": selfs.get("hurwitz.hurwitz_zeta", 0.0),
        "hurwitz.hasse_calls": calls["hurwitz.hurwitz_hasse"],
        "hurwitz.hasse_self_s": selfs.get("hurwitz.hurwitz_hasse", 0.0),
        "stieltjes.calls": layer_sum(calls, "stieltjes"),
        "stieltjes.self_s": layer_sum(selfs, "stieltjes"),
        "special.calls": layer_sum(calls, "special"),
        "special.self_s": layer_sum(selfs, "special"),
        "identities.self_s": layer_sum(selfs, "identities"),
        "trace.spans": len(tracer.spans),
    })
    return {k: float(v) for k, v in out.items()}
