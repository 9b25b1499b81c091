"""Per-layer spans and counts, recorded from outside qturan.

Each layer is timed by replacing a public function in the namespace its
caller looks it up in (``qturan.search.q_value`` calls ``spectral.q_radius``
through the spectral module, so that is where the q_radius span sits). Spans
nest on one stack: a span's self time is its duration minus the spans opened
inside it. The workloads run with ``jobs=1``, so every span is in one
process.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, Optional


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.classes_by_order: Dict[int, int] = {}
        self._stack = []

    def start(self, label: str) -> None:
        self._stack.append([label, time.perf_counter(), 0.0])
        self.active[label] += 1

    def stop(self) -> None:
        label, t0, inner = self._stack.pop()
        dt = time.perf_counter() - t0
        self.active[label] -= 1
        self.calls[label] += 1
        self.total_s[label] += dt
        self.self_s[label] += dt - inner
        if self._stack:
            self._stack[-1][2] += dt

    def wrap(self, owner, name: str, label: str, after: Optional[Callable] = None) -> None:
        """Replace ``owner.name`` by a spanned call; ``after(result, args)``
        runs outside the span."""
        inner = getattr(owner, name)

        def spanned(*args, **kwargs):
            self.start(label)
            try:
                out = inner(*args, **kwargs)
            finally:
                self.stop()
            if after is not None:
                after(out, args)
            return out

        setattr(owner, name, spanned)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries that the benchmark's workloads cross."""
    from qturan import _kernels, bounds, families, search, spectral, verify

    counts = tracer.counts

    def classes_done(out, args):
        tracer.classes_by_order[args[0]] = len(out)

    def labeling_done(out, args):
        if tracer.active["search.classes"]:
            counts["labelings_in_enumeration"] += 1

    def scan_done(rep, args):
        counts["scanned"] += rep.scanned

    def free_done(free, args):
        counts["free"] += bool(free)

    tracer.wrap(search, "_classes", "search.classes", classes_done)
    tracer.wrap(_kernels, "canonical_labeling", "kernels.canonical_labeling", labeling_done)
    tracer.wrap(_kernels, "find_clique", "kernels.find_clique")
    tracer.wrap(_kernels, "find_embedding", "kernels.find_embedding")
    tracer.wrap(search, "is_free", "subgraph.is_free", free_done)
    for owner in (search, verify):
        tracer.wrap(owner, "extremal_q", "search.extremal_q", scan_done)
    for owner in (families, bounds):
        tracer.wrap(owner, "turan", "families.turan")
    tracer.wrap(bounds, "check_fact21_margin", "bounds.check_fact21_margin")
    tracer.wrap(verify, "suite_q_turan", "verify.suite_q_turan")

    cache_info = spectral._solve_cached.cache_info
    q_radius = spectral.q_radius

    def spanned_q_radius(g, tol=None):
        misses = cache_info().misses
        tracer.start("spectral.q_radius")
        try:
            res = q_radius(g, tol)
        finally:
            tracer.stop()
        if cache_info().misses != misses:
            counts["solves"] += 1
            counts["iterations"] += res.iterations
            counts["dense_fallbacks"] += res.method == "dense"
        else:
            counts["cache_hits"] += 1
        return res

    spectral.q_radius = spanned_q_radius


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric, named as in BENCHMARK.json (0 where the
    workload does not reach the layer)."""
    c, calls, total, self_s = tracer.counts, tracer.calls, tracer.total_s, tracer.self_s
    orders = tracer.classes_by_order
    kept = sum(k for n, k in orders.items() if n >= 2)
    out = {
        "search.classes": orders[max(orders)] if orders else 0,
        "search.augment_yield": _ratio(kept, c["labelings_in_enumeration"]),
        "search.scanned": c["scanned"],
        "search.extremal_q.self_s": self_s["search.extremal_q"],
    }
    for kernel in ("canonical_labeling", "find_clique", "find_embedding"):
        out[f"kernels.{kernel}.calls"] = calls[f"kernels.{kernel}"]
        out[f"kernels.{kernel}.s"] = total[f"kernels.{kernel}"]
    q_calls = calls["spectral.q_radius"]
    out.update(
        {
            "subgraph.is_free.calls": calls["subgraph.is_free"],
            "subgraph.free_ratio": _ratio(c["free"], calls["subgraph.is_free"]),
            "spectral.q_radius.calls": q_calls,
            "spectral.q_radius.s": total["spectral.q_radius"],
            "spectral.solves": c["solves"],
            "spectral.cache_hits": c["cache_hits"],
            "spectral.cache_hit_ratio": _ratio(c["cache_hits"], q_calls),
            "spectral.iterations": c["iterations"],
            "spectral.dense_fallbacks": c["dense_fallbacks"],
            "families.turan.calls": calls["families.turan"],
            "families.turan.s": total["families.turan"],
            "bounds.check_fact21_margin.self_s": self_s["bounds.check_fact21_margin"],
            "verify.suite_q_turan.self_s": self_s["verify.suite_q_turan"],
        }
    )
    return out
