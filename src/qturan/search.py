"""Isomorph-free enumeration, graph6 corpus ingestion, extremal searches,
Turan density estimation, min-degree-family scans and seeded random graphs."""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .bounds import CriterionParams
from .chromatic import chromatic_number
from .families import turan
from .graphs import (
    Graph,
    Graph6Error,
    canonical_form,
    delete_vertex,
    parse_graph6,
    to_graph6,
)
from .spectral import DEFAULT_TOL, Tolerance, q_bracket, q_rank_bounds, q_value
from .subgraph import is_free

ENUMERATION_CAP = 9
CORPUS_DIR_ENV = "QTURAN_CORPUS_DIR"


@dataclass
class SearchReport:
    """Extremal scan result for (n, F).

    ``mode`` says which quantity was maximized; the other field reports the
    corresponding value over the winning graphs. ``extremal_graphs`` holds
    canonical graph6 strings.
    """

    n: int
    forbidden: str
    mode: str
    ex_edges: Optional[int]
    max_q: Optional[float]
    extremal_graphs: List[str]
    scanned: int
    elapsed: float

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2)


@dataclass
class DensityEstimate:
    """Exact points of ex(n,F)/C(n,2) with the chromatic limit hint."""

    forbidden: str
    points: List[Tuple[int, int, int]]  # (n, ex_edges, n choose 2)
    limit_hint: float

    def ratios(self) -> List[Fraction]:
        return [Fraction(ex, pairs) for (_, ex, pairs) in self.points]

    def non_increasing(self) -> bool:
        r = self.ratios()
        return all(r[i + 1] <= r[i] for i in range(len(r) - 1))

    def to_json(self) -> str:
        payload = {
            "forbidden": self.forbidden,
            "limit_hint": self.limit_hint,
            "points": [
                {"n": n, "ex": ex, "pairs": pairs, "ratio": ex / pairs}
                for (n, ex, pairs) in self.points
            ],
            "non_increasing": self.non_increasing(),
        }
        return json.dumps(payload, indent=2)


# -- enumeration ---------------------------------------------------------------


def _in_orbit(gens: Sequence[Tuple[int, ...]], a: int, b: int) -> bool:
    """Whether the group generated by ``gens`` maps vertex a to vertex b."""
    reached = 1 << a
    stack = [a]
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if y == b:
                return True
            if not (reached >> y) & 1:
                reached |= 1 << y
                stack.append(y)
    return False


@lru_cache(maxsize=16)
def _classes(n: int) -> Tuple[Graph, ...]:
    """All isomorphism classes of order n, canonically labeled, generated by
    canonical augmentation: a child of a parent survives iff deleting the
    vertex at its last canonical position reproduces the parent, with
    per-parent deduplication absorbing automorphic extensions.

    Two filters reject children that cannot survive before any labeling;
    neither changes which classes are produced or their order.

    1. The new vertex must have minimum degree. Degree leads the token that
       ``canonical_labeling`` maximizes, so degrees never increase along the
       canonical order and the last vertex has minimum degree; a survivor has
       G - last ~ G - new, so equal edge counts give deg(new) = deg(last).
       A neighbor set S of size delta(P) + 1 must therefore hold every
       minimum-degree vertex of the parent P, and a larger S never survives.
    2. Isomorphic graphs have equal degree sequences, so G - last is only
       labeled when its sorted degrees equal the parent's.

    Automorphisms cut the labelings further, again without changing the
    output (after McKay, "Isomorph-free exhaustive generation", 1998):

    - Orbit filter. For sigma in Aut(P), P + S and P + sigma(S) are
      isomorphic through sigma extended by k -> k, so they get the same
      canonical form and the same verdict. Only the first neighbor set of
      each orbit under the generators that ``canonical_labeling`` returns
      for P is labeled; the others would repeat it. Filter 1 is
      orbit-invariant, because automorphisms preserve degrees.
    - Orbit acceptance. When an automorphism of the child maps the new
      vertex to the last canonical one, G - last ~ G - new = P, so the child
      is accepted without the degree test and the second labeling.
    """
    if n == 0:
        return ()
    if n == 1:
        return (Graph(1, (0,)),)
    out: List[Graph] = []
    k = n - 1
    full = 1 << k
    for parent in _classes(k):
        seen: set = set()
        prows = parent.rows
        pdegs = parent.degrees()
        psorted = sorted(pdegs)
        delta = psorted[0]
        low = 0
        for j in range(k):
            if pdegs[j] == delta:
                low |= 1 << j
        # parent rows are canonical, so the generators act on them directly;
        # images[t][S] is the image of neighbor set S under generator t
        images = []
        for g in _kernels.canonical_labeling(k, prows)[2]:
            img = [0]
            for j in range(k):
                b = 1 << g[j]
                img += [x | b for x in img]
            images.append(img)
        marked = bytearray(full) if images else None
        for subset in range(full):
            s = subset.bit_count()
            if s > delta and (s > delta + 1 or subset & low != low):
                continue
            if images:
                if marked[subset]:
                    continue
                marked[subset] = 1
                stack = [subset]
                while stack:
                    t = stack.pop()
                    for img in images:
                        u = img[t]
                        if not marked[u]:
                            marked[u] = 1
                            stack.append(u)
            rows = list(prows)
            for j in range(k):
                if (subset >> j) & 1:
                    rows[j] |= 1 << k
            rows.append(subset)
            child = tuple(rows)
            order, canon, gens = _kernels.canonical_labeling(n, child)
            if canon in seen:
                continue
            last = order[n - 1]
            # deleting the new vertex trivially reproduces the parent; any
            # other last vertex must reproduce it up to isomorphism
            if last != k and not _in_orbit(gens, k, last):
                lrow = child[last]
                degs = sorted(
                    child[v].bit_count() - ((lrow >> v) & 1) for v in range(n) if v != last
                )
                if degs != psorted:
                    continue
                if canonical_form(delete_vertex(Graph(n, child), last)) != prows:
                    continue
            seen.add(canon)
            out.append(Graph(n, canon))
    return tuple(out)


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """One canonical representative per isomorphism class of order n, in a
    deterministic order. Capped at n = 9; ingest an external corpus beyond."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"built-in enumeration capped at n={ENUMERATION_CAP}; "
            f"use ingest_corpus() with an external graph6 file for n={n}"
        )
    return iter(_classes(n))


def count_classes(n: int) -> int:
    return sum(1 for _ in enumerate_graphs(n))


def ingest_corpus(path: str) -> Iterator[Graph]:
    """Stream graphs from a newline-separated graph6 file, skipping blank
    lines. A malformed line aborts the stream with its line number."""
    resolved = resolve_corpus_path(path)

    def gen():
        with open(resolved, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield parse_graph6(line)
                except Graph6Error as exc:
                    raise Graph6Error(f"line {lineno}: {exc.message}", exc.offset) from None

    return gen()


def resolve_corpus_path(path: str) -> str:
    if os.path.exists(path) or os.path.isabs(path):
        return path
    base = os.environ.get(CORPUS_DIR_ENV)
    if base:
        joined = os.path.join(base, path)
        if os.path.exists(joined):
            return joined
    return path


def _graph_source(n: int, corpus: Optional[str]) -> Sequence[Graph]:
    if corpus is not None:
        # corpus files may bundle several orders; an (n, F) report only
        # concerns order-n entries, but a malformed line of any order aborts
        return [g for g in ingest_corpus(corpus) if g.n == n]
    return tuple(enumerate_graphs(n))


# -- extremal scans --------------------------------------------------------------


def _rank(graphs: Sequence[Graph], mode: str) -> Tuple[np.ndarray, np.ndarray]:
    """The visiting keys of a scan and the indices in descending-key order,
    ties in source order: edge counts (``mode == "edges"``) or rank bounds
    hi(G) >= q(G) (``"q"``)."""
    if mode == "edges":
        keys = np.array([g.m for g in graphs], dtype=np.float64)
    else:
        keys = q_rank_bounds(graphs)
    return keys, np.argsort(-keys, kind="stable")


@lru_cache(maxsize=32)
def _class_ranking(n: int, mode: str) -> Tuple[np.ndarray, np.ndarray]:
    """``_rank`` of the order-n classes, computed on the first scan."""
    return _rank(_classes(n), mode)


@lru_cache(maxsize=1 << 16)
def _cached_bracket(g: Graph) -> Tuple[float, float]:
    """``q_bracket`` of a graph, shared by every scan that decides it."""
    return q_bracket(g)


def _extremal(
    n: int,
    f: Graph,
    mode: str,
    corpus: Optional[str],
    tol: Tolerance,
    min_degree_above: Optional[float] = None,
) -> SearchReport:
    """The maximizer scan behind ``extremal_edges`` (``mode == "edges"``)
    and ``extremal_q`` (``"q"``).

    Graphs are visited by descending key, an upper bound on the value that
    decides them: the edge count itself, or the rank bound hi(G) >= q(G)
    (``spectral.q_rank_bounds``, no eigensolve). Containment runs only while
    key >= best - tie_tol - 1e-9 * max(1, best), where best is the largest
    value of the F-free graphs seen so far and tie_tol is cmp_tol for q and
    0 for edge counts (for which the test is exactly m >= best). Every graph
    past that point has a value below the final maximum by more than tie_tol
    plus that slack, so it can neither win nor move the record, and the
    accumulate rule replayed in source order over the visited F-free graphs
    gives the result of a full scan.
    """
    t0 = time.perf_counter()
    graphs = _graph_source(n, corpus)
    keys, order = _class_ranking(n, mode) if corpus is None else _rank(graphs, mode)
    tie_tol = tol.cmp_tol if mode == "q" else 0.0
    best = float("-inf")
    found: List[Tuple[int, float]] = []
    for i in order:
        if keys[i] < best - tie_tol - 1e-9 * max(1.0, best):
            break
        g = graphs[i]
        if min_degree_above is not None:
            degs = g.degrees()
            if not degs or min(degs) <= min_degree_above:
                continue
        if not is_free(g, f):
            continue
        if mode == "edges":
            value = g.m
        else:
            lo, hi = _cached_bracket(g)
            value = lo if hi - lo <= tol.eig_tol else q_value(g, tol)
        best = max(best, value)
        found.append((i, value))
    found.sort()
    best = float("-inf")
    winners: List[Graph] = []
    for i, value in found:
        if value > best + tie_tol:
            best = value
            winners = [graphs[i]]
        elif value >= best - tie_tol:
            winners.append(graphs[i])
            best = max(best, value)
    refined = [(q_value(g, tol), g) for g in winners]
    max_q = max((q for q, _ in refined), default=None)
    if mode == "q":
        winners = [g for q, g in refined if q >= max_q - tol.cmp_tol]
    return SearchReport(
        n=n,
        forbidden=to_graph6(f).decode("ascii"),
        mode=mode,
        ex_edges=max((g.m for g in winners), default=None),
        max_q=max_q,
        extremal_graphs=[to_graph6(g).decode("ascii") for g in winners],
        scanned=len(graphs),
        elapsed=time.perf_counter() - t0,
    )


def extremal_edges(
    n: int,
    f: Graph,
    corpus: Optional[str] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> SearchReport:
    """ex(n, F) with every extremal isomorphism class, in source order, and
    the largest q of those classes as ``max_q``.

    Graphs are visited by descending edge count, so containment is tested
    only down to the first F-free edge count; the record and ties use exact
    integer comparison.
    """
    return _extremal(n, f, "edges", corpus, tol)


def extremal_q(
    n: int,
    f: Graph,
    corpus: Optional[str] = None,
    tol: Tolerance = DEFAULT_TOL,
    min_degree_above: Optional[float] = None,
    jobs: int = 1,
) -> SearchReport:
    """Max q(G) over F-free classes with all maximizers at cmp_tol; the tied
    set is then re-ranked by ``q_value``, which sets ``max_q``.

    Classes are visited by descending rank bound (see ``_extremal``). Only a
    visited F-free class gets its tight bracket lo(G) <= q(G) <= hi(G)
    (``spectral.q_bracket``, cached per graph, so the scans at one order
    share it). The q that decides it is lo when the bracket is at most
    eig_tol wide; only a wider bracket runs ``q_value``. The maximizers' q,
    reported as ``max_q``, always comes from ``q_value``, and a maximizer
    whose ``q_value`` lies more than cmp_tol below ``max_q`` is dropped.
    ``min_degree_above`` restricts the scan to delta(G) > that value.

    ``jobs`` is ignored: every scan runs in-process. The keyword stays only
    because the benchmark harness (``perfbench/worker.py``) still calls
    ``extremal_q(n, f, jobs=1)``; drop it once the harness stops passing it.
    """
    return _extremal(n, f, "q", corpus, tol, min_degree_above)


def turan_density_estimate(f: Graph, n_max: int) -> DensityEstimate:
    """Exact ex(n,F)/C(n,2) for n from |F| to n_max, with the limit hint
    1 - 1/(chi(F) - 1)."""
    if f.n < 2:
        raise ValueError("forbidden graph needs at least 2 vertices")
    points = []
    for n in range(f.n, n_max + 1):
        rep = extremal_edges(n, f)
        points.append((n, rep.ex_edges, n * (n - 1) // 2))
    chi = chromatic_number(f)
    hint = 1.0 - 1.0 / (chi - 1) if chi >= 2 else 0.0
    return DensityEstimate(
        forbidden=to_graph6(f).decode("ascii"), points=points, limit_hint=hint
    )


def min_degree_family(
    n: int,
    f: Graph,
    params: CriterionParams,
    corpus: Optional[str] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> Dict[str, object]:
    """q over the family of F-free graphs with min degree > (pi - eps) n.

    Also verifies the Turan membership arithmetic: delta(T_{n,r}) =
    floor((r-1) n / r) exceeds the threshold and T_{n,r} is F-free.
    """
    threshold = (params.pi - params.epsilon) * n
    rep = extremal_q(n, f, corpus=corpus, tol=tol, min_degree_above=threshold)
    r = params.r
    turan_delta = ((r - 1) * n) // r
    tg = turan(n, min(r, n))
    turan_in_family = turan_delta > threshold and is_free(tg, f)
    return {
        "n": n,
        "forbidden": rep.forbidden,
        "threshold": threshold,
        "family_empty": not rep.extremal_graphs,
        "max_q": rep.max_q,
        "maximizers": rep.extremal_graphs,
        "scanned": rep.scanned,
        "turan_min_degree": turan_delta,
        "turan_in_family": turan_in_family,
    }


# -- seeded random graphs (verification sweeps) -----------------------------------


def sample_gnp(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p) sample from the given RNG (deterministic under a fixed seed)."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))
