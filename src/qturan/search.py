"""Isomorph-free enumeration, graph6 corpus ingestion, extremal searches
(optionally over a min-degree family) and seeded random graphs."""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import _kernels, spectral
from .graphs import (
    Graph,
    Graph6Error,
    canonical_form,
    delete_vertex,
    parse_graph6,
    to_graph6,
)
from .spectral import DEFAULT_TOL, Tolerance, q_rank_bounds, q_value
from .subgraph import is_free

ENUMERATION_CAP = 9
CATALOGUE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
CATALOGUE_MAX = 8
# isomorphism classes of order n = 0..CATALOGUE_MAX (OEIS A000088)
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
CORPUS_DIR_ENV = "QTURAN_CORPUS_DIR"


@dataclass
class SearchReport:
    """Extremal scan result for (n, F).

    ``mode`` says which quantity was maximized; ``ex_edges`` and ``max_q``
    are the largest m and q over the winning graphs in every mode.
    ``extremal_graphs`` holds graph6 strings: canonical for the built-in
    classes, and each graph as given for a ``corpus`` scan.
    """

    n: int
    forbidden: str
    mode: str
    ex_edges: Optional[int]
    max_q: Optional[float]
    extremal_graphs: List[str]
    scanned: int
    elapsed: float


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


class _Order(NamedTuple):
    """One order's classes and, per ``COLUMNS`` row, their rank keys and
    visit order (``_rank``); rows with one key function share one entry."""

    classes: Tuple[Graph, ...]
    ranks: Dict[str, Tuple[np.ndarray, np.ndarray]]


@lru_cache(maxsize=16)
def _order(n: int) -> _Order:
    """The record of order n >= 1, built once per process.

    Orders up to ``CATALOGUE_MAX`` are read from the shipped catalogue,
    ``data/graphs{n}.g6``, which lists them in the order ``_augment``
    produces; higher orders are augmented from the order below. A missing
    catalogue file, or one whose class count is not ``CLASS_COUNTS[n]``, is
    an error: nothing falls back to augmentation. The classes are ranked
    here once per ``COLUMNS`` key function, so no scan of the order ranks;
    a caller that only enumerates pays for the ranking too.
    """
    if n > CATALOGUE_MAX:
        graphs = _augment(n)
    else:
        path = os.path.join(CATALOGUE_DIR, f"graphs{n}.g6")
        graphs = tuple(ingest_corpus(path))
        if len(graphs) != CLASS_COUNTS[n]:
            raise ValueError(
                f"catalogue {path} holds {len(graphs)} graphs, "
                f"not the {CLASS_COUNTS[n]} classes of order {n}"
            )
    ranked = {keys: _rank(graphs, keys) for keys in {row[0] for row in COLUMNS.values()}}
    return _Order(graphs, {mode: ranked[row[0]] for mode, row in COLUMNS.items()})


def _classes(n: int) -> Tuple[Graph, ...]:
    """All isomorphism classes of order n >= 1, canonically labeled, from
    ``_order(n)``. The benchmark harness (``perfbench/tracing.py``) times
    this call and reads its length."""
    return _order(n).classes


def _augment(n: int) -> Tuple[Graph, ...]:
    """The isomorphism classes of order n >= 2, canonically labeled, from
    the classes of order n - 1 by canonical augmentation: a child of a
    parent survives iff deleting the vertex at its last canonical position
    reproduces the parent, with per-parent deduplication absorbing
    automorphic extensions. This is the only producer of classes: it wrote
    the shipped catalogue, and regenerates each file from the one below.

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


def enumerate_graphs(n: int) -> Tuple[Graph, ...]:
    """One canonical representative per isomorphism class of order n, in a
    deterministic order. Orders 1..9 only: the null graph has no q, and an
    external corpus serves beyond n = 9."""
    if n < 1:
        raise ValueError("order must be positive")
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"built-in enumeration capped at n={ENUMERATION_CAP}; "
            f"use ingest_corpus() with an external graph6 file for n={n}"
        )
    return _classes(n)


def count_classes(n: int) -> int:
    return len(enumerate_graphs(n))


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


# -- extremal scans --------------------------------------------------------------


def _rank(graphs: Sequence[Graph], rank_keys: Callable) -> Tuple[np.ndarray, np.ndarray]:
    """The visiting keys ``rank_keys(graphs)`` of a scan and the indices in
    descending-key order, ties in source order."""
    keys = rank_keys(graphs)
    return keys, np.argsort(-keys, kind="stable")


def _extremal(
    n: int,
    f: Graph,
    mode: str,
    corpus: Optional[str],
    tie_tol: float,
    min_degree: int = 0,
) -> SearchReport:
    """The maximizer scan of the ``COLUMNS`` row ``mode``, behind
    ``extremal_edges``, ``extremal_lambda`` and ``extremal_q``.

    Each F-free class the scan visits gets its floor and value from the
    row's judge: its edge count for both, or the lo of its solve's bracket
    (lo <= radius however wide the bracket) and that solve's radius, in
    units of 2 lambda_alpha (``_spectral_row``). Graphs are visited by
    descending key, the row's upper bound on the value: the edge count
    itself, or the rank bound hi(G) >= q(G) >= 2 lambda(G)
    (``spectral.q_rank_bounds``). The built-in classes carry their keys and
    visit order in ``_order(n)``, ranked when the order was built; a corpus
    scan ranks its graphs itself. The scan stops at the first key below
    best - tie_tol - 1e-9 * max(1, best), where best is the largest floor
    seen so far and tie_tol, which the wrapper passes, is cmp_tol for a
    spectral row and 0 for edge counts (for which the test is exactly
    m >= best). Every graph past that point has a value below the final
    maximum by more than tie_tol. Classes with delta(G) < min_degree are
    skipped.

    The maximizers are the visited F-free classes whose value is within
    tie_tol of the largest value, in source order; ``max_q`` is the largest
    ``q_value`` among them.
    """
    t0 = time.perf_counter()
    if corpus is None:
        graphs = enumerate_graphs(n)
        keys, order = _order(n).ranks[mode]
    else:
        # corpus files may bundle several orders; an (n, F) report only
        # concerns order-n entries, but a malformed line of any order aborts
        graphs = [g for g in ingest_corpus(corpus) if g.n == n]
        keys, order = _rank(graphs, COLUMNS[mode][0])
    judge = COLUMNS[mode][1]
    best = float("-inf")
    found: List[Tuple[int, float]] = []
    for i in order:
        if keys[i] < best - tie_tol - 1e-9 * max(1.0, best):
            break
        g = graphs[i]
        if min_degree and min(g.degrees(), default=0) < min_degree:
            continue
        if not is_free(g, f):
            continue
        floor, value = judge(g)
        best = max(best, floor)
        found.append((i, value))
    top = max((value for _, value in found), default=None)
    winners = [graphs[i] for i in sorted(i for i, value in found if value >= top - tie_tol)]
    return SearchReport(
        n=n,
        forbidden=to_graph6(f).decode("ascii"),
        mode=mode,
        ex_edges=max((g.m for g in winners), default=None),
        max_q=max((q_value(g) for g in winners), default=None),
        extremal_graphs=[to_graph6(g).decode("ascii") for g in winners],
        scanned=len(graphs),
        elapsed=time.perf_counter() - t0,
    )


def extremal_edges(
    n: int,
    f: Graph,
    corpus: Optional[str] = None,
) -> SearchReport:
    """ex(n, F) with every extremal isomorphism class, in source order, and
    the largest q of those classes as ``max_q``.

    Graphs are visited by descending edge count, so containment is tested
    only down to the first F-free edge count; the record and ties use exact
    integer comparison.
    """
    return _extremal(n, f, "edges", corpus, 0.0)


def extremal_q(
    n: int,
    f: Graph,
    corpus: Optional[str] = None,
    tol: Tolerance = DEFAULT_TOL,
    min_degree: int = 0,
    jobs: int = 1,
) -> SearchReport:
    """Max q(G) over F-free classes: the maximizers are the F-free classes
    whose ``q_value`` is within cmp_tol of the largest, in source order, and
    ``max_q`` is that largest ``q_value``.

    Classes are visited by descending rank bound (see ``_extremal``). Only a
    visited F-free class is solved: one ``q_radius`` (cached per graph, so
    the scans at one order share it) gives its q, which judges ties, and the
    lo of its bracket lo(G) <= q(G) <= hi(G), which only moves the record
    that stops the scan.
    ``min_degree`` = d keeps only the classes with delta(G) >= d; for
    integer degrees, d = floor((pi - eps) n) + 1 gives the criterion's
    family delta(G) > (pi - eps) n.

    ``jobs`` is ignored: every scan runs in-process. The keyword stays only
    because the benchmark harness (``perfbench/worker.py``) still calls
    ``extremal_q(n, f, jobs=1)``; drop it once the harness stops passing it.
    """
    return _extremal(n, f, "q", corpus, tol.cmp_tol, min_degree)


def extremal_lambda(
    n: int, f: Graph, corpus: Optional[str] = None, tol: Tolerance = DEFAULT_TOL
) -> SearchReport:
    """Max lambda(G) over F-free classes: the maximizers are the F-free
    classes whose 2 lambda is within cmp_tol of the largest, in source
    order. Classes are visited by the q rank bound, which bounds 2 lambda
    too: for the Perron vector x of A, q >= x^T Q x = 2 lambda + x^T (D - A) x."""
    return _extremal(n, f, "lambda", corpus, tol.cmp_tol)


def _spectral_row(solve: str, scale: int, scan: Callable) -> Tuple[Callable, Callable, Callable]:
    """The ``COLUMNS`` row of 2 lambda_alpha: keys ``q_rank_bounds``, judge ``scale`` x the
    (bracket lo, radius) of ``spectral.<solve>``, looked up per call for a traced ``q_radius``."""

    def judge(g: Graph) -> Tuple[float, float]:
        res = getattr(spectral, solve)(g)
        return scale * res.bracket[0], scale * res.radius

    return q_rank_bounds, judge, scan


# One row per scanned quantity, and one ``search --mode`` choice each:
# keys(graphs) gives each graph an upper bound on its value, with no
# eigensolve; judge(g) gives a visited F-free class its (floor, value),
# floor <= value; scan is the public wrapper the mode runs.
COLUMNS = {
    "edges": (
        lambda graphs: np.array([g.m for g in graphs], dtype=np.float64),
        lambda g: (g.m, g.m),
        extremal_edges,
    ),
    "lambda": _spectral_row("adjacency_radius", 2, extremal_lambda),
    "q": _spectral_row("q_radius", 1, extremal_q),
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
