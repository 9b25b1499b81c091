"""The inequality ledger: every closed-form bound and criterion condition,
evaluated with explicit slack.

Every entry is normalized to the form lhs <= rhs, so slack = rhs - lhs,
holds = slack >= -cmp_tol and equality = |slack| <= cmp_tol hold uniformly
(lower bounds store the bound as lhs and the dominating quantity as rhs).
Degree stability and the two scalar facts are predicates, not entries.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Set, Tuple

from .chromatic import is_r_partite
from .families import turan, turan_edges  # noqa: F401 (perfbench/tracing.py wraps bounds.turan)
from .graphs import Graph
from .spectral import (
    DEFAULT_TOL,
    Tolerance,
    degree_power,
    lambda_value,
    multipartite_alpha,
    q_value,
    turan_q,
)


class BoundEntry(NamedTuple):
    """One checked inequality.

    A tuple record, immutable and hashable, because one is built per checked
    inequality: a frozen dataclass built from keywords took longer than the
    exact q(T_{n,r}) that a fact-2.1 entry holds."""

    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    equality: bool


class BoundReport(NamedTuple):
    """Per-graph ledger of checked inequalities, keyed by graph6."""

    graph_id: str
    entries: List[BoundEntry]


def _entry(name: str, lhs: float, rhs: float, tol: Tolerance, strict: bool = False) -> BoundEntry:
    slack = rhs - lhs
    holds = slack > 0 if strict else slack >= -tol.cmp_tol
    return BoundEntry(name, lhs, rhs, slack, holds, abs(slack) <= tol.cmp_tol)


def check_bound_chain(g: Graph, tol: Tolerance = DEFAULT_TOL) -> List[BoundEntry]:
    """4e(G)/n <= 2 lambda(G) <= q(G) <= 2 Delta(G), for every graph."""
    if g.n < 1:
        raise ValueError("chain bound needs n >= 1")
    lam2 = 2 * lambda_value(g)
    q = q_value(g)
    dmax = max(g.degrees()) if g.n else 0
    return [
        _entry("chain_edges_vs_lambda", 4 * g.m / g.n, lam2, tol),
        _entry("chain_lambda_vs_q", lam2, q, tol),
        _entry("chain_q_vs_maxdeg", q, 2.0 * dmax, tol),
    ]


def check_merris(g: Graph, tol: Tolerance = DEFAULT_TOL) -> BoundEntry:
    """q(G) <= max over v of d(v) + (1/d(v)) sum of d(w) over neighbors.

    Isolated vertices are skipped (the term is undefined at d(v) = 0 and
    cannot attain the max); an all-isolated graph is rejected.
    """
    degs = g.degrees()
    best = None
    for v in range(g.n):
        if degs[v] == 0:
            continue
        s = sum(degs[w] for w in g.neighbors(v))
        val = degs[v] + s / degs[v]
        best = val if best is None else max(best, val)
    if best is None:
        raise ValueError("Merris bound undefined: every vertex is isolated")
    return _entry("merris", q_value(g), best, tol)


def _edge_degree_pairs(g: Graph) -> Set[Tuple[int, int]]:
    """The set of sorted pairs (d(u), d(v)) over the edges uv."""
    degs = g.degrees()
    return {(degs[u], degs[v]) if degs[u] <= degs[v] else (degs[v], degs[u]) for u, v in g.edges()}


def edge_degree_sums_constant(g: Graph) -> bool:
    """True iff d(u) + d(v) is the same for every edge uv."""
    return len({a + b for a, b in _edge_degree_pairs(g)}) <= 1


def check_q_lower_degree(g: Graph, tol: Tolerance = DEFAULT_TOL) -> Tuple[BoundEntry, bool]:
    """q(G) >= (1/m) sum of d^2, equality iff the edge degree sums are
    constant; returns the entry plus the combinatorial constancy flag."""
    m = g.m
    if m < 1:
        raise ValueError("lower degree bound needs at least one edge")
    lhs = degree_power(g) / m
    entry = _entry("q_lower_degree", lhs, q_value(g), tol)
    return entry, edge_degree_sums_constant(g)


def _regular_or_semiregular_bipartite(g: Graph) -> bool:
    """True iff G is regular or bipartite with constant degree on each side.

    With an edge, that holds iff no vertex is isolated and every edge joins
    the same pair of degrees a <= b: for a < b the two degree classes are the
    sides, and a = b makes G regular. No colouring is needed."""
    return g.m == 0 or (0 not in g.degrees() and len(_edge_degree_pairs(g)) == 1)


def check_hofmeister(g: Graph, tol: Tolerance = DEFAULT_TOL) -> Tuple[BoundEntry, bool]:
    """lambda(G)^2 >= (1/n) sum of d^2, equality iff G is regular or
    bipartite semi-regular; returns the entry plus that combinatorial flag."""
    if g.n < 1:
        raise ValueError("Hofmeister bound needs n >= 1")
    lam = lambda_value(g)
    lhs = degree_power(g) / g.n
    entry = _entry("hofmeister", lhs, lam * lam, tol)
    return entry, _regular_or_semiregular_bipartite(g)


def check_degree_power(g: Graph, r: int, tol: Tolerance = DEFAULT_TOL) -> BoundEntry:
    """sum of d^2 <= 2 (1 - 1/r) m n.

    The F-freeness context is the caller's responsibility; at m = 0 both
    sides vanish and equality is flagged.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return _entry("degree_power", degree_power(g), 2 * (1 - 1 / r) * g.m * g.n, tol)


def check_fact21_margin(n: int, r: int, tol: Tolerance = DEFAULT_TOL) -> BoundEntry:
    """(n/4) q(T_{n,r}) < e(T_{n,r}) + 1, strictly."""
    if not (2 <= r <= n):
        raise ValueError(f"needs 2 <= r <= n, got n={n}, r={r}")
    lhs = n / 4 * turan_q(n, r)
    return _entry("fact21_margin", lhs, float(turan_edges(n, r) + 1), tol, strict=True)


def fact21_margin_exact(n: int, r: int) -> bool:
    """Exact verdict of (n/4) q(T_{n,r}) < e(T_{n,r}) + 1, in integers: with
    q = (c + sqrt(disc)) / 2 (``multipartite_alpha`` at alpha = 1/2, den 4) it
    reads n sqrt(disc) < t = 8 (e + 1) - n c, that is t > 0 and n^2 disc < t^2."""
    if not (2 <= r <= n):
        raise ValueError(f"needs 2 <= r <= n, got n={n}, r={r}")
    b, s = divmod(n, r)
    c, disc, _ = multipartite_alpha(s, b + 1, r - s, b, (1, 2))
    t = 8 * (turan_edges(n, r) + 1) - n * c
    return t > 0 and n * n * disc < t * t


def check_min_degree_stability(g: Graph, r: int) -> bool:
    """Degree stability: min degree above (3r-4)/(3r-1) n forces G to be
    r-partite (for the clique case the implication is unconditional).

    True iff the implication holds: the premise is false, or G is r-partite.
    """
    if r < 2:
        raise ValueError(f"needs r >= 2, got {r}")
    if g.n < 1:
        raise ValueError("needs n >= 1")
    # strict premise decided in integer arithmetic
    return min(g.degrees()) * (3 * r - 1) <= (3 * r - 4) * g.n or is_r_partite(g, r)


def check_fact1(a: float, x: float) -> bool:
    """ln(1 - a x) + a x + x^2 > 0 on 0 < x < 1/2, 0 < a < 1."""
    if not (0 < x < 0.5):
        raise ValueError(f"x must be in (0, 1/2), got {x}")
    if not (0 < a < 1):
        raise ValueError(f"a must be in (0, 1), got {a}")
    return math.log1p(-a * x) + a * x + x * x > 0


def check_fact2(x: float) -> bool:
    """1/x < ln x - ln(x-1) and 1/x^2 < 1/(x-1) - 1/x, for x > 1.

    log1p and the factored difference keep both sides accurate for large x.
    """
    if not (x > 1):
        raise ValueError(f"x must be > 1, got {x}")
    first = 1.0 / x < -math.log1p(-1.0 / x)
    second = 1.0 / (x * x) < 1.0 / ((x - 1.0) * x)
    return first and second
