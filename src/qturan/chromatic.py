"""Exact chromatic number, r-partiteness and color-criticality (one edge
whose deletion lowers the chromatic number).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .graphs import Graph


@dataclass(frozen=True)
class CriticalityWitness:
    """Edge set whose deletion lowers the chromatic number."""

    edges: Tuple[Tuple[int, int], ...]
    chi_before: int
    chi_after: int


def _greedy_clique_bound(g: Graph) -> int:
    """Size of a greedily grown clique (lower bound on chi)."""
    if g.n == 0:
        return 0
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    best = 1
    for start in order[: min(g.n, 8)]:
        clique_mask = 1 << start
        size = 1
        cand = g.rows[start]
        while cand:
            v = (cand & -cand).bit_length() - 1
            clique_mask |= 1 << v
            size += 1
            cand &= g.rows[v]
        best = max(best, size)
    return best


def _dsatur_upper(g: Graph) -> int:
    """Number of colors used by DSATUR greedy (upper bound on chi)."""
    n = g.n
    colors = [-1] * n
    neigh_colors = [set() for _ in range(n)]
    for _ in range(n):
        v = max(
            (u for u in range(n) if colors[u] < 0),
            key=lambda u: (len(neigh_colors[u]), g.degree(u), -u),
        )
        c = 0
        while c in neigh_colors[v]:
            c += 1
        colors[v] = c
        for w in g.neighbors(v):
            neigh_colors[w].add(c)
    return max(colors) + 1 if n else 0


def is_k_colorable(g: Graph, k: int) -> bool:
    """Backtracking k-coloring feasibility with saturation-first vertex order."""
    n = g.n
    if k >= n:
        return True
    if k <= 0:
        return n == 0
    colors = [-1] * n
    neigh_colors = [0] * n  # bitmask of colors used by colored neighbors

    def rec(colored: int) -> bool:
        if colored == n:
            return True
        # most saturated first, ties by degree then index
        v = -1
        key = None
        for u in range(n):
            if colors[u] >= 0:
                continue
            ku = (neigh_colors[u].bit_count(), g.degree(u), -u)
            if key is None or ku > key:
                key = ku
                v = u
        used = neigh_colors[v]
        # symmetry cap: allow at most one fresh color
        maxc = 0
        for u in range(n):
            if colors[u] >= 0:
                maxc = max(maxc, colors[u] + 1)
        limit = min(k, maxc + 1)
        for c in range(limit):
            if (used >> c) & 1:
                continue
            colors[v] = c
            touched = []
            for w in g.neighbors(v):
                if colors[w] < 0 and not (neigh_colors[w] >> c) & 1:
                    neigh_colors[w] |= 1 << c
                    touched.append(w)
            if rec(colored + 1):
                return True
            colors[v] = -1
            for w in touched:
                neigh_colors[w] &= ~(1 << c)
        return False

    return rec(0)


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by branch and bound: greedy clique lower
    bound, DSATUR upper bound, then k-colorability tests in between."""
    if g.n == 0:
        raise ValueError("chromatic number undefined for the empty vertex set")
    lo = _greedy_clique_bound(g)
    hi = _dsatur_upper(g)
    for k in range(lo, hi):
        if is_k_colorable(g, k):
            return k
    return hi


def is_r_partite(g: Graph, r: int) -> bool:
    """True iff chi(G) <= r."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if g.n == 0:
        return True
    return is_k_colorable(g, r)


def _delete_edges(g: Graph, edges) -> Graph:
    rows = list(g.rows)
    for i, j in edges:
        rows[i] &= ~(1 << j)
        rows[j] &= ~(1 << i)
    return Graph(g.n, tuple(rows))


def is_color_critical(g: Graph) -> Tuple[bool, Optional[CriticalityWitness]]:
    """True, with a witness edge, iff some single edge deletion lowers chi."""
    if g.m == 0:
        raise ValueError("color-criticality needs at least one edge")
    chi = chromatic_number(g)
    for e in g.edges():
        if is_k_colorable(_delete_edges(g, [e]), chi - 1):
            w = CriticalityWitness((e,), chi, chi - 1)
            return True, w
    return False, None

