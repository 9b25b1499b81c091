"""Exact chromatic number, r-partiteness and color-criticality (one edge
whose deletion lowers the chromatic number).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .graphs import Graph
from .subgraph import clique_number


def is_k_colorable(g: Graph, k: int) -> bool:
    """Backtracking k-coloring feasibility with saturation-first vertex order.

    Each connected component is decided by its own search, so a component
    that fails never retries the colorings of the ones before it."""
    n = g.n
    if k >= n:
        return True
    if k <= 0:
        return n == 0
    colors = [-1] * n
    neigh_colors = [0] * n  # bitmask of colors used by colored neighbors

    # ``colored`` vertices of ``comp`` are colored, with colors 0..in_use-1
    def rec(comp: List[int], colored: int, in_use: int) -> bool:
        if colored == len(comp):
            return True
        # most saturated first, ties by degree then index
        v = -1
        key = None
        for u in comp:
            if colors[u] >= 0:
                continue
            ku = (neigh_colors[u].bit_count(), g.degree(u), -u)
            if key is None or ku > key:
                key = ku
                v = u
        used = neigh_colors[v]
        # symmetry cap: allow at most one fresh color
        for c in range(min(k, in_use + 1)):
            if (used >> c) & 1:
                continue
            colors[v] = c
            touched = []
            for w in g.neighbors(v):
                if colors[w] < 0 and not (neigh_colors[w] >> c) & 1:
                    neigh_colors[w] |= 1 << c
                    touched.append(w)
            if rec(comp, colored + 1, max(in_use, c + 1)):
                return True
            colors[v] = -1
            for w in touched:
                neigh_colors[w] &= ~(1 << c)
        return False

    return all(rec(comp, 0, 0) for comp in g.components())


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number: the first k from the clique number up for
    which ``is_k_colorable`` succeeds."""
    if g.n == 0:
        raise ValueError("chromatic number undefined for the empty vertex set")
    k = clique_number(g)
    while not is_k_colorable(g, k):
        k += 1
    return k


def is_r_partite(g: Graph, r: int) -> bool:
    """True iff chi(G) <= r."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return is_k_colorable(g, r)


def is_color_critical(g: Graph) -> Optional[Tuple[int, int]]:
    """The first edge, in ``Graph.edges`` order, whose deletion lowers chi,
    or None if no single edge deletion does."""
    if g.m == 0:
        raise ValueError("color-criticality needs at least one edge")
    chi = chromatic_number(g)
    for i, j in g.edges():
        rows = list(g.rows)
        rows[i] &= ~(1 << j)
        rows[j] &= ~(1 << i)
        if is_k_colorable(Graph(g.n, tuple(rows)), chi - 1):
            return i, j
    return None
