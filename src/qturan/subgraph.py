"""Subgraph containment (not necessarily induced) and F-freeness tests."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from . import _kernels
from .graphs import Graph


@lru_cache(maxsize=256)
def _as_clique(f: Graph) -> Optional[int]:
    """Order of F if it is a complete graph, else None; one lookup per F
    after the first, since ``Graph`` keeps its hash."""
    full = (1 << f.n) - 1
    for v in range(f.n):
        if f.rows[v] != full & ~(1 << v):
            return None
    return f.n


def contains_subgraph(g: Graph, f: Graph) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Does G contain a subgraph isomorphic to F?

    Returns (found, phi) with ``phi[f_vertex] = g_vertex`` when found. Edges
    of F must map to edges of G; non-edges of F are unconstrained. Complete
    F is routed to the clique kernel, which dominates the workload.
    """
    k = _as_clique(f)
    if k is not None:
        clique = _kernels.find_clique(g.n, g.rows, k)
        if clique is None:
            return False, None
        return True, tuple(clique)
    phi = _kernels.find_embedding(f.n, f.rows, g.n, g.rows)
    if phi is None:
        return False, None
    return True, phi


def is_free(g: Graph, f: Graph) -> bool:
    """True iff G has no subgraph isomorphic to F."""
    return not contains_subgraph(g, f)[0]


def has_clique(g: Graph, k: int) -> bool:
    return _kernels.find_clique(g.n, g.rows, k) is not None


def clique_number(g: Graph) -> int:
    """Largest k with a k-clique (0 for the graph on no vertices)."""
    k = 0
    while _kernels.find_clique(g.n, g.rows, k + 1) is not None:
        k += 1
    return k
