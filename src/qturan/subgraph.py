"""F-freeness (subgraph containment, not necessarily induced) and the
clique number."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

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


def is_free(g: Graph, f: Graph) -> bool:
    """True iff G has no subgraph isomorphic to F (not necessarily induced).

    Complete F goes to the clique kernel, which dominates the workload;
    any other F goes to the embedding kernel, where edges of F must map to
    edges of G and non-edges of F are unconstrained."""
    k = _as_clique(f)
    if k is not None:
        return _kernels.find_clique(g.n, g.rows, k) is None
    return _kernels.find_embedding(f.n, f.rows, g.n, g.rows) is None


def clique_number(g: Graph) -> int:
    """Largest k with a k-clique (0 for the graph on no vertices)."""
    k = 0
    while _kernels.find_clique(g.n, g.rows, k + 1) is not None:
        k += 1
    return k
