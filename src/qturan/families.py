"""Constructors for the named graph families: Turan graphs, split graphs,
generalized books, wheels, complete bipartite graphs plus an edge, the
joined-Turan family, and the conjecture families built on (nearly-)regular
triangle-free blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Tuple

from .graphs import Graph, from_edges, join
from .subgraph import has_clique


class SearchBudgetError(RuntimeError):
    """The backtracking search ran out of budget before deciding feasibility."""


def empty(n: int) -> Graph:
    if n < 0:
        raise ValueError("order must be nonnegative")
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("order must be nonnegative")
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(s: int, t: int) -> Graph:
    if s < 0 or t < 0:
        raise ValueError("part sizes must be nonnegative")
    return join(empty(s), empty(t))


def star(n: int) -> Graph:
    """Star on n vertices: one center joined to n-1 leaves."""
    if n < 1:
        raise ValueError("star needs at least 1 vertex")
    return complete_bipartite(1, n - 1)


def turan(n: int, r: int) -> Graph:
    """Complete r-partite graph on n vertices with balanced part sizes.

    Part i (0-indexed) has size ceil((n - i) / r), so earlier parts are the
    larger ones and the labeling is deterministic. Parts are consecutive
    vertex ranges, and every vertex of part i gets the row
    ``full & ~part_mask_i``: O(n) big-int operations in all.
    """
    if not (1 <= r <= n):
        raise ValueError(f"turan graph needs 1 <= r <= n, got r={r}, n={n}")
    full = (1 << n) - 1
    rows = []
    start = 0
    for i in range(r):
        size = (n - i + r - 1) // r
        rows += [full & ~(((1 << size) - 1) << start)] * size
        start += size
    return Graph(n, tuple(rows))


def turan_edges(n: int, r: int) -> int:
    """e(T_{n,r}) by exact integer arithmetic."""
    if not (1 <= r <= n):
        raise ValueError(f"turan graph needs 1 <= r <= n, got r={r}, n={n}")
    sizes = [(n - i + r - 1) // r for i in range(r)]
    return (n * n - sum(s * s for s in sizes)) // 2


def split(n: int, k: int) -> Graph:
    """Split graph: clique on k vertices joined to an independent set."""
    if not (0 <= k <= n):
        raise ValueError(f"split graph needs 0 <= k <= n, got k={k}, n={n}")
    return join(complete(k), empty(n - k))


def generalized_book(r: int, k: int) -> Graph:
    """k copies of K_{r+1} sharing a common K_r; equals split(r+k, r)."""
    if r < 1 or k < 1:
        raise ValueError(f"generalized book needs r >= 1 and k >= 1, got r={r}, k={k}")
    return split(r + k, r)


def wheel(r: int, k: int) -> Graph:
    """Clique K_r joined to a cycle C_k."""
    if r < 1:
        raise ValueError(f"wheel needs r >= 1, got {r}")
    if k < 3:
        raise ValueError(f"wheel needs a cycle of length >= 3, got {k}")
    return join(complete(r), cycle(k))


def kst_plus(s: int, t: int) -> Graph:
    """K_{s,t} with one extra edge inside the size-s side."""
    if not (2 <= s <= t):
        raise ValueError(f"needs 2 <= s <= t, got s={s}, t={t}")
    g = complete_bipartite(s, t)
    rows = list(g.rows)
    rows[0] |= 1 << 1
    rows[1] |= 1 << 0
    return Graph(g.n, tuple(rows))


def h_graph(n: int, r: int, k: int) -> Graph:
    """Join of K_{k-1} with the Turan graph T_{n-k+1, r}."""
    if k < 1 or r < 2 or n < k - 1 + r:
        raise ValueError(f"needs k >= 1, r >= 2, n >= k-1+r, got n={n}, r={r}, k={k}")
    return join(complete(k - 1), turan(n - k + 1, r))


def petersen() -> Graph:
    """Petersen graph as the Kneser graph KG(5,2): vertices are the 2-subsets
    of a 5-set, adjacent when disjoint."""
    verts = list(combinations(range(5), 2))
    edges = []
    for i in range(10):
        for j in range(i + 1, 10):
            if not (set(verts[i]) & set(verts[j])):
                edges.append((i, j))
    return from_edges(10, edges)


# -- (nearly-)regular triangle-free building blocks --------------------------


def _circulant(n: int, conn: Tuple[int, ...]) -> Graph:
    edges = []
    for v in range(n):
        for s in conn:
            edges.append((v, (v + s) % n))
    return from_edges(n, edges)


def _circulant_search(n: int, d: int) -> Optional[Graph]:
    """First triangle-free circulant of degree d in deterministic order."""
    half = n // 2
    shifts = list(range(1, half + 1))

    def degree_of(conn):
        return sum(1 if (2 * s == n) else 2 for s in conn)

    # enumerate connection sets by increasing size, lexicographic
    for size in range(0, half + 1):
        for conn in combinations(shifts, size):
            if degree_of(conn) != d:
                continue
            g = _circulant(n, conn)
            if all(dv == d for dv in g.degrees()) and not has_clique(g, 3):
                return g
    return None


def _degree_sequence_search(n: int, targets, budget: int) -> Optional[Graph]:
    """Backtracking search for a triangle-free graph with the given degree
    targets (listed per vertex). Exhausting the space returns None;
    exhausting ``budget`` raises SearchBudgetError.

    The lowest vertex with unmet degree is the active one and picks its
    higher-indexed neighbors as an increasing chain, so each labeled graph is
    visited once and the first solution is deterministic.
    """
    rows = [0] * n
    remaining = list(targets)
    nodes = 0

    def rec(u: int, start: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetError(
                f"triangle-free search exceeded {budget} nodes for n={n}"
            )
        while u < n and remaining[u] == 0:
            u += 1
            start = u + 1
        if u >= n:
            return True
        if remaining[u] > n - start:
            return False  # not enough candidates left for u
        for w in range(start, n):
            if remaining[w] <= 0 or (rows[u] >> w) & 1:
                continue
            if rows[u] & rows[w]:
                continue  # common neighbor would close a triangle
            rows[u] |= 1 << w
            rows[w] |= 1 << u
            remaining[u] -= 1
            remaining[w] -= 1
            if rec(u, w + 1):
                return True
            rows[u] &= ~(1 << w)
            rows[w] &= ~(1 << u)
            remaining[u] += 1
            remaining[w] += 1
        return False

    if rec(0, 1):
        return Graph(n, tuple(rows))
    return None


def regular_triangle_free(n: int, d: int, budget: int = 2_000_000) -> Optional[Graph]:
    """Triangle-free graph of order n in which every vertex has degree d.

    When d*n is odd no such graph exists; following the stated parity
    relaxation, the degree sequence (d, ..., d, d-1) is sought instead.
    Returns None when no qualifying graph exists; circulants are tried
    first, then exhaustive backtracking.
    """
    if n < 1 or d < 0 or d >= n:
        return None
    if d == 0:
        return empty(n) if n >= 1 else None
    if (d * n) % 2 == 0:
        if 2 * d > n:
            return None  # a neighborhood pair would exceed n vertices
        g = _circulant_search(n, d)
        if g is not None:
            return g
        return _degree_sequence_search(n, [d] * n, budget)
    # odd total degree: nearly regular with a single deficient vertex
    if 2 * d > n:
        return None
    targets = [d] * (n - 1) + [d - 1]
    return _degree_sequence_search(n, targets, budget)


def family_L_sample(n: int, s: int, t: int) -> Optional[Graph]:
    """A member of the clique-joined family: K_{s-1} joined to a
    (nearly) (t-1)-regular triangle-free graph of order n-s+1."""
    if not (2 <= s <= t) or n < s + t:
        raise ValueError(f"needs 2 <= s <= t and n >= s+t, got n={n}, s={s}, t={t}")
    block = regular_triangle_free(n - s + 1, t - 1)
    if block is None:
        return None
    return join(complete(s - 1), block)


def family_Y_sample(n: int, t: int) -> Optional[Graph]:
    """A member of the independent-set-joined family: I_{t-1} joined to a
    (nearly) (t-1)-regular triangle-free graph of order n-t+1."""
    if t < 2 or n < 2 * t:
        raise ValueError(f"needs t >= 2 and n >= 2t, got n={n}, t={t}")
    block = regular_triangle_free(n - t + 1, t - 1)
    if block is None:
        return None
    return join(empty(t - 1), block)


# -- textual family specs -----------------------------------------------------

# kind -> (parameter count, constructor); each constructor is listed once
_FAMILY_TABLE = {
    "turan": (2, turan),
    "complete": (1, complete),
    "empty": (1, empty),
    "cycle": (1, cycle),
    "path": (1, path),
    "complete_bipartite": (2, complete_bipartite),
    "star": (1, star),
    "split": (2, split),
    "generalized_book": (2, generalized_book),
    "wheel": (2, wheel),
    "kstplus": (2, kst_plus),
    "h": (3, h_graph),
    "L": (3, family_L_sample),
    "Y": (2, family_Y_sample),
    "petersen": (0, petersen),
}

# alternative spellings accepted by the parser, each naming a table kind
_FAMILY_ALIASES = {
    "clique": "complete",
    "kst": "complete_bipartite",
    "book": "generalized_book",
    "kst_plus": "kstplus",
    "h_graph": "h",
    "L_family": "L",
    "Y_family": "Y",
}

# every kind the parser accepts, aliases included
_FAMILY_KINDS = {
    **_FAMILY_TABLE,
    **{alias: _FAMILY_TABLE[kind] for alias, kind in _FAMILY_ALIASES.items()},
}


@dataclass(frozen=True)
class FamilySpec:
    """Parsed textual family form, e.g. "turan:7,3" or "petersen"."""

    kind: str
    params: Tuple[int, ...]

    def build(self) -> Optional[Graph]:
        arity, ctor = _FAMILY_KINDS[self.kind]
        return ctor(*self.params)

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def parse_family_spec(text: str) -> FamilySpec:
    """Parse "kind:p1,p2,..."; unknown kinds list the valid ones."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in _FAMILY_KINDS:
        valid = ", ".join(sorted(_FAMILY_KINDS))
        raise ValueError(f"unknown family kind {kind!r}; valid kinds: {valid}")
    arity, _ = _FAMILY_KINDS[kind]
    if rest.strip():
        try:
            params = tuple(int(p) for p in rest.split(","))
        except ValueError:
            raise ValueError(f"family parameters must be integers: {text!r}") from None
    else:
        params = ()
    if len(params) != arity:
        raise ValueError(f"family {kind!r} takes {arity} parameters, got {len(params)}")
    return FamilySpec(kind, params)


def is_family_spec(text: str) -> bool:
    head = text.partition(":")[0].strip()
    return head in _FAMILY_KINDS
