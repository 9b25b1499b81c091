"""Constructors for the named graph families: Turan graphs, split graphs,
generalized books, wheels, complete bipartite graphs plus an edge and the
Petersen graph, with the ``kind:params`` spec parser built on one
constructor table.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Tuple

from ._kernels import CANONICAL_MAX_ORDER
from .graphs import Graph, from_edges, join


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


def turan_parts(n: int, r: int) -> Tuple[int, ...]:
    """Ascending part sizes of T_{n,r}: with b, s = divmod(n, r), r - s
    parts of size b and s parts of size b + 1."""
    if not (1 <= r <= n):
        raise ValueError(f"turan graph needs 1 <= r <= n, got r={r}, n={n}")
    b, s = divmod(n, r)
    return (b,) * (r - s) + (b + 1,) * s


def turan(n: int, r: int) -> Graph:
    """Complete r-partite graph on n vertices with part sizes
    ``turan_parts(n, r)``, laid out largest first, so the labeling is
    deterministic. Parts are consecutive vertex ranges, and every vertex of
    a part gets the row ``full & ~part_mask``: O(n) big-int operations in
    all.
    """
    parts = turan_parts(n, r)
    full = (1 << n) - 1
    rows = []
    start = 0
    for size in reversed(parts):
        rows += [full & ~(((1 << size) - 1) << start)] * size
        start += size
    return Graph(n, tuple(rows))


def turan_edges(n: int, r: int) -> int:
    """e(T_{n,r}) in closed form, (n^2 - sum of squared part sizes) / 2 over
    ``turan_parts(n, r)``, without building the parts."""
    if not (1 <= r <= n):
        raise ValueError(f"turan graph needs 1 <= r <= n, got r={r}, n={n}")
    b, s = divmod(n, r)
    return (n * n - s * (b + 1) * (b + 1) - (r - s) * b * b) // 2


def multipartite_parts(g: Graph) -> Optional[Tuple[int, ...]]:
    """Ascending part sizes of G if it is complete multipartite (its
    complement is a disjoint union of cliques), else None.

    v's part is its non-neighborhood ``full & ~rows[v]``, v included; G is
    complete multipartite iff every u in that part has the same one, which
    takes one bit test per vertex. Two complete multipartite graphs are
    isomorphic iff their part sizes agree.
    """
    full = (1 << g.n) - 1
    sizes = []
    seen = 0
    for v in range(g.n):
        if seen >> v & 1:
            continue
        part = full & ~g.rows[v]
        m = part
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if full & ~g.rows[u] != part:
                return None
        seen |= part
        sizes.append(part.bit_count())
    return tuple(sorted(sizes))


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
    "petersen": (0, petersen),
}

# alternative spellings accepted by the parser, each naming a table kind
_FAMILY_ALIASES = {
    "clique": "complete",
    "kst": "complete_bipartite",
    "book": "generalized_book",
    "kst_plus": "kstplus",
}

# every kind the parser accepts, aliases included
_FAMILY_KINDS = {
    **_FAMILY_TABLE,
    **{alias: _FAMILY_TABLE[kind] for alias, kind in _FAMILY_ALIASES.items()},
}


def parse_family_spec(text: str) -> Graph:
    """Build the graph named by "kind:p1,p2,..." (e.g. "turan:7,3" or
    "petersen"); unknown kinds list the valid ones, and a parameter above
    the kernels' order cap is refused."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in _FAMILY_KINDS:
        valid = ", ".join(sorted(_FAMILY_KINDS))
        raise ValueError(f"unknown family kind {kind!r}; valid kinds: {valid}")
    arity, ctor = _FAMILY_KINDS[kind]
    if rest.strip():
        try:
            params = tuple(int(p) for p in rest.split(","))
        except ValueError:
            raise ValueError(f"family parameters must be integers: {text!r}") from None
    else:
        params = ()
    if len(params) != arity:
        raise ValueError(f"family {kind!r} takes {arity} parameters, got {len(params)}")
    # checked before any graph is built; every table kind then has order <= 2 * cap
    if any(p > CANONICAL_MAX_ORDER for p in params):
        raise ValueError(
            f"family parameters must be at most {CANONICAL_MAX_ORDER}, "
            f"the largest order the kernels accept: {text!r}"
        )
    return ctor(*params)


def is_family_spec(text: str) -> bool:
    head = text.partition(":")[0].strip()
    return head in _FAMILY_KINDS
