"""Immutable simple-graph representation with graph6 I/O and canonical forms.

Vertices are ``0..n-1``; adjacency is stored as one integer bitmask per
vertex. All operations copy, never mutate.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from . import _kernels

GRAPH6_HEADER = b">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position at fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


class Graph:
    """Simple undirected graph: ``n`` vertices, bit-row adjacency.

    Invariants (enforced by the constructors below): the adjacency relation
    is symmetric and loop-free, and every row only uses bits below ``n``.
    """

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, rows: Tuple[int, ...]):
        self.n = n
        self.rows = rows
        self._hash = hash((n, rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.n}, {to_graph6(self)!r})"

    # -- basic accessors ---------------------------------------------------

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> Tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def neighbors(self, v: int) -> List[int]:
        return _mask_bits(self.rows[v])

    def edges(self) -> List[Tuple[int, int]]:
        out = []
        for i in range(self.n):
            m = self.rows[i] >> (i + 1)
            j = i + 1
            while m:
                if m & 1:
                    out.append((i, j))
                m >>= 1
                j += 1
        return out

    def components(self) -> List[List[int]]:
        """Connected components as sorted vertex lists, ordered by minimum vertex."""
        full = (1 << self.n) - 1
        seen = 0
        comps = []
        for s in range(self.n):
            if (seen >> s) & 1:
                continue
            frontier = 1 << s
            comp = frontier
            while frontier:
                nxt = 0
                for v in _mask_bits(frontier):
                    nxt |= self.rows[v]
                frontier = nxt & ~comp
                comp |= frontier
                if comp == full:
                    # only the walk from vertex 0 can reach every vertex
                    return [list(range(self.n))]
            seen |= comp
            comps.append(_mask_bits(comp))
        return comps


def _mask_bits(mask: int) -> List[int]:
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return out


def from_edges(n: int, edges: Iterable[Tuple[int, int]]) -> Graph:
    """Build a graph on ``n`` vertices from an edge list.

    Duplicate pairs and both orientations are accepted; loops and
    out-of-range endpoints are rejected, naming the offending pair.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    rows = [0] * n
    for i, j in edges:
        if i == j:
            raise ValueError(f"loop edge ({i}, {j}) is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Join: disjoint union of ``g`` and ``h`` plus all edges between them.

    ``g``'s vertices keep their labels; ``h``'s are shifted up by ``|g|``.
    """
    n = g.n + h.n
    gmask_all_h = ((1 << h.n) - 1) << g.n
    hmask_all_g = (1 << g.n) - 1
    rows = [r | gmask_all_h for r in g.rows]
    rows += [(r << g.n) | hmask_all_g for r in h.rows]
    return Graph(n, tuple(rows))


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove vertex ``v``; indices above ``v`` shift down by one."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    low = (1 << v) - 1
    rows = []
    for u in range(g.n):
        if u == v:
            continue
        r = g.rows[u]
        rows.append((r & low) | ((r >> (v + 1)) << v))
    return Graph(g.n - 1, tuple(rows))


def canonical_form(g: Graph) -> Tuple[int, ...]:
    """Canonical adjacency rows; equal forms characterize isomorphism."""
    return _kernels.canonical_labeling(g.n, g.rows)[1]


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g) == canonical_form(h)


# -- graph6 ----------------------------------------------------------------
#
# Encoding, bit-exact per the standard: header byte 63+n for n <= 62, long
# form b"~" + 3 bytes (each 63 + 6 bits, big-endian) for 63 <= n <= 258047;
# then the upper-triangle bits in column-major order ((0,1),(0,2),(1,2),
# (0,3),...) packed into 6-bit big-endian groups, each +63, zero-padded.

_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047


def to_graph6(g: Graph) -> bytes:
    n = g.n
    if n <= _G6_MAX_SHORT:
        head = bytes([63 + n])
    elif n <= _G6_MAX_LONG:
        head = bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    else:
        raise ValueError(f"graph6 encoding capped at n={_G6_MAX_LONG}, got {n}")
    out = bytearray(head)
    acc = 0
    nbits = 0
    for j in range(n):
        col = g.rows[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(63 + acc)
                acc = 0
                nbits = 0
    if nbits:
        out.append(63 + (acc << (6 - nbits)))
    return bytes(out)


def parse_graph6(text: bytes | str) -> Graph:
    """Parse one graph6 line (optional ``>>graph6<<`` prefix tolerated)."""
    data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    data = data.strip()
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER):]
    if not data:
        raise Graph6Error("empty graph6 input", 0)
    pos = 0
    b0 = data[0]
    if b0 == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("n > 258047 (double-~ form) not supported", 1)
        if len(data) < 4:
            raise Graph6Error("truncated long-form vertex count", len(data))
        vals = []
        for k in range(1, 4):
            b = data[k]
            if not (63 <= b <= 126):
                raise Graph6Error(f"bad vertex-count byte {b}", k)
            vals.append(b - 63)
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        pos = 4
    elif 63 <= b0 <= 125:
        n = b0 - 63
        pos = 1
    else:
        raise Graph6Error(f"bad header byte {b0}", 0)
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(data) - pos < ngroups:
        raise Graph6Error(
            f"truncated bit payload: need {ngroups} bytes, have {len(data) - pos}",
            len(data),
        )
    if len(data) - pos > ngroups:
        raise Graph6Error("trailing bytes after bit payload", pos + ngroups)
    rows = [0] * n
    bit = 0
    i = 0
    j = 1
    for k in range(ngroups):
        b = data[pos + k]
        if not (63 <= b <= 126):
            raise Graph6Error(f"bad payload byte {b}", pos + k)
        group = b - 63
        for s in range(5, -1, -1):
            v = (group >> s) & 1
            if bit < nbits:
                if v:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                i += 1
                if i == j:
                    i = 0
                    j += 1
            elif v:
                raise Graph6Error("nonzero padding bits", pos + k)
            bit += 1
    return Graph(n, tuple(rows))
