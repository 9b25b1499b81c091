"""Combinatorial kernels: canonical labeling, clique search, subgraph
embedding.

Graphs enter as ``(n, rows)`` where ``rows[v]`` is an integer bitmask of the
neighbors of ``v``. These three routines dominate the runtime of enumeration
and extremal sweeps.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

# canonical_labeling recurses once per vertex, find_clique once per clique
# vertex and find_embedding once per F vertex; deeper searches would approach
# the interpreter's recursion limit (and labeling P_500 already takes ~30 s),
# so all three refuse a depth above this cap with a ValueError
CANONICAL_MAX_ORDER = 512


def canonical_labeling(
    n: int, rows: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """Return ``(order, canon_rows, generators)`` for the canonical labeling
    of a graph.

    ``order[i]`` is the original vertex placed at canonical position ``i``;
    ``canon_rows`` is the relabeled adjacency. The canonical key is the
    per-position token sequence ``(degree, adjacency-bits-to-placed)``,
    maximized lexicographically, so two graphs are isomorphic iff their
    ``canon_rows`` agree. Branches tied on tokens are pruned when two
    candidates are twins (swapping them is an automorphism).

    ``generators`` holds distinct non-identity automorphisms in input
    numbering (``g[v]`` is the image of ``v``), found by the search itself:

    - a leaf reached without improving on the best ties it on all n tokens,
      and the tokens fix the relabeled adjacency, so mapping the best
      order's ``best[j]`` to this leaf's ``order[j]`` is an automorphism;
    - a candidate skipped as the twin of a representative has the same
      degree, the same adjacency to the placed prefix and the same adjacency
      to the rest, so the transposition of the two is an automorphism.

    They may generate only a subgroup of the automorphism group.
    """
    if n > CANONICAL_MAX_ORDER:
        raise ValueError(
            f"canonical labeling supports orders up to {CANONICAL_MAX_ORDER}, got n={n}"
        )
    if n == 0:
        return (), (), ()
    degs = [rows[v].bit_count() for v in range(n)]
    full = (1 << n) - 1

    # best token prefix found so far; valid entries are [0:valid)
    best_deg = [0] * n
    best_bits = [0] * n
    state = {"valid": 0, "order": None}

    order = [0] * n
    # bits[v] = adjacency of v to already-placed positions, updated incrementally
    bits = [0] * n
    # leaf automorphisms as image tuples (a dict keeps the first-found order
    # and drops repeats) and twin transpositions. Twins of the whole graph
    # form equivalence classes, and the transpositions along a spanning tree
    # of a class generate every permutation of it, so a pair already joined
    # in twin_class is not recorded; this keeps at most n - 1 of them
    autos: dict = {}
    twins = []
    twin_class = list(range(n))

    def dfs(i: int, used: int, improved: bool) -> None:
        if i == n:
            if improved:
                state["order"] = order.copy()
            else:
                g = [0] * n
                for j, v in enumerate(state["order"]):
                    g[v] = order[j]
                autos[tuple(g)] = None
            return
        rem = full & ~used
        # find the maximal token (deg, bits) among unused vertices
        tdeg = -1
        tbits = -1
        cands = []
        m = rem
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = degs[v]
            if d < tdeg:
                continue
            b = bits[v]
            if d > tdeg or b > tbits:
                tdeg, tbits = d, b
                cands = [v]
            elif b == tbits:
                cands.append(v)
        if not improved:
            if i < state["valid"]:
                bd, bb = best_deg[i], best_bits[i]
                if tdeg < bd or (tdeg == bd and tbits < bb):
                    return
                improved = tdeg > bd or tbits > bb
            else:
                improved = True
        if improved:
            best_deg[i] = tdeg
            best_bits[i] = tbits
            state["valid"] = i + 1
        # twin pruning: branch on one representative per interchangeable class
        reps = []
        for v in cands:
            rv = rows[v]
            bv = 1 << v
            for u in reps:
                mask = rem & ~bv & ~(1 << u)
                if (rv & mask) == (rows[u] & mask):
                    cu, cv = twin_class[u], twin_class[v]
                    if cu != cv:
                        twins.append((u, v))
                        for w in range(n):
                            if twin_class[w] == cv:
                                twin_class[w] = cu
                    break
            else:
                reps.append(v)
        # once the first child's subtree has recorded a best completion, the
        # shared prefix merely ties it, so later siblings must re-compare
        pos = 1 << i
        first = True
        for v in reps:
            order[i] = v
            rv = rows[v]
            touched = []
            m = rem & ~(1 << v) & rv
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                bits[w] |= pos
                touched.append(w)
            dfs(i + 1, used | (1 << v), improved if first else False)
            first = False
            for w in touched:
                bits[w] &= ~pos
        return

    dfs(0, 0, False)
    best_order = state["order"]
    canon = []
    inv = [0] * n
    for i, v in enumerate(best_order):
        inv[v] = i
    for v in best_order:
        row = 0
        m = rows[v]
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            row |= 1 << inv[w]
        canon.append(row)
    for u, v in twins:
        g = list(range(n))
        g[u], g[v] = v, u
        autos.setdefault(tuple(g))
    return tuple(best_order), tuple(canon), tuple(autos)


def find_clique(n: int, rows: Sequence[int], k: int) -> Optional[Tuple[int, ...]]:
    """Find a k-clique, returned as an ascending vertex tuple, or None.

    Vertices of degree < k-1 are excluded up front; the search enumerates
    candidate extensions in ascending index order, so the witness is the
    lexicographically first clique over the pruned graph. Triangles, the
    most common query, take a bit test per edge instead: the first edge
    (u, v), u < v, whose endpoints share a neighbor above u gives the same
    first triangle, since any common neighbor between u and v would have
    been found at an earlier edge.
    """
    if k <= 0:
        return ()
    if k > n:
        return None
    if k > CANONICAL_MAX_ORDER:
        raise ValueError(
            f"clique search supports clique sizes up to {CANONICAL_MAX_ORDER}, got k={k}"
        )
    if k == 3:
        for u in range(n):
            above = rows[u] >> (u + 1) << (u + 1)
            m = above
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                common = above & rows[v]
                if common:
                    return u, v, (common & -common).bit_length() - 1
        return None
    allowed = 0
    for v in range(n):
        if rows[v].bit_count() >= k - 1:
            allowed |= 1 << v
    if allowed.bit_count() < k:
        return None

    chosen = []

    def rec(cand: int) -> bool:
        if len(chosen) == k:
            return True
        if len(chosen) + cand.bit_count() < k:
            return False
        c = cand
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            if len(chosen) + 1 + (c & rows[v]).bit_count() < k:
                continue
            chosen.append(v)
            if rec(c & rows[v]):
                return True
            chosen.pop()
        return False

    if rec(allowed):
        return tuple(chosen)
    return None


@lru_cache(maxsize=256)
def _embedding_plan(
    fn: int, f_rows: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...], Tuple[int, ...], Tuple[int, ...]]:
    """F's side of ``find_embedding``, computed once per F: the F-vertices in
    descending-degree order and, per position, the earlier positions it must
    be G-adjacent to, its count of F-neighbors placed later, and its degree."""
    fdeg = [f_rows[v].bit_count() for v in range(fn)]
    order = sorted(range(fn), key=lambda v: (-fdeg[v], v))
    pos = [0] * fn
    for i, v in enumerate(order):
        pos[v] = i
    need_prev = []
    later_deg = []
    for i, v in enumerate(order):
        prev = []
        later = 0
        m = f_rows[v]
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if pos[w] < i:
                prev.append(pos[w])
            else:
                later += 1
        need_prev.append(tuple(prev))
        later_deg.append(later)
    return tuple(order), tuple(need_prev), tuple(later_deg), tuple(fdeg[v] for v in order)


def find_embedding(
    fn: int,
    f_rows: Sequence[int],
    gn: int,
    g_rows: Sequence[int],
) -> Optional[Tuple[int, ...]]:
    """Find an injective map embedding F into G as a (not necessarily
    induced) subgraph; returns ``phi`` with ``phi[f_vertex] = g_vertex``.

    F-vertices are processed in descending-degree order (``_embedding_plan``,
    built once per F). Candidates are filtered by degree and by adjacency to
    already-mapped F-neighbors, plus a count check that enough unused
    G-neighbors remain for the unmapped ones.
    """
    if fn == 0:
        return ()
    if fn > gn:
        return None
    if fn > CANONICAL_MAX_ORDER:
        raise ValueError(
            f"embedding search supports F of order up to {CANONICAL_MAX_ORDER}, got order {fn}"
        )
    order, need_prev, later_deg, fdeg = _embedding_plan(fn, tuple(f_rows))
    # at_least[d] = G-vertices of degree >= d, for d up to F's largest degree
    dmax = fdeg[0]
    at_least = [0] * (dmax + 1)
    for g in range(gn):
        at_least[min(g_rows[g].bit_count(), dmax)] |= 1 << g
    for d in range(dmax - 1, -1, -1):
        at_least[d] |= at_least[d + 1]

    phi_pos = [0] * fn

    def rec(i: int, used: int) -> bool:
        if i == fn:
            return True
        cand = at_least[fdeg[i]] & ~used
        for j in need_prev[i]:
            cand &= g_rows[phi_pos[j]]
        need_later = later_deg[i]
        c = cand
        while c:
            g = (c & -c).bit_length() - 1
            c &= c - 1
            if need_later and (g_rows[g] & ~used).bit_count() < need_later:
                continue
            phi_pos[i] = g
            if rec(i + 1, used | (1 << g)):
                return True
        return False

    if not rec(0, 0):
        return None
    phi = [0] * fn
    for i, v in enumerate(order):
        phi[v] = phi_pos[i]
    return tuple(phi)
