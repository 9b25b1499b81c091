"""Reference computations that judge qturan's outputs in the benchmark.

Nothing here imports qturan: each check is made apart from the program, from
a closed form (Polya counting, quotient matrices of equitable partitions) or
by brute force (injective-map containment, numpy eigensolves). Graphs are
``(n, rows)`` with ``rows[v]`` the neighbour bitmask of ``v``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np


# -- counting graphs up to isomorphism ----------------------------------------


def _partitions(n: int, largest: Optional[int] = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _poly_mul(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def graph_counts_by_edges(n: int) -> List[int]:
    """Number of graphs on n unlabeled vertices with m edges, for each m.

    Burnside over S_n acting on vertex pairs: a permutation of cycle type
    (c_1, c_2, ...) splits the pairs into cycles, and each pair cycle of
    length L is either all edges or all non-edges, contributing 1 + x^L.
    """
    total = [0] * (n * (n - 1) // 2 + 1)
    for cycles in _partitions(n):
        lengths: List[int] = []
        for c in cycles:
            lengths += [c] * ((c - 1) // 2)
            if c % 2 == 0:
                lengths.append(c // 2)
        for i, a in enumerate(cycles):
            for b in cycles[i + 1:]:
                lengths += [a * b // math.gcd(a, b)] * math.gcd(a, b)
        poly = [1]
        for length in lengths:
            factor = [0] * (length + 1)
            factor[0] = factor[length] = 1
            poly = _poly_mul(poly, factor)
        # permutations of this cycle type: n! / prod(k^{m_k} m_k!)
        z = 1
        for k in set(cycles):
            mult = cycles.count(k)
            z *= k ** mult * math.factorial(mult)
        weight = math.factorial(n) // z
        for m, coeff in enumerate(poly):
            total[m] += weight * coeff
    return [t // math.factorial(n) for t in total]


def graph_count(n: int) -> int:
    return sum(graph_counts_by_edges(n))


# -- graph6 and small constructions -------------------------------------------


def parse_graph6(text: str) -> Tuple[int, Tuple[int, ...]]:
    """Short-form graph6 (n <= 62) to (n, rows)."""
    data = text.encode("ascii")
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise ValueError(f"not a short-form graph6 header: {text!r}")
    bits = []
    for byte in data[1:]:
        bits += [((byte - 63) >> s) & 1 for s in range(5, -1, -1)]
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return n, tuple(rows)


def edges_count(rows: Sequence[int]) -> int:
    return sum(r.bit_count() for r in rows) // 2


def complete_rows(n: int) -> Tuple[int, ...]:
    full = (1 << n) - 1
    return tuple(full & ~(1 << v) for v in range(n))


def wheel_rows(k: int) -> Tuple[int, ...]:
    """A hub (vertex 0) joined to the cycle 1..k."""
    rows = [((1 << (k + 1)) - 1) & ~1]
    for i in range(k):
        rows.append(1 | (1 << (1 + (i + 1) % k)) | (1 << (1 + (i - 1) % k)))
    return tuple(rows)


def book_rows(r: int, k: int) -> Tuple[int, ...]:
    """k copies of K_{r+1} sharing one K_r (vertices 0..r-1)."""
    n = r + k
    spine = (1 << r) - 1
    rows = [((1 << n) - 1) & ~(1 << v) for v in range(r)]
    rows += [spine] * k
    return tuple(rows)


# -- containment by brute force -----------------------------------------------


def contains(f_n: int, f_rows: Sequence[int], g_n: int, g_rows: Sequence[int]) -> bool:
    """Is there an injective map of F's vertices into G's that sends every
    edge of F to an edge of G? Plain backtracking over all such maps."""
    phi = [0] * f_n

    def place(i: int, used: int) -> bool:
        if i == f_n:
            return True
        for w in range(g_n):
            if (used >> w) & 1:
                continue
            if all(
                (g_rows[phi[u]] >> w) & 1 for u in range(i) if (f_rows[i] >> u) & 1
            ):
                phi[i] = w
                if place(i + 1, used | (1 << w)):
                    return True
        return False

    return place(0, 0)


def complement_clique_sizes(n: int, rows: Sequence[int]) -> Optional[List[int]]:
    """Sorted part sizes when the complement is a disjoint union of cliques,
    that is when the graph is complete multipartite; otherwise None."""
    full = (1 << n) - 1
    comp = [full & ~rows[v] & ~(1 << v) for v in range(n)]
    seen = 0
    sizes = []
    for v in range(n):
        if (seen >> v) & 1:
            continue
        part = comp[v] | (1 << v)
        for u in range(n):
            if (part >> u) & 1 and comp[u] | (1 << u) != part:
                return None
        seen |= part
        sizes.append(part.bit_count())
    return sorted(sizes)


# -- signless-Laplacian radii -------------------------------------------------


def q_numpy(n: int, rows: Sequence[int]) -> float:
    """Largest eigenvalue of Q = D + A from numpy's symmetric eigensolver."""
    a = np.array([[(rows[i] >> j) & 1 for j in range(n)] for i in range(n)], dtype=float)
    return float(np.linalg.eigvalsh(np.diag(a.sum(axis=1)) + a)[-1])


def balanced_parts(n: int, r: int) -> List[int]:
    return sorted([n // r + (1 if i < n % r else 0) for i in range(r)])


def multipartite_edges(parts: Sequence[int]) -> int:
    n = sum(parts)
    return (n * n - sum(p * p for p in parts)) // 2


def quotient_q(parts: Sequence[int]) -> float:
    """q of the complete multipartite graph with the given part sizes.

    The parts form an equitable partition, so q is the largest eigenvalue of
    the quotient matrix: degree n - n_i on the diagonal and n_j off it.
    """
    n = sum(parts)
    b = np.array(
        [[n - pi if i == j else pj for j, pj in enumerate(parts)] for i, pi in enumerate(parts)],
        dtype=float,
    )
    return float(np.max(np.linalg.eigvals(b).real))
