"""Shared independent oracles: these deliberately avoid the package's own
kernels (permutation brute force, subset enumeration, Burnside counting,
union-find orbit counting) so cross-checks stay two-route. Also the one
shared run of the Q-Simonovits map at n_max = 8."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from qturan import verify as V
from qturan.graphs import Graph, from_edges


@pytest.fixture(scope="session")
def map_n8():
    """``suite_simonovits(n_max=8)``, run once per session. A session
    fixture is set up before any test's monkeypatch, so nothing is patched."""
    return V.suite_simonovits(n_max=8)


def all_labeled_graphs(n):
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        edges = [pairs[b] for b in range(len(pairs)) if (mask >> b) & 1]
        yield from_edges(n, edges)


def brute_canon_key(g: Graph):
    """Isomorphism invariant by raw minimization over all permutations."""
    best = None
    for perm in permutations(range(g.n)):
        rel = tuple(
            sorted(
                (min(perm.index(i), perm.index(j)), max(perm.index(i), perm.index(j)))
                for i, j in g.edges()
            )
        )
        if best is None or rel < best:
            best = rel
    return best


def brute_contains(g: Graph, f: Graph) -> bool:
    """Subgraph containment by brute force over injective maps."""
    if f.n > g.n:
        return False
    fedges = f.edges()
    for image in permutations(range(g.n), f.n):
        if all(g.has_edge(image[i], image[j]) for i, j in fedges):
            return True
    return False


def brute_max_clique(g: Graph) -> int:
    """Max clique by descending subset enumeration."""
    for k in range(g.n, 0, -1):
        for sub in combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return k
    return 0


def brute_chromatic(g: Graph) -> int:
    """Exact chi by plain first-fit recursion over vertices 0..n-1 with the
    standard fresh-color cap; no saturation heuristics, no clique bounds."""
    n = g.n

    def rec(v, colors, used):
        if v == n:
            return used
        best = None
        for c in range(min(used + 1, n)):
            if all(not g.has_edge(v, w) or colors[w] != c for w in range(v)):
                colors.append(c)
                r = rec(v + 1, colors, max(used, c + 1))
                colors.pop()
                if r is not None and (best is None or r < best):
                    best = r
        return best

    return rec(0, [], 0)


def _partitions(n, maxp=None):
    if maxp is None:
        maxp = n
    if n == 0:
        yield []
        return
    for p in range(min(n, maxp), 0, -1):
        for rest in _partitions(n - p, p):
            yield [p] + rest


def burnside_graph_count(n: int) -> int:
    """Unlabeled simple graph count from the cycle index of the pair group."""
    total = Fraction(0)
    for lam in _partitions(n):
        counts = {}
        for c in lam:
            counts[c] = counts.get(c, 0) + 1
        z = 1
        for length, mult in counts.items():
            z *= (length ** mult) * math.factorial(mult)
        nperms = Fraction(math.factorial(n), z)
        eorb = sum(c // 2 for c in lam)
        for i in range(len(lam)):
            for j in range(i + 1, len(lam)):
                eorb += math.gcd(lam[i], lam[j])
        total += nperms * Fraction(2) ** eorb
    return int(total / math.factorial(n))


def labeled_orbit_count(n: int) -> int:
    """Isomorphism class count by union-find over all labeled graphs under
    the adjacent-transposition generators of S_n."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pidx = {p: b for b, p in enumerate(pairs)}
    nmasks = 1 << len(pairs)
    parent = list(range(nmasks))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    gens = []
    for t in range(n - 1):
        perm = list(range(n))
        perm[t], perm[t + 1] = perm[t + 1], perm[t]
        gens.append([pidx[tuple(sorted((perm[i], perm[j])))] for (i, j) in pairs])
    for mask in range(nmasks):
        for remap in gens:
            out = 0
            mm = mask
            b = 0
            while mm:
                if mm & 1:
                    out |= 1 << remap[b]
                mm >>= 1
                b += 1
            ra, rb = find(mask), find(out)
            if ra != rb:
                parent[rb] = ra
    return sum(1 for x in range(nmasks) if find(x) == x)
