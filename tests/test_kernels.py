"""Kernel correctness against brute-force oracles."""

import random
from itertools import combinations, permutations

import pytest

from qturan import _kernels
from conftest import all_labeled_graphs, brute_canon_key, brute_contains, brute_max_clique
from qturan.families import complete, empty, path
from qturan.graphs import Graph, canonical_form, from_edges
from qturan.search import enumerate_graphs, sample_gnp
from qturan.subgraph import is_free


def _rand_rows(rng, n, p):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def test_canonical_classifies_isomorphism_exhaustively():
    # the canonical form induces exactly the brute-force classes, n <= 5
    for n in range(6):
        by_canon = {}
        by_brute = {}
        for g in all_labeled_graphs(n):
            cf = canonical_form(g)
            bf = brute_canon_key(g)
            by_canon.setdefault(cf, set()).add(bf)
            by_brute.setdefault(bf, set()).add(cf)
        assert all(len(v) == 1 for v in by_canon.values())
        assert all(len(v) == 1 for v in by_brute.values())


def test_canonical_labeling_is_a_relabeling():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(1, 10)
        rows = _rand_rows(rng, n, rng.random())
        order, canon, _ = _kernels.canonical_labeling(n, rows)
        assert sorted(order) == list(range(n))
        for i in range(n):
            for j in range(n):
                assert ((canon[i] >> j) & 1) == ((rows[order[i]] >> order[j]) & 1)
        assert _kernels.canonical_labeling(n, canon)[1] == canon  # idempotent


def _relabel(rows, perm):
    # vertex v of the input becomes vertex perm[v]
    out = [0] * len(rows)
    for v, r in enumerate(rows):
        m = 0
        for w in range(len(rows)):
            if (r >> w) & 1:
                m |= 1 << perm[w]
        out[perm[v]] = m
    return tuple(out)


def test_canonical_order_is_degree_non_increasing():
    # degree leads the token canonical_labeling maximizes, so the last
    # canonical vertex has minimum degree; search._classes skips children on
    # that fact, and this test names the cause if the token is reordered
    rng = random.Random(53)
    graphs = [g.rows for n in range(1, 8) for g in enumerate_graphs(n)]
    graphs += [
        sample_gnp(n, p, rng).rows for n in (8, 12, 20, 30, 40) for p in (0.1, 0.3, 0.5, 0.8)
    ]
    for rows in graphs:
        n = len(rows)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = _relabel(rows, perm)
            order, _, _ = _kernels.canonical_labeling(n, relabeled)
            degs = [relabeled[v].bit_count() for v in order]
            assert all(degs[i] >= degs[i + 1] for i in range(n - 1)), (n, rows)


def test_labeling_generators_are_automorphisms():
    rng = random.Random(59)
    graphs = [g.rows for n in range(1, 8) for g in enumerate_graphs(n)]
    graphs += [_rand_rows(rng, n, rng.random()) for n in range(1, 13) for _ in range(25)]
    graphs += [complete(9).rows, empty(9).rows, path(9).rows]
    for rows in graphs:
        n = len(rows)
        gens = _kernels.canonical_labeling(n, rows)[2]
        assert len(set(gens)) == len(gens)
        for g in gens:
            assert sorted(g) == list(range(n)) and g != tuple(range(n))
            assert _relabel(rows, g) == rows, (rows, g)


def _generated_orbits(n, gens):
    # vertex orbits of the group the generators generate, by union-find
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for g in gens:
        for v in range(n):
            root[find(v)] = find(g[v])
    orbits = {}
    for v in range(n):
        orbits.setdefault(find(v), set()).add(v)
    return {frozenset(o) for o in orbits.values()}


def _brute_orbits(rows):
    # vertex orbits of the full automorphism group, over all n! permutations
    n = len(rows)
    arcs = [(u, v) for u in range(n) for v in range(n) if (rows[u] >> v) & 1]
    reach = [1 << v for v in range(n)]
    for p in permutations(range(n)):
        if all((rows[p[u]] >> p[v]) & 1 for u, v in arcs):
            for v in range(n):
                reach[v] |= 1 << p[v]
    return {frozenset(w for w in range(n) if (reach[v] >> w) & 1) for v in range(n)}


def test_generator_orbits_match_brute_force():
    # the generators may span a subgroup, but on every class of order <= 6,
    # relabeled at random, they reach the full vertex orbits
    rng = random.Random(61)
    for n in range(1, 7):
        for cls in enumerate_graphs(n):
            want = _brute_orbits(cls.rows)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                relabeled = _relabel(cls.rows, perm)
                gens = _kernels.canonical_labeling(n, relabeled)[2]
                moved = {frozenset(perm[v] for v in orbit) for orbit in want}
                assert _generated_orbits(n, gens) == moved, (cls.rows, perm)


def test_find_clique_against_subset_bruteforce():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(1, 9)
        rows = _rand_rows(rng, n, rng.random())
        g = Graph(n, rows)
        omega = brute_max_clique(g)
        for k in range(1, n + 2):
            got = _kernels.find_clique(n, rows, k)
            assert (got is not None) == (k <= omega)
            if got is not None:
                assert len(got) == k
                assert all((rows[u] >> v) & 1 for u, v in combinations(got, 2))


def _general_clique(n, rows, k):
    """The general path of ``find_clique``: vertices of degree >= k - 1,
    extensions tried in ascending order, so the first clique found is the
    lexicographically first one."""
    allowed = sum(1 << v for v in range(n) if rows[v].bit_count() >= k - 1)

    def rec(chosen, cand):
        if len(chosen) == k:
            return tuple(chosen)
        for v in range(n):
            if (cand >> v) & 1:
                found = rec(chosen + [v], cand & rows[v] & ~((2 << v) - 1))
                if found:
                    return found
        return None

    return rec([], allowed)


def test_triangle_test_returns_the_general_witness():
    """``find_clique(n, rows, 3)`` answers with a bit test per edge; its
    witness is the general search's, on every class of order <= 7 under
    seeded relabelings and on seeded random graphs up to order 12."""
    rng = random.Random(29)
    cases = []
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            for _ in range(2):
                perm = rng.sample(range(n), n)
                cases.append((n, from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()]).rows))
    for _ in range(2000):
        n = rng.randrange(0, 13)
        cases.append((n, _rand_rows(rng, n, rng.choice([0.1, 0.2, 0.35, 0.6, 0.9]))))
    found = 0
    for n, rows in cases:
        want = _general_clique(n, rows, 3)
        assert _kernels.find_clique(n, rows, 3) == want, (n, rows)
        found += want is not None
    assert 0 < found < len(cases)


def test_find_embedding_against_permutation_bruteforce():
    rng = random.Random(17)
    for _ in range(300):
        gn = rng.randrange(1, 7)
        g = Graph(gn, _rand_rows(rng, gn, rng.random()))
        fn = rng.randrange(1, min(gn, 5) + 1)
        f = Graph(fn, _rand_rows(rng, fn, rng.random()))
        got = _kernels.find_embedding(fn, f.rows, gn, g.rows)
        assert (got is not None) == brute_contains(g, f)
        if got is not None:
            assert len(set(got)) == fn
            for i, j in f.edges():
                assert g.has_edge(got[i], got[j])


def test_embedding_plan_is_shared_by_equal_f():
    """F's plan is cached by its rows: a list and a tuple of the same rows
    give the same witness, and one F reused across G of orders 1..9 agrees
    with the brute-force search on every one."""
    rng = random.Random(71)
    f = from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    found = 0
    for gn in range(1, 10):
        for _ in range(15):
            g = Graph(gn, _rand_rows(rng, gn, rng.choice([0.3, 0.5, 0.8])))
            got = _kernels.find_embedding(f.n, f.rows, gn, g.rows)
            assert _kernels.find_embedding(f.n, list(f.rows), gn, list(g.rows)) == got
            assert (got is not None) == brute_contains(g, f), (gn, g.rows)
            found += got is not None
    assert 0 < found < 9 * 15


def test_find_embedding_degree_and_isolated_vertices():
    # an F-vertex of degree 4 cannot land in C_6, whose maximum degree is 2
    star5 = from_edges(5, [(0, v) for v in range(1, 5)])
    c6 = from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert _kernels.find_embedding(5, star5.rows, 6, c6.rows) is None
    # isolated F-vertices take any unused G-vertex, isolated ones included
    f = from_edges(5, [(1, 3)])
    g = from_edges(6, [(4, 5)])
    phi = _kernels.find_embedding(f.n, f.rows, g.n, g.rows)
    assert phi is not None and len(set(phi)) == 5 and g.has_edge(phi[1], phi[3])
    assert _kernels.find_embedding(3, empty(3).rows, 3, empty(3).rows) == (0, 1, 2)
    assert _kernels.find_embedding(3, empty(3).rows, 2, empty(2).rows) is None


def test_canonical_form_order_cap():
    # the labeling recurses once per vertex: up to the cap it must finish,
    # past it it must refuse with a ValueError, never a RecursionError
    cap = _kernels.CANONICAL_MAX_ORDER
    assert canonical_form(empty(cap)) == (0,) * cap
    with pytest.raises(ValueError, match=f"n={cap + 1}"):
        canonical_form(empty(cap + 1))
    with pytest.raises(ValueError, match="n=1100"):
        canonical_form(path(1100))


def test_search_depth_cap():
    # clique and embedding searches recurse once per clique or F vertex: up
    # to the cap they must answer, past it refuse with a ValueError naming
    # the size, never a RecursionError
    cap = _kernels.CANONICAL_MAX_ORDER
    assert not is_free(complete(cap), complete(cap))
    assert not is_free(path(cap + 10), path(cap))
    with pytest.raises(ValueError, match="k=1100"):
        is_free(complete(1100), complete(1100))
    with pytest.raises(ValueError, match="order 1000"):
        is_free(path(1100), path(1000))
    # sizes above the host order are still answered without searching
    assert _kernels.find_clique(10, complete(10).rows, 1100) is None
    assert is_free(path(10), path(1000))
