"""Subgraph containment against brute force, plus the paper's freeness
anchors."""

import random

from conftest import brute_contains, brute_max_clique
from qturan import _kernels
from qturan import families as F
from qturan.graphs import from_edges
from qturan.search import enumerate_graphs, sample_gnp
from qturan.subgraph import clique_number, is_free


def test_agrees_with_bruteforce_exhaustively():
    fs = [g for n in range(1, 5) for g in enumerate_graphs(n)]
    gs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    for f in fs:
        for g in gs:
            assert is_free(g, f) != brute_contains(g, f), (g, f)


def test_each_f_reaches_one_kernel(monkeypatch):
    # complete F only ever reaches the clique kernel, any other F only the
    # embedding kernel, once per is_free call
    calls = {"find_clique": 0, "find_embedding": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(_kernels, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(_kernels, name, counted)
    gs = list(enumerate_graphs(6))
    cliques = [F.complete(k) for k in range(3, 7)]
    for g in gs:
        for f in cliques:
            is_free(g, f)
    assert calls == {"find_clique": len(cliques) * len(gs), "find_embedding": 0}
    others = [F.wheel(1, 5), F.generalized_book(3, 2), F.cycle(5)]
    for g in gs:
        for f in others:
            is_free(g, f)
    assert calls == {"find_clique": len(cliques) * len(gs), "find_embedding": len(others) * len(gs)}


def test_clique_number_vs_bruteforce_exhaustive_n7():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            w = brute_max_clique(g)
            assert clique_number(g) == w
            for r in range(1, n + 1):
                assert is_free(g, F.complete(r + 1)) == (w <= r)


def test_split_graph_is_odd_cycle_free():
    # S_{n,k} contains no C_{2k+1}
    for k in range(1, 6):
        cyc = F.cycle(2 * k + 1)
        for n in range(2 * k + 1, 13):
            assert is_free(F.split(n, k), cyc), (n, k)


def test_wheel_and_multipartite_anchors():
    assert is_free(F.wheel(1, 5), F.complete(4))  # rim C5 has no triangle
    assert not is_free(F.wheel(1, 5), F.complete(3))
    assert is_free(F.turan(6, 3), F.complete(4))
    assert not is_free(F.complete(5), F.cycle(4))
    assert is_free(F.cycle(5), F.complete(3))


def test_monotone_under_subgraph_removal():
    rng = random.Random(37)
    for _ in range(60):
        g = sample_gnp(rng.randrange(3, 9), 0.7, rng)
        f = sample_gnp(rng.randrange(2, 5), 0.8, rng)
        if not is_free(g, f):
            edges = f.edges()
            if edges:
                e = edges[rng.randrange(len(edges))]
                rows = list(f.rows)
                rows[e[0]] &= ~(1 << e[1])
                rows[e[1]] &= ~(1 << e[0])
                weaker = from_edges(f.n, [(i, j) for i in range(f.n) for j in range(i + 1, f.n) if (rows[i] >> j) & 1])
                assert not is_free(g, weaker)


def test_embedding_with_isolated_vertices():
    f = from_edges(3, [(0, 1)])  # edge plus isolated vertex
    assert is_free(F.complete(2), f)  # not enough vertices
    assert not is_free(F.path(3), f)
    assert not is_free(F.empty(4), from_edges(2, []))


def test_clique_witness():
    assert _kernels.find_clique(6, F.complete(6).rows, 4) == (0, 1, 2, 3)
    assert not is_free(F.turan(9, 3), F.complete(3))
    assert is_free(F.turan(9, 3), F.complete(4))
