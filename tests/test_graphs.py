"""Graph core: constructors, join, deletion, isomorphism."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qturan import families as F
from qturan.graphs import (
    delete_vertex,
    from_edges,
    is_isomorphic,
    join,
)
from qturan.search import sample_gnp


def test_from_edges_examples():
    k3 = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert k3.m == 3
    empty4 = from_edges(4, [])
    assert empty4.degrees() == (0, 0, 0, 0)
    k2 = from_edges(2, [(0, 1), (1, 0)])  # duplicate orientation collapses
    assert k2.m == 1


def test_from_edges_rejects_bad_pairs():
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match=r"\(0, 7\)"):
        from_edges(3, [(0, 7)])


def test_graph_invariants_on_random_graphs():
    rng = random.Random(23)
    for _ in range(100):
        g = sample_gnp(rng.randrange(1, 15), rng.random(), rng)
        # symmetry and loop-freeness
        for i in range(g.n):
            assert not (g.rows[i] >> i) & 1
            for j in range(g.n):
                assert g.has_edge(i, j) == g.has_edge(j, i)
        assert sum(g.degrees()) == 2 * g.m


def test_join_counts_and_wheel():
    w6 = join(F.complete(1), F.cycle(5))
    assert w6.n == 6 and w6.m == 10
    assert is_isomorphic(w6, F.wheel(1, 5))
    k22 = join(F.empty(2), F.empty(2))
    assert is_isomorphic(k22, F.complete_bipartite(2, 2)) and k22.m == 4
    b23 = join(F.complete(2), F.empty(3))
    assert b23.m == 7


def test_join_associative_up_to_isomorphism():
    rng = random.Random(5)
    for _ in range(25):
        a = sample_gnp(rng.randrange(1, 5), rng.random(), rng)
        b = sample_gnp(rng.randrange(1, 5), rng.random(), rng)
        c = sample_gnp(rng.randrange(1, 5), rng.random(), rng)
        assert is_isomorphic(join(join(a, b), c), join(a, join(b, c)))


def test_delete_vertex_examples():
    assert is_isomorphic(delete_vertex(F.complete(4), 2), F.complete(3))
    p4 = delete_vertex(F.cycle(5), 3)
    assert is_isomorphic(p4, F.path(4)) and p4.m == 3
    assert delete_vertex(F.star(4), 0).m == 0  # center removal
    with pytest.raises(ValueError):
        delete_vertex(F.complete(3), 3)


@given(st.integers(2, 10), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_delete_vertex_degree_drop(n, rg):
    g = sample_gnp(n, 0.5, rg)
    v = rg.randrange(n)
    before = g.degrees()
    after = delete_vertex(g, v).degrees()
    kept = [u for u in range(n) if u != v]
    for new_idx, u in enumerate(kept):
        drop = 1 if g.has_edge(u, v) else 0
        assert after[new_idx] == before[u] - drop


def test_is_isomorphic_examples():
    assert is_isomorphic(F.cycle(4), F.complete_bipartite(2, 2))
    assert not is_isomorphic(F.star(4), F.path(4))
    assert is_isomorphic(F.turan(6, 3), join(F.empty(2), join(F.empty(2), F.empty(2))))


def test_components():
    g = from_edges(6, [(0, 1), (1, 2), (4, 5)])
    assert g.components() == [[0, 1, 2], [3], [4, 5]]
