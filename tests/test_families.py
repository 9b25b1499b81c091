"""Family constructors: edge counts, isomorphism anchors, freeness, parity."""

import random

import numpy as np
import pytest

from qturan import _kernels, families as F
from qturan.chromatic import chromatic_number
from qturan.graphs import Graph, canonical_form, from_edges, is_isomorphic, join
from qturan.search import enumerate_graphs
from qturan.subgraph import is_free


def test_turan_examples():
    t63 = F.turan(6, 3)
    assert t63.m == 12 and set(t63.degrees()) == {4}
    assert F.turan(7, 3).m == 16
    assert F.turan(5, 1).m == 0
    # part sizes balanced: delta = n - ceil(n/r)
    for n in range(1, 11):
        for r in range(1, n + 1):
            t = F.turan(n, r)
            assert min(t.degrees()) == n - -(n // -r)
            assert t.m == F.turan_edges(n, r)
    with pytest.raises(ValueError):
        F.turan(3, 4)


def test_turan_edges_closed_form():
    for n in range(1, 41):
        for r in range(1, n + 1):
            assert F.turan_edges(n, r) == F.turan(n, r).m, (n, r)
    # reference: (n^2 - sum of squared part sizes) / 2 with part i of size
    # ceil((n - i) / r), evaluated for every n at once per r
    ns = np.arange(1, 1001, dtype=np.int64)
    for r in range(1, 1001):
        n = ns[r - 1:, None]
        sizes = (n - np.arange(r, dtype=np.int64) + r - 1) // r
        want = (n[:, 0] * n[:, 0] - (sizes * sizes).sum(axis=1)) // 2
        got = [F.turan_edges(int(k), r) for k in n[:, 0]]
        assert got == want.tolist(), r
    for n in (1, 5, 40):
        with pytest.raises(ValueError):
            F.turan_edges(n, 0)
        with pytest.raises(ValueError):
            F.turan_edges(n, n + 1)


def test_turan_parts_is_the_one_owner_of_the_sizes():
    # the graph, the part sizes and the O(1) edge count agree
    for n in range(1, 61):
        for r in range(1, n + 1):
            parts = F.turan_parts(n, r)
            assert parts == F.multipartite_parts(F.turan(n, r)), (n, r)
            assert sum(parts) == n
            assert F.turan_edges(n, r) == (n * n - sum(a * a for a in parts)) // 2, (n, r)
    with pytest.raises(ValueError):
        F.turan_parts(3, 4)
    with pytest.raises(ValueError):
        F.turan_parts(3, 0)


def _turan_parts(n, r):
    """Part index of each vertex: part i is the next ceil((n - i) / r)
    consecutive vertices."""
    part = []
    for i in range(r):
        part += [i] * ((n - i + r - 1) // r)
    assert len(part) == n
    return part


def test_turan_rows_match_definition():
    for n in range(1, 71):
        for r in range(1, n + 1):
            part = _turan_parts(n, r)
            expected = tuple(
                sum(1 << w for w in range(n) if part[w] != part[v]) for v in range(n)
            )
            assert F.turan(n, r).rows == expected, (n, r)


def test_turan_clique_free():
    for n in range(2, 11):
        for r in range(1, n + 1):
            assert is_free(F.turan(n, r), F.complete(r + 1))


def test_split_and_book():
    assert F.split(5, 2).m == 7
    assert F.split(6, 0).m == 0
    assert is_isomorphic(F.split(4, 4), F.complete(4))
    assert is_isomorphic(F.generalized_book(2, 1), F.complete(3))
    assert is_isomorphic(F.generalized_book(3, 2), F.split(5, 3))
    assert chromatic_number(F.generalized_book(3, 2)) == 4
    with pytest.raises(ValueError):
        F.split(3, 5)
    with pytest.raises(ValueError):
        F.generalized_book(0, 2)


def test_wheel():
    assert is_isomorphic(F.wheel(1, 3), F.complete(4))
    assert chromatic_number(F.wheel(1, 5)) == 4
    assert chromatic_number(F.wheel(2, 4)) == 4
    with pytest.raises(ValueError):
        F.wheel(1, 2)


def test_kst_plus():
    g = F.kst_plus(2, 2)
    assert g.n == 4 and g.m == 5 and chromatic_number(g) == 3
    assert F.kst_plus(3, 3).m == 10
    assert chromatic_number(F.kst_plus(3, 3)) == 3
    with pytest.raises(ValueError):
        F.kst_plus(1, 3)


def test_petersen():
    p = F.petersen()
    assert p.n == 10 and p.m == 15 and set(p.degrees()) == {3}
    assert is_free(p, F.complete(3))
    assert chromatic_number(p) == 3


def test_family_spec_round_trip():
    for text, g in [("turan:7,3", F.turan(7, 3)), ("book:3,2", F.generalized_book(3, 2)),
                    ("kstplus:2,4", F.kst_plus(2, 4)), ("petersen", F.petersen()),
                    ("star:10", F.star(10)), ("clique:4", F.complete(4)),
                    ("split:6,2", F.split(6, 2))]:
        assert F.parse_family_spec(text) == g
    with pytest.raises(ValueError, match="valid kinds"):
        F.parse_family_spec("blob:3")
    with pytest.raises(ValueError, match="parameters"):
        F.parse_family_spec("turan:7")
    with pytest.raises(ValueError, match="integers"):
        F.parse_family_spec("turan:a,b")


def test_family_aliases_build_their_targets():
    pairs = [("clique:5", "complete:5"), ("kst:2,3", "complete_bipartite:2,3"),
             ("book:3,2", "generalized_book:3,2"), ("kst_plus:2,4", "kstplus:2,4")]
    for alias, target in pairs:
        assert F.is_family_spec(alias) and F.is_family_spec(target)
        assert F.parse_family_spec(alias) == F.parse_family_spec(target)
    assert not F.is_family_spec("blob:3")
    with pytest.raises(ValueError) as exc:
        F.parse_family_spec("blob:3")
    assert str(exc.value) == (
        "unknown family kind 'blob'; valid kinds: book, clique, complete, "
        "complete_bipartite, cycle, empty, generalized_book, kst, "
        "kst_plus, kstplus, path, petersen, split, star, turan, wheel"
    )


def test_family_spec_refuses_parameters_above_the_kernel_cap():
    # refused by the parser, before any constructor could allocate the graph
    assert _kernels.CANONICAL_MAX_ORDER == 512
    for text in ("empty:1000000000", "complete:100000000", "turan:513,3", "kst:2,513"):
        with pytest.raises(ValueError, match="at most 512"):
            F.parse_family_spec(text)
    assert F.parse_family_spec("turan:512,3") == F.turan(512, 3)


def _complement_is_cliques(g):
    # brute force: every component of the complement is a clique in it
    full = (1 << g.n) - 1
    co = Graph(g.n, tuple(full & ~r & ~(1 << v) for v, r in enumerate(g.rows)))
    return all(
        co.has_edge(u, w) for comp in co.components() for u in comp for w in comp if u < w
    )


def _multipartite(parts):
    g = F.empty(0)
    for size in parts:
        g = join(g, F.empty(size))
    return g


def test_multipartite_parts_recognize_the_complete_multipartite_classes():
    rng = random.Random(67)
    seen = {}
    for n in range(8):
        for g in enumerate_graphs(n) if n else [F.empty(0)]:
            parts = F.multipartite_parts(g)
            assert (parts is not None) == _complement_is_cliques(g), g
            perm = rng.sample(range(n), n)
            relabeled = from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert F.multipartite_parts(relabeled) == parts, g
            if parts is not None:
                # equal parts <=> isomorphic: each part multiset names one class
                assert sum(parts) == n and list(parts) == sorted(parts)
                assert parts not in seen, (g, seen[parts])
                seen[parts] = g
                assert canonical_form(_multipartite(parts)) == canonical_form(g)
    # one class per partition of n, n = 0..7
    assert len(seen) == 1 + 1 + 2 + 3 + 5 + 7 + 11 + 15


def test_multipartite_parts_examples():
    for g in (F.cycle(5), F.path(4), from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])):
        assert F.multipartite_parts(g) is None
    k4_minus_e = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert F.multipartite_parts(k4_minus_e) == (1, 1, 2)
    assert F.multipartite_parts(F.turan(6, 3)) == (2, 2, 2)
    k114 = _multipartite((1, 1, 4))
    assert F.multipartite_parts(k114) == (1, 1, 4) != F.multipartite_parts(F.turan(6, 3))
    assert F.multipartite_parts(F.turan(7, 3)) == (2, 2, 3)
    assert F.multipartite_parts(F.complete(4)) == (1, 1, 1, 1)
    assert F.multipartite_parts(F.empty(3)) == (3,)
    assert F.multipartite_parts(F.complete_bipartite(2, 5)) == (2, 5)
