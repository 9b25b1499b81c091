"""Known cases for the benchmark's oracles, so that a wrong oracle cannot
pass a wrong program. Run with ``python3 -m pytest perfbench``."""

import pytest

import oracles as O


def test_graph_counts_small_orders():
    assert [O.graph_count(n) for n in range(1, 6)] == [1, 2, 4, 11, 34]
    assert O.graph_count(8) == 12346


def test_graph_counts_by_edges_order4():
    assert O.graph_counts_by_edges(4) == [1, 1, 2, 3, 2, 1, 1]


@pytest.mark.parametrize("a,b", [(1, 1), (1, 4), (2, 3), (3, 3), (4, 7)])
def test_q_complete_bipartite(a, b):
    n = a + b
    rows = tuple(((1 << n) - 1) & ~((1 << a) - 1) for _ in range(a))
    rows += tuple((1 << a) - 1 for _ in range(b))
    assert O.quotient_q([a, b]) == pytest.approx(a + b, rel=1e-12)
    assert O.q_numpy(n, rows) == pytest.approx(a + b, rel=1e-12)
    assert O.complement_clique_sizes(n, rows) == sorted([a, b])


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_q_complete(n):
    assert O.quotient_q([1] * n) == pytest.approx(2 * n - 2, rel=1e-12)
    assert O.q_numpy(n, O.complete_rows(n)) == pytest.approx(2 * n - 2, rel=1e-12)


def test_containment_brute_force():
    c5 = tuple((1 << (v + 1) % 5) | (1 << (v - 1) % 5) for v in range(5))
    assert not O.contains(3, O.complete_rows(3), 5, c5)
    path3 = (0b010, 0b101, 0b010)
    assert O.contains(3, path3, 5, c5)
    assert O.contains(6, O.wheel_rows(5), 6, O.wheel_rows(5))
    assert not O.contains(6, O.wheel_rows(5), 6, O.complete_rows(5) + (0,))


def test_targets_and_parsing():
    assert O.parse_graph6("Bw") == (3, O.complete_rows(3))
    assert O.parse_graph6("A_") == (2, O.complete_rows(2))
    assert O.edges_count(O.wheel_rows(5)) == 10
    assert O.edges_count(O.book_rows(3, 2)) == 9
    assert O.complement_clique_sizes(4, (0b0010, 0b0001, 0, 0)) is None
    assert O.multipartite_edges(O.balanced_parts(8, 3)) == 21
