"""Chromatic module: exact chi vs brute force, r-partiteness, criticality."""

import signal
from collections import Counter

import pytest

from conftest import all_labeled_graphs, brute_chromatic
from qturan import families as F
from qturan import verify as V
from qturan.chromatic import (
    chromatic_number,
    is_color_critical,
    is_k_colorable,
    is_r_partite,
)
from qturan.graphs import Graph, from_edges, join
from qturan.search import enumerate_graphs


def test_chi_matches_bruteforce_exhaustively():
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            assert chromatic_number(g) == brute_chromatic(g), g


def test_chi_examples():
    assert chromatic_number(F.cycle(5)) == 3
    assert chromatic_number(F.wheel(1, 5)) == 4
    for n, r in [(6, 3), (9, 3), (8, 2), (10, 4)]:
        assert chromatic_number(F.turan(n, r)) == r
    assert chromatic_number(F.petersen()) == 3
    with pytest.raises(ValueError):
        chromatic_number(F.empty(0))


def test_chi_of_join_is_additive():
    cases = [
        (F.cycle(5), F.complete(2)),
        (F.path(4), F.cycle(4)),
        (F.complete(3), F.empty(4)),
        (F.petersen(), F.empty(0)),
    ]
    for g, h in cases:
        if g.n + h.n <= 10 and g.n and h.n:
            assert chromatic_number(join(g, h)) == chromatic_number(g) + chromatic_number(h)


def test_is_r_partite():
    assert is_r_partite(F.cycle(4), 2)
    assert not is_r_partite(F.cycle(5), 2)
    assert is_r_partite(F.turan(9, 3), 3)
    assert not is_r_partite(F.turan(9, 3), 2)


def _on_alarm(signum, frame):
    raise TimeoutError("colouring search ran past its time limit")


def test_components_are_colored_independently():
    """Twenty disjoint C4s followed by one C5: when the C5 fails, the search
    must not retry the C4s' 2^20 colourings. Each call gets 10 s; a search
    that backtracks across components takes about a minute."""
    c = 20
    edges = [(4 * i + j, 4 * i + (j + 1) % 4) for i in range(c) for j in range(4)]
    edges += [(4 * c + j, 4 * c + (j + 1) % 5) for j in range(5)]
    g = from_edges(4 * c + 5, edges)
    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for call, want in [
            (lambda: is_k_colorable(g, 2), False),
            (lambda: is_k_colorable(g, 3), True),
            (lambda: is_r_partite(g, 2), False),
            (lambda: chromatic_number(g), 3),
        ]:
            signal.alarm(10)
            try:
                got = call()
            except TimeoutError:
                got = "no answer within 10 s"
            finally:
                signal.alarm(0)
            assert got == want
    finally:
        signal.signal(signal.SIGALRM, old)


def test_color_critical_families():
    for m in range(2, 8):
        assert is_color_critical(F.complete(m)) is not None
    for k in (5, 7, 9):
        assert is_color_critical(F.cycle(k)) is not None
    for order in (6, 8, 10):  # even wheels
        assert is_color_critical(F.wheel(1, order - 1)) is not None
    # every book with a clique side (r >= 2) of order <= 10
    for r in range(2, 9):
        for k in range(1, 11 - r):
            assert is_color_critical(F.generalized_book(r, k)) is not None, (r, k)
    # every generalized wheel with r >= 2 of order <= 10 (deleting a clique
    # edge always drops chi; r = 1 with an even cycle is NOT critical)
    for r in range(2, 8):
        for cyc in range(3, 11 - r):
            assert is_color_critical(F.wheel(r, cyc)) is not None, (r, cyc)
    assert is_color_critical(F.wheel(1, 4)) is None
    # every K_{s,t} plus an edge of order <= 10
    for s in range(2, 6):
        for t in range(s, 11 - s):
            assert is_color_critical(F.kst_plus(s, t)) is not None, (s, t)
    # complete bipartite graphs with at least two edges stay 2-chromatic
    # under any single deletion (K_{1,1} is the clique K_2, critical)
    for s in range(1, 5):
        for t in range(s, 6):
            if s * t >= 2:
                assert is_color_critical(F.complete_bipartite(s, t)) is None, (s, t)


def test_color_critical_witness():
    assert is_color_critical(F.kst_plus(2, 3)) == (0, 1)  # the embedded edge
    with pytest.raises(ValueError):
        is_color_critical(F.empty(3))


def _without_edge(g, i, j):
    rows = list(g.rows)
    rows[i] &= ~(1 << j)
    rows[j] &= ~(1 << i)
    return Graph(g.n, tuple(rows))


def test_color_critical_matches_bruteforce_and_pins_the_small_f():
    """On every class of order <= 6 with an edge, ``is_color_critical``
    agrees with brute-force chi of each single-edge deletion: it returns
    the first such edge in ``Graph.edges`` order, or None. Among the
    connected classes (the candidate F of the Q-Simonovits map) 36 are
    color-critical with chi >= 4, 30 of them with chi 4, 5 with chi 5 and
    1 with chi 6, and 46 with chi 3; they, with r = chi - 1 and in
    catalogue order, are exactly the map's rows."""
    critical = Counter()
    rows = []
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            if not g.m:
                continue
            chi = brute_chromatic(g)
            drops = [e for e in g.edges() if brute_chromatic(_without_edge(g, *e)) < chi]
            edge = is_color_critical(g)
            assert edge == (drops[0] if drops else None), g
            if drops and len(g.components()) == 1:
                critical[chi] += 1
                if chi >= 3:
                    rows.append((chi - 1, g))
    assert (critical[3], critical[4], critical[5], critical[6]) == (46, 30, 5, 1)
    assert V._critical_rows() == rows
    assert sum(k for chi, k in critical.items() if chi >= 4) == 36


def test_family_chromatic_claims_up_to_order_10():
    for r in range(1, 9):
        for k in range(1, 10 - r):
            assert chromatic_number(F.generalized_book(r, k)) == r + 1
    for r in range(1, 8):
        for cyc in range(3, 11 - r):
            want = r + 3 if cyc % 2 else r + 2
            assert chromatic_number(F.wheel(r, cyc)) == want
    for s in range(2, 6):
        for t in range(s, 9 - s):
            assert chromatic_number(F.kst_plus(s, t)) == 3
