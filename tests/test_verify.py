"""Verdict texts of the clique-scan, degree-power, stability and simonovits suites, pinned word for word.

The scans are stubbed so that each suite sees a wrong value or a wrong
maximizer set; the violation strings are what ``qturan verify`` prints.
"""

import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

import qturan.bounds as B
import qturan.chromatic as C
from qturan import families as F
from qturan import verify as V
from qturan.cli import main
from qturan.graphs import to_graph6
from qturan import search
from qturan.search import ENUMERATION_CAP, SearchReport, extremal_edges
from qturan.spectral import DEFAULT_TOL, turan_q


def _g6(g):
    return to_graph6(g).decode("ascii")


def _edges_stub(value_off, maximizers):
    def stub(n, f):
        r = f.n - 1
        return SearchReport(n, _g6(f), "edges", F.turan_edges(n, r) + value_off, None,
                            [_g6(g) for g in maximizers(n, r)], 0, 0.0)
    return stub


def _q_stub(value_off, maximizers):
    def stub(n, f, tol=DEFAULT_TOL):
        r = f.n - 1
        return SearchReport(n, _g6(f), "q", None, turan_q(n, r) + value_off,
                            [_g6(g) for g in maximizers(n, r)], 0, 0.0)
    return stub


def _turan(n, r):
    return [F.turan(n, r)]


def _q_maximizers(n, r):
    return [F.complete_bipartite(a, n - a) for a in range(1, n // 2 + 1)] if r == 2 else _turan(n, r)


@pytest.mark.parametrize(
    "value_off, maximizers, want",
    [
        (1, _turan, ["ex(3,K_3) = 3 != 2", "ex(4,K_3) = 5 != 4", "ex(4,K_4) = 6 != 5"]),
        (0, lambda n, r: [F.turan(n, r), F.complete(n)], [
            "ex(3,K_3): maximizer set ['BW', 'Bw'] is not exactly the Turan graph",
            "ex(4,K_3): maximizer set ['C]', 'C~'] is not exactly the Turan graph",
            "ex(4,K_4): maximizer set ['C^', 'C~'] is not exactly the Turan graph",
        ]),
        (0, lambda n, r: [F.complete(n)], [
            "ex(3,K_3): maximizer set ['Bw'] is not exactly the Turan graph",
            "ex(4,K_3): maximizer set ['C~'] is not exactly the Turan graph",
            "ex(4,K_4): maximizer set ['C~'] is not exactly the Turan graph",
        ]),
        (0, _turan, []),
    ],
)
def test_suite_turan_violation_texts(monkeypatch, value_off, maximizers, want):
    monkeypatch.setattr(V, "extremal_edges", _edges_stub(value_off, maximizers))
    res = V.suite_turan(n_max=4)
    assert res.checked == 3
    assert res.violations == want


@pytest.mark.parametrize(
    "value_off, maximizers, want",
    [
        (0.5, _q_maximizers, [
            "q-max(3,K_3) = 3.5 != q(T) = 3.0",
            "q-max(4,K_3) = 4.5 != q(T) = 4.0",
            "q-max(4,K_4) = 5.73606797749979 != q(T) = 5.23606797749979",
        ]),
        (0, lambda n, r: [F.complete(n)], [
            "q-max(3,K_3): maximizer set is not exactly the complete bipartite graphs (['Bw'])",
            "q-max(4,K_3): maximizer set is not exactly the complete bipartite graphs (['C~'])",
            "q-max(4,K_4): maximizers ['C~'] not exactly the Turan graph",
        ]),
        # the right number of maximizers, one of them not bipartite
        (0, lambda n, r: _q_maximizers(n, r)[:-1] + [F.complete(n)], [
            "q-max(3,K_3): maximizer set is not exactly the complete bipartite graphs (['Bw'])",
            "q-max(4,K_3): maximizer set is not exactly the complete bipartite graphs (['Cs', 'C~'])",
            "q-max(4,K_4): maximizers ['C~'] not exactly the Turan graph",
        ]),
        (0, _turan, [
            "q-max(4,K_3): maximizer set is not exactly the complete bipartite graphs (['C]'])",
        ]),
        (0, _q_maximizers, []),
    ],
)
def test_suite_q_turan_violation_texts(monkeypatch, value_off, maximizers, want):
    monkeypatch.setattr(V, "extremal_q", _q_stub(value_off, maximizers))
    res = V.suite_q_turan(n_max=4)
    assert res.checked == 3
    assert res.violations == want


def test_maximizer_test_counts_each_class_once():
    """A repeated maximizer does not stand in for a missing class: K_{3,4}
    is missing below, so the r = 2 set test at n = 7 fails."""
    k16, k25, k34 = (F.complete_bipartite(a, 7 - a) for a in (1, 2, 3))
    assert not V._maximizers_are([_g6(k16), _g6(k16), _g6(k25)], [(1, 6), (2, 5), (3, 4)])
    assert not V._maximizers_are([_g6(k16), _g6(k25), _g6(k34)], [(1, 6), (1, 6), (2, 5)])
    assert V._maximizers_are([_g6(k34), _g6(k16), _g6(k25)], [(1, 6), (2, 5), (3, 4)])


def test_maximizer_test_compares_part_sizes():
    """The maximizers' part sizes are compared with the expected size
    tuples, so a maximizer that is not complete multipartite never matches."""
    t63, t73 = F.turan(6, 3), F.turan(7, 3)
    assert V._maximizers_are([_g6(t73)], [F.turan_parts(7, 3)])
    assert not V._maximizers_are([_g6(t63)], [F.turan_parts(7, 3)])
    assert not V._maximizers_are([_g6(F.cycle(5))], [F.turan_parts(5, 2)])
    assert not V._maximizers_are([], [F.turan_parts(7, 3)])
    assert V._maximizers_are([], [])


def test_clique_suites_take_one_r_and_refuse_r_below_2(monkeypatch):
    scans = []

    def recorded(stub):
        def scan(n, f, **kwargs):
            scans.append((n, f.n - 1))
            return stub(n, f, **kwargs)
        return scan

    monkeypatch.setattr(V, "extremal_edges", recorded(_edges_stub(0, _turan)))
    monkeypatch.setattr(V, "extremal_q", recorded(_q_stub(0, _q_maximizers)))
    assert V.suite_turan(n_max=6, r=3).checked == 3
    assert V.suite_q_turan(n_max=6, r=4).checked == 2
    assert scans == [(4, 3), (5, 3), (6, 3), (5, 4), (6, 4)]
    for suite, name in ((V.suite_turan, "turan"), (V.suite_q_turan, "q-turan")):
        with pytest.raises(ValueError, match=f"suite '{name}' needs r >= 2, got r=1"):
            suite(n_max=6, r=1)
        with pytest.raises(ValueError, match=f"suite '{name}' needs r < n_max, got r=6, n_max=6"):
            suite(n_max=6, r=6)
        # below order 3 no pair 2 <= r < n <= n_max exists, with or without --r
        for n_max, r in ((2, None), (1, None), (0, None), (2, 2)):
            with pytest.raises(ValueError, match=f"suite '{name}' needs n_max >= 3, got n_max={n_max}"):
                suite(n_max=n_max, r=r)
    assert len(scans) == 5


def test_suite_stability_violation_texts(monkeypatch):
    # every coloring fails, so each clique-free graph whose minimum degree
    # clears the threshold is reported
    monkeypatch.setattr(C, "is_k_colorable", lambda g, k: False)
    res = V.suite_stability(n_max=3)
    assert res.checked == 7
    assert res.violations == [
        "A_: triangle-free, delta>2n/5, not bipartite",
        "Bw: K4-free, delta>5n/8, not 3-partite",
    ]


def test_suite_degree_power_violation_texts(monkeypatch):
    """At each order the equality set must be K_{n/3,n/3,n/3} alone: the
    stubs flag equality on the two other 11-edge K_4-free classes at n = 6
    (K_{2,2,2} minus an edge and K_{1,2,3}), then drop K_3's equality, so
    both a wrong graph in the set and a missing one are named."""
    real = B.check_degree_power

    def stub(equal):
        def check(g, r, tol=DEFAULT_TOL):
            e = real(g, r, tol)
            return e._replace(equality=equal(g, e.equality))
        return check

    monkeypatch.setattr(B, "check_degree_power", stub(lambda g, eq: eq or (g.n == 6 and g.m == 11)))
    res = V.suite_degree_power(n_max=7)
    assert res.checked == 1252
    assert res.violations == [
        "degree-power equality set at n=6 (m>=1) is ['Evz_', 'EznO', 'EznW'], "
        "expected the complete multipartite graphs with parts [(2, 2, 2)]",
    ]
    monkeypatch.setattr(B, "check_degree_power", stub(lambda g, eq: eq and g.n != 3))
    assert V.suite_degree_power(n_max=5).violations == [
        "degree-power equality set at n=3 (m>=1) is [], "
        "expected the complete multipartite graphs with parts [(1, 1, 1)]",
    ]
    assert V.suite_degree_power(n_max=2).violations == []


SIMONOVITS_N8 = Path(__file__).parent / "data" / "simonovits_n8.json"


def test_simonovits_map_at_n8_matches_golden(tmp_path, monkeypatch):
    """The map's ``--json`` payload at n_max = 8, byte for byte, and its n0
    histograms over the 36 chi(F) >= 4 rows."""
    out = tmp_path / "simonovits.json"
    assert main(["verify", "simonovits", "--n-max", "8", "--json", str(out)]) == 0
    assert out.read_text() == SIMONOVITS_N8.read_text()
    findings = [f["text"] for f in json.loads(out.read_text())["findings"]]
    assert findings[-2:] == [
        "n0 histogram edges over chi(F) >= 4: {4: 1, 5: 3, 6: 11, 7: 12, 8: 3, None: 6}",
        "n0 histogram q over chi(F) >= 4: {4: 1, 5: 3, 6: 4, 7: 8, None: 20}",
    ]
    # a loss at n_max undoes every earlier win: with T_{n,r} winning below
    # n = 6 only, no row has an n0
    monkeypatch.setattr(V, "_maximizers_are", lambda graph6s, parts: sum(parts[0]) < 6)
    res = V.suite_simonovits(n_max=6)
    assert res.ok and res.findings[-2:] == [
        "n0 histogram edges over chi(F) >= 4: {None: 36}",
        "n0 histogram q over chi(F) >= 4: {None: 36}",
    ]
    assert all(" n0 edges=None" in f for f in res.findings[:-2])


def _rows(res):
    return {line.split(" ")[0]: line for line in res.findings}


def test_density_suite_report_at_n8(map_n8):
    # the K3, K4 and W6 rows of the map: exact ratio lists and limit hints
    res = map_n8
    assert res.checked == 268
    assert res.violations == []
    rows = _rows(res)
    assert rows["Bw"].endswith(": ratios ['2/3', '4/6', '6/10', '9/15', '12/21', '16/28'] -> hint 0.5000")
    assert rows["C~"].endswith(": ratios ['5/6', '8/10', '12/15', '16/21', '21/28'] -> hint 0.6667")
    assert rows["E|fG"].endswith(": ratios ['12/15', '16/21', '21/28'] -> hint 0.6667")


def test_density_estimates(map_n8):
    # K3's points are (n, floor(n^2/4)) for n = 3..8
    res = map_n8
    ratios = [f"{n * n // 4}/{n * (n - 1) // 2}" for n in range(3, 9)]
    assert res.ok and _rows(res)["Bw"].endswith(f": ratios {ratios} -> hint 0.5000")
    res = V.suite_simonovits(n_max=7)
    assert res.ok and _rows(res)["C~"].endswith("-> hint 0.6667")


def _fraction_verdict(points):
    r = [Fraction(ex, pairs) for _, ex, pairs in points]
    return all(b <= a for a, b in zip(r, r[1:]))


def test_density_verdict_matches_exact_fractions():
    # every ordered pair of measured points, and each whole series, of the
    # density suite's F up to n = 8; K3 holds the exact tie 2/3 = 4/6
    rows = [(2, F.complete(3)), (3, F.complete(4)), (3, F.wheel(1, 5))]
    series = {}
    for n, _, rep in V._scans(8, rows, extremal_edges):
        series.setdefault(rep.forbidden, []).append((n, rep.ex_edges, n * (n - 1) // 2))
    assert [len(pts) for pts in series.values()] == [6, 5, 3]
    for pts in series.values():
        assert V._non_increasing(pts) == _fraction_verdict(pts) is True
        for p in pts:
            for q in pts:
                assert V._non_increasing([p, q]) == _fraction_verdict([p, q]), (p, q)
    tie = [(3, 2, 3), (4, 4, 6)]
    assert series["Bw"][:2] == tie
    for pts in (tie, tie[::-1]):
        assert V._non_increasing(pts) is True
    # quotients 2^-60 apart round to the same float 0.5, so a float
    # comparison calls the rise from a to b a tie; the verdict sees it
    n = 2 ** 31
    p0, p1 = n * (n - 1) // 2, (n + 1) * n // 2
    a, b = (n, p0 // 2, p0), (n + 1, p1 // 2 + 1, p1)
    assert a[1] / a[2] == b[1] / b[2] == 0.5 and Fraction(b[1], b[2]) > Fraction(a[1], a[2])
    assert V._non_increasing([a, b]) is _fraction_verdict([a, b]) is False
    assert V._non_increasing([b, a]) is _fraction_verdict([b, a]) is True


def test_run_suite_refuses_orders_above_the_enumeration_cap(monkeypatch):
    # refused before any sweep starts: augmenting order 9 alone takes half a minute
    def augment(n):
        raise AssertionError(f"augmented order {n}")

    monkeypatch.setattr(search, "_augment", augment)
    for name, suite in sorted(V.SUITES.items()):
        if "n_max" in inspect.signature(suite).parameters:
            with pytest.raises(ValueError, match=f"n={ENUMERATION_CAP}; got n_max={ENUMERATION_CAP + 1}"):
                V.run_suite(name, n_max=ENUMERATION_CAP + 1)
