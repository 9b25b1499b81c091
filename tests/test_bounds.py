"""Bounds ledger: per-check anchors, serialization schema, criterion params,
and the verify sweeps that fill the ledger."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qturan import bounds as B
from qturan import cli
from qturan import families as F
from qturan import verify as V
from qturan.chromatic import is_r_partite
from qturan.descent import CriterionParams, lemma_min_check
from qturan.graphs import from_edges, parse_graph6, to_graph6
from qturan.search import enumerate_graphs
from qturan.spectral import DEFAULT_TOL, Tolerance
from qturan.subgraph import is_free


def test_chain_check():
    assert all(e.equality for e in B.check_bound_chain(F.complete(4)))
    es = B.check_bound_chain(F.star(4))
    assert es[0].lhs == pytest.approx(3.0)
    assert es[0].rhs == pytest.approx(2 * math.sqrt(3), abs=1e-9)
    assert es[1].rhs == pytest.approx(4.0, abs=1e-9)
    assert es[2].rhs == 6.0
    assert all(e.holds for e in es)
    assert all(e.holds and e.equality for e in B.check_bound_chain(F.complete(1)))


def test_merris_check():
    e = B.check_merris(F.complete(5))
    assert e.equality and e.rhs == pytest.approx(8.0)
    e = B.check_merris(F.star(4))
    assert e.equality and e.rhs == pytest.approx(4.0)
    e = B.check_merris(F.cycle(6))
    assert e.equality and e.rhs == pytest.approx(4.0)
    # isolated vertices skipped in the max
    g = from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert B.check_merris(g).holds
    with pytest.raises(ValueError, match="isolated"):
        B.check_merris(F.empty(3))


def test_q_lower_degree_check():
    e, const = B.check_q_lower_degree(F.star(4))
    assert e.equality and const and e.lhs == pytest.approx(4.0)
    e, const = B.check_q_lower_degree(F.path(4))
    assert e.holds and not e.equality and not const
    # frozen oracle value: q(P4) = 2 + sqrt(2)
    assert e.rhs == pytest.approx(2 + math.sqrt(2), abs=1e-9)
    e, const = B.check_q_lower_degree(F.cycle(5))
    assert e.equality and const
    with pytest.raises(ValueError):
        B.check_q_lower_degree(F.empty(3))


def test_hofmeister_check():
    e, flag = B.check_hofmeister(F.star(4))
    assert e.equality and flag  # bipartite semiregular
    e, flag = B.check_hofmeister(F.path(4))
    assert e.holds and not e.equality and not flag
    e, flag = B.check_hofmeister(F.turan(6, 3))
    assert e.equality and flag  # regular
    e, flag = B.check_hofmeister(F.empty(4))
    assert e.equality and flag


def _brute_semiregular_bipartite(g):
    """Some side set S has every edge crossing it and constant degree on S
    and on its complement."""
    degs = g.degrees()
    for s in range(1 << g.n):
        sides = [[v for v in range(g.n) if ((s >> v) & 1) == side] for side in (0, 1)]
        if all(((s >> u) ^ (s >> v)) & 1 for u, v in g.edges()) and all(
            len({degs[v] for v in side}) <= 1 for side in sides
        ):
            return True
    return False


def test_degree_predicates_match_brute_force():
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    assert not _brute_semiregular_bipartite(F.cycle(5)) and _brute_semiregular_bipartite(F.star(4))
    for g in graphs:
        semi = _brute_semiregular_bipartite(g)
        assert B.check_hofmeister(g)[1] == (len(set(g.degrees())) == 1 or semi), to_graph6(g)
        degs = g.degrees()
        sums = [degs[u] + degs[v] for u, v in g.edges()]
        assert B.edge_degree_sums_constant(g) == all(x == sums[0] for x in sums), to_graph6(g)


def test_degree_power_check():
    e = B.check_degree_power(F.turan(6, 3), 3)
    assert e.equality and e.rhs == pytest.approx(96.0)
    e = B.check_degree_power(F.turan(7, 3), 3)
    assert e.holds and e.lhs == 148.0 and not e.equality
    e = B.check_degree_power(F.complete(4), 3)
    assert not e.holds  # negative control: K4 is not K4-free
    e = B.check_degree_power(F.empty(5), 3)
    assert e.equality and e.lhs == e.rhs == 0.0


def test_degree_power_corollary_needs_n_large():
    """For a color-critical F with chi(F) = r + 1, sum d^2 <= 2(1 - 1/r)mn
    with equality only at a regular T_{n,r} holds for n large enough, not
    at n = 8; both sides are compared in integers, r sum d^2 vs 2(r - 1)mn."""
    def sides(g, r):
        return r * sum(d * d for d in g.degrees()), 2 * (r - 1) * g.m * g.n

    # chi(W6) = 4: split(8, 3) = K3 v I5 is W6-free and meets the bound with
    # equality, yet it is not a regular Turan graph
    w6, s83 = F.wheel(1, 5), F.split(8, 3)
    assert is_free(s83, w6)
    assert sides(s83, 3) == (576, 576)
    assert F.multipartite_parts(s83) == (1, 1, 1, 5)
    # chi(B_{3,3}) = 4: T_{8,4} is B_{3,3}-free and breaks the bound
    t84 = F.turan(8, 4)
    assert is_free(t84, F.generalized_book(3, 3))
    assert sides(t84, 3) == (864, 768)


def test_fact21_margin():
    e = B.check_fact21_margin(6, 3)
    assert e.holds and e.lhs == pytest.approx(12.0, abs=1e-8) and e.rhs == 13.0
    e = B.check_fact21_margin(7, 3)
    assert e.holds and e.rhs == 17.0
    for n in (5, 40, 100):
        assert B.check_fact21_margin(n, 2).holds


@pytest.mark.parametrize(
    "n, r, lhs, rhs, slack",
    [
        (4, 2, "0x1.0000000000000p+2", "0x1.4000000000000p+2", "0x1.0000000000000p+0"),
        (7, 3, "0x1.03b29b4b2fd5cp+4", "0x1.1000000000000p+4", "0x1.89ac969a05480p-1"),
        (77, 5, "0x1.2867bc9d89266p+11", "0x1.2880000000000p+11", "0x1.8436276d9a000p-1"),
        (300, 12, "0x1.4244000000000p+15", "0x1.4246000000000p+15", "0x1.0000000000000p+0"),
    ],
)
def test_fact21_margin_pinned_bits(n, r, lhs, rhs, slack):
    e = B.check_fact21_margin(n, r)
    assert (e.lhs.hex(), e.rhs.hex(), e.slack.hex()) == (lhs, rhs, slack)
    assert e.holds and not e.equality


def test_fact21_margin_decided_exactly_to_ten_thousand():
    # integer verdict, no float in the way: (n/4) q(T_{n,r}) < e(T_{n,r}) + 1
    checked = 0
    for n in range(3, 10_001):
        for r in range(2, min(n, 12) + 1):
            assert B.fact21_margin_exact(n, r), (n, r)
            checked += 1
    assert checked == 109_933
    with pytest.raises(ValueError):
        B.fact21_margin_exact(5, 1)


def test_criterion_params():
    p = CriterionParams(r=3)
    assert (p.epsilon, p.r) == (0.1, 3) and p == CriterionParams()
    assert p.pi == pytest.approx(2 / 3)
    with pytest.raises(ValueError, match="epsilon"):
        CriterionParams(epsilon=0.7, r=3)
    with pytest.raises(ValueError, match="r must"):
        CriterionParams(epsilon=0.1, r=1)


def test_min_degree_stability_predicate():
    # premise fires (delta = 6 > 5n/8) and T_{9,3} is 3-partite
    assert B.check_min_degree_stability(F.turan(9, 3), 3) is True
    # delta * 5 = 2n exactly: the strict premise is false, so the implication holds
    assert B.check_min_degree_stability(F.cycle(5), 2) is True
    # premise fires (delta = 2 > 2n/5) and K_3 is not bipartite
    assert B.check_min_degree_stability(F.complete(3), 2) is False


def test_andrasfai_erdos_sos_bound_with_its_equality_cases():
    # a K_{r+1}-free graph that is not r-partite has
    # delta <= (3r - 4) n / (3r - 1) (Andrasfai-Erdos-Sos, 1974); decided
    # exactly, with its only equality cases at n <= 8 pinned
    at_or_over = []
    for n in range(1, 9):
        for g in enumerate_graphs(n):
            delta = min(g.degrees())
            for r in (2, 3, 4):
                bound = Fraction((3 * r - 4) * n, 3 * r - 1)
                if delta >= bound and is_free(g, F.complete(r + 1)) and not is_r_partite(g, r):
                    at_or_over.append((r, to_graph6(g).decode(), delta == bound))
    assert at_or_over == [(2, "Dhc", True), (3, "Gzl]\\k", True)]


def test_facts():
    assert B.check_fact1(0.5, 0.25)
    assert B.check_fact1(0.999, 0.499)
    assert B.check_fact1(1e-12, 0.4)  # limit a -> 0: x^2 > 0
    with pytest.raises(ValueError):
        B.check_fact1(1.5, 0.2)
    with pytest.raises(ValueError):
        B.check_fact1(0.5, 0.7)
    assert B.check_fact2(2.0)
    assert B.check_fact2(1.001)
    assert B.check_fact2(1e6)
    with pytest.raises(ValueError):
        B.check_fact2(1.0)


@given(
    st.floats(min_value=1e-9, max_value=1 - 1e-9, exclude_min=True, exclude_max=True),
    st.floats(min_value=1e-9, max_value=0.5 - 1e-9, exclude_min=True, exclude_max=True),
)
@settings(max_examples=300, deadline=None)
def test_fact1_property(a, x):
    assert B.check_fact1(a, x)


@given(st.floats(min_value=1 + 1e-9, max_value=1e15))
@settings(max_examples=300, deadline=None)
def test_fact2_property(x):
    assert B.check_fact2(x)


def test_report_serialization_schema(tmp_path):
    entries = B.check_bound_chain(F.complete(3)) + [B.check_merris(F.complete(3))]
    rep = B.BoundReport("Bw", entries)
    rows = _csv([rep], tmp_path).splitlines()
    assert rows[0] == "graph6,bound_name,lhs,rhs,slack,holds,equality"
    assert len(rows) == 5
    assert rows[-1].startswith("Bw,merris,")
    assert all(e.holds for e in entries)


def test_bound_entry_is_an_immutable_hashable_record():
    e = B.check_fact21_margin(7, 3)
    for name in B.BoundEntry._fields:
        with pytest.raises(AttributeError):
            setattr(e, name, None)
    assert hash(e) == hash(B.check_fact21_margin(7, 3))
    assert len({e, B.check_fact21_margin(7, 3), B.check_fact21_margin(8, 3)}) == 2
    want = {
        "graph6": "Bw",
        "bound_name": "probe",
        "lhs": 1.5,
        "rhs": 2.0,
        "slack": 0.5,
        "holds": True,
        "equality": False,
    }
    by_keyword = B.BoundEntry(name="probe", lhs=1.5, rhs=2.0, slack=0.5, holds=True, equality=False)
    rec = cli._record("Bw", by_keyword)
    assert rec == want and list(rec) == list(want)
    built = B._entry("probe", 1.5, 2.0, DEFAULT_TOL)
    assert built == by_keyword
    assert B.BoundEntry._fields == ("name", "lhs", "rhs", "slack", "holds", "equality")


# -- the bound sweeps of qturan.verify ------------------------------------------


def _csv(reports, tmp_path):
    """The bytes ``verify --csv`` writes for ``reports``."""
    path = tmp_path / "reports.csv"
    cli._write_csv(str(path), reports)
    return path.read_bytes().decode()


def test_suite_reports_follow_enumeration_order():
    res = V.suite_hofmeister(n_max=6, collect_reports=True)
    want = [to_graph6(g).decode() for n in range(1, 7) for g in enumerate_graphs(n)]
    assert res.checked == len(want) == len(res.reports)
    assert [r.graph_id for r in res.reports] == want


def test_entry_suites_use_the_given_tolerance(tmp_path):
    # at cmp_tol 0.5 every slack within 0.5 is an equality, so the ledger
    # must match the checks called directly with that tolerance
    loose = Tolerance(cmp_tol=0.5)
    direct = {
        "chain": lambda g: B.check_bound_chain(g, loose),
        "merris": lambda g: [B.check_merris(g, loose)],
        "lower-degree": lambda g: [B.check_q_lower_degree(g, loose)[0]],
        "hofmeister": lambda g: [B.check_hofmeister(g, loose)[0]],
    }
    for suite, check in direct.items():
        res = V.run_suite(suite, n_max=5, tol=loose, collect_reports=True)
        want = [B.BoundReport(r.graph_id, check(parse_graph6(r.graph_id.encode()))) for r in res.reports]
        assert _csv(res.reports, tmp_path) == _csv(want, tmp_path), suite
    chain = V.suite_chain(n_max=5, tol=loose, collect_reports=True)
    assert sum(e.equality for r in chain.reports for e in r.entries) == 104
    chain = V.suite_chain(n_max=5, collect_reports=True)
    assert sum(e.equality for r in chain.reports for e in r.entries) == 54


def test_lemma_min_suite_uses_the_given_tolerance(monkeypatch):
    # at cmp_tol 1e-18 the rounding-level negative slacks of a few graphs
    # (equality cases of the bound) count as violations
    strict = Tolerance(cmp_tol=1e-18)
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    want = [to_graph6(g).decode() for g in graphs if lemma_min_check(g) < -strict.cmp_tol]
    assert want
    res = V.suite_lemma_min(n_max=5, tol=strict, samples=0)
    assert [v.split(":")[0] for v in res.violations] == want
    assert not V.suite_lemma_min(n_max=5, samples=0).violations


def test_degree_power_suite_uses_the_given_tolerance():
    # K2: sum d^2 = 2 lies 2/3 below 2(1 - 1/3)mn = 8/3, an equality at cmp_tol 1
    res = V.suite_degree_power(n_max=6, tol=Tolerance(cmp_tol=1.0))
    assert res.violations == [
        "degree-power equality set at n=2 (m>=1) is ['A_'], "
        "expected the complete multipartite graphs with parts []",
        "degree-power equality set at n=4 (m>=1) is ['C}'], "
        "expected the complete multipartite graphs with parts []",
    ]
    assert not V.suite_degree_power(n_max=6).violations


def test_run_suite_refuses_unknown_keywords():
    # a misspelt keyword must not be swallowed: "sample" would draw the
    # default 1,000 samples and "cmp_tol" would run at the default tolerance
    with pytest.raises(TypeError, match="sample"):
        V.run_suite("lemma-min", n_max=3, sample=0)
    with pytest.raises(TypeError, match="cmp_tol"):
        V.run_suite("chain", n_max=3, cmp_tol=0.5)
    with pytest.raises(TypeError):
        V.suite_chain(n_max=3, cmp_tol=0.5)
    # nor is a keyword the suite's signature lacks: run_suite passes on all it is given
    with pytest.raises(TypeError, match="'r'"):
        V.run_suite("graph6", n_max=3, r=2)
