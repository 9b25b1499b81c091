"""Bounds ledger: per-check anchors, serialization schema, criterion params,
and the verify sweeps that fill the ledger."""

import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from qturan import bounds as B
from qturan import families as F
from qturan import verify as V
from qturan.descent import lemma_min_check
from qturan.graphs import from_edges, parse_graph6, to_graph6
from qturan.search import enumerate_graphs
from qturan.spectral import DEFAULT_TOL, Tolerance, q_value


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


def test_semiregular_bipartite_predicate():
    assert B.is_semiregular_bipartite(F.complete_bipartite(2, 5))
    assert B.is_semiregular_bipartite(F.cycle(6))
    assert not B.is_semiregular_bipartite(F.cycle(5))
    assert not B.is_semiregular_bipartite(F.path(4))
    two_stars = from_edges(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
    assert B.is_semiregular_bipartite(two_stars)
    mixed = from_edges(6, [(0, 1), (0, 2), (3, 4)])  # K_{1,2} + K_2
    assert not B.is_semiregular_bipartite(mixed)
    assert not B.is_semiregular_bipartite(from_edges(3, [(0, 1)]))  # isolated + edge


def test_degree_power_check():
    es = B.check_degree_power(F.turan(6, 3), 3)
    assert es[0].equality and es[0].rhs == pytest.approx(96.0)
    assert es[1].equality  # (2/3)^2 * 216 = 96
    es = B.check_degree_power(F.turan(7, 3), 3)
    assert es[0].holds and es[0].lhs == 148.0 and not es[0].equality
    es = B.check_degree_power(F.complete(4), 3)
    assert not es[0].holds  # negative control: K4 is not K4-free
    es = B.check_degree_power(F.empty(5), 3)
    assert es[0].equality and es[0].lhs == es[0].rhs == 0.0


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
    assert e.holds and not e.equality and not e.report_only and e.note == ""


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
    p = B.CriterionParams.default(r=3)
    assert p.pi == pytest.approx(2 / 3)
    with pytest.raises(ValueError, match="sigma"):
        B.CriterionParams(epsilon=0.1, sigma=0.01, r=3)
    with pytest.raises(ValueError, match="epsilon"):
        B.CriterionParams(epsilon=0.7, sigma=0.001, r=3)
    with pytest.raises(ValueError, match="r must"):
        B.CriterionParams(epsilon=0.1, sigma=0.001, r=1)


def test_dl1_dl2_checks():
    params = B.CriterionParams.default(r=3)
    ex = {n: F.turan_edges(n, 3) for n in range(3, 101)}
    # the integer identity behind the deviation bound
    for n in range(4, 101):
        assert ex[n] - ex[n - 1] == n - -(n // -3)
        assert B.check_dl1(ex, params, n).lhs < 1.0
    with pytest.raises(ValueError):
        B.check_dl1({5: 6}, params, 5)
    assert B.check_dl2(8.0, 12, params, 6).lhs < 1e-12
    e = B.check_dl2(q_value(F.turan(7, 3)), 16, params, 7)
    assert e.lhs == pytest.approx(abs(9.274917217635373 - 64 / 7), abs=1e-9)
    # degenerate sigma = 0 fails unless the deviation vanishes
    p0 = B.CriterionParams(epsilon=0.1, sigma=0.0, r=3)
    assert not B.check_dl1(ex, p0, 7).holds
    assert B.check_dl1(ex, p0, 6).holds  # 3 | 6: deviation exactly 0


def test_qn_and_beg_are_report_only():
    params = B.CriterionParams.default(r=3)
    e = B.check_qn_estimate(8.0, params, 6)
    assert e.report_only and e.rhs is None and e.lhs < 1e-12
    e = B.check_qn_estimate(q_value(F.turan(7, 3)), params, 7)
    assert e.lhs > 0
    e = B.check_beg_gap(q_value(F.turan(7, 3)), 8.0, params)
    assert e.report_only
    huge = B.CriterionParams(epsilon=0.4, sigma=0.01, r=3)
    assert B.check_beg_gap(100.0, 0.0, huge).holds is False  # recorded, not asserted


def test_min_degree_stability_entry():
    e = B.check_min_degree_stability(F.turan(9, 3), 3)
    assert e.holds and "r_partite=True" in e.note
    e = B.check_min_degree_stability(F.cycle(5), 2)
    assert e.holds and "vacuous" in e.note  # delta = 2 is not strictly above 2n/5


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


def test_report_serialization_schema():
    rep = B.BoundReport("Bw")
    rep.extend(B.check_bound_chain(F.complete(3)))
    rep.extend(B.check_qn_estimate(4.0, B.CriterionParams.default(2), 3))
    lines = rep.to_jsonl().splitlines()
    assert len(lines) == 4
    for line in lines:
        rec = json.loads(line)
        for key in ("graph6", "bound_name", "lhs", "rhs", "slack", "holds", "equality"):
            assert key in rec
    assert json.loads(lines[-1])["reportOnly"] is True
    buf = io.StringIO()
    B.write_reports_csv([rep], buf)
    rows = buf.getvalue().splitlines()
    assert rows[0] == "graph6,bound_name,lhs,rhs,slack,holds,equality"
    assert len(rows) == 5
    assert not rep.hard_violations()


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
        "reportOnly": True,
        "note": "premise=False (vacuous)",
    }
    built = B._entry("probe", 1.5, 2.0, DEFAULT_TOL, report_only=True, note="premise=False (vacuous)")
    by_keyword = B.BoundEntry(
        name="probe", lhs=1.5, rhs=2.0, slack=0.5, holds=True, equality=False,
        report_only=True, note="premise=False (vacuous)",
    )
    for entry in (built, by_keyword):
        rec = entry.as_record("Bw")
        assert rec == want and list(rec) == list(want)
    bare = B.BoundEntry("x", 1.0, None, None, True, False)
    assert (bare.report_only, bare.note) == (False, "")
    assert list(bare.as_record("A_")) == ["graph6", "bound_name", "lhs", "rhs", "slack", "holds", "equality"]


def test_bound_report_extend_takes_an_entry_or_a_list():
    rep = B.BoundReport("Bw")
    one = B.check_merris(F.complete(3))
    rep.extend(one)
    assert rep.entries == [one]
    chain = B.check_bound_chain(F.complete(3))
    rep.extend(chain)
    assert rep.entries == [one] + chain
    assert all(isinstance(e, B.BoundEntry) for e in rep.entries)


# -- the bound sweeps of qturan.verify ------------------------------------------


def _csv(reports):
    buf = io.StringIO()
    B.write_reports_csv(reports, buf)
    return buf.getvalue()


def test_suite_reports_follow_enumeration_order():
    res = V.suite_hofmeister(n_max=6, collect_reports=True)
    want = [to_graph6(g).decode() for n in range(1, 7) for g in enumerate_graphs(n)]
    assert res.checked == len(want) == len(res.reports)
    assert [r.graph_id for r in res.reports] == want


def test_entry_suites_use_the_given_tolerance():
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
        assert _csv(res.reports) == _csv(want), suite
    chain = V.suite_chain(n_max=5, tol=loose, collect_reports=True)
    assert sum(e.equality for r in chain.reports for e in r.entries) == 104
    chain = V.suite_chain(n_max=5, collect_reports=True)
    assert sum(e.equality for r in chain.reports for e in r.entries) == 54


def test_lemma_min_suite_uses_the_given_tolerance(monkeypatch):
    # at cmp_tol 1e-18 the rounding-level negative slacks of a few graphs
    # (equality cases of the bound) count as violations
    strict = Tolerance(cmp_tol=1e-18)
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    want = [to_graph6(g).decode() for g in graphs if lemma_min_check(g, strict) < -strict.cmp_tol]
    assert want
    tols = []

    def recorded(g, tol):
        tols.append(tol)
        return lemma_min_check(g, tol)

    monkeypatch.setattr(V, "lemma_min_check", recorded)
    res = V.suite_lemma_min(n_max=5, tol=strict, samples=0)
    assert [v.split(":")[0] for v in res.violations] == want
    assert len(tols) == len(graphs) and all(t is strict for t in tols)
    assert not V.suite_lemma_min(n_max=5, samples=0).violations


def test_degree_power_suite_uses_the_given_tolerance():
    # K2: sum d^2 = 2 lies 2/3 below 2(1 - 1/3)mn = 8/3, an equality at cmp_tol 1
    res = V.suite_degree_power(n_max=6, tol=Tolerance(cmp_tol=1.0))
    assert res.violations[0].startswith("A_: degree-power equality")
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
    # the CLI's common keywords reach only the suites whose signature names them
    res = V.run_suite("graph6", n_max=3, r=2, tol=DEFAULT_TOL, collect_reports=True)
    assert res.ok and res.checked == (1 + 2 + 4) + 3
    assert V.run_suite("lemma-min", n_max=3, r=None, samples=0).checked == 7
