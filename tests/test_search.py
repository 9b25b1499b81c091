"""Enumeration, corpus ingestion, extremal scans, density, min-degree families."""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import burnside_graph_count, labeled_orbit_count
from qturan import _kernels
from qturan import families as F
from qturan import search as S
from qturan import spectral
from qturan import verify as V
from qturan.bounds import CriterionParams
from qturan.graphs import (
    Graph,
    Graph6Error,
    canonical_form,
    delete_vertex,
    from_edges,
    is_isomorphic,
    parse_graph6,
    to_graph6,
)
from qturan.search import (
    SearchReport,
    _classes,
    count_classes,
    enumerate_graphs,
    extremal_edges,
    extremal_q,
    ingest_corpus,
    min_degree_family,
    sample_gnp,
    turan_density_estimate,
)
from qturan.spectral import DEFAULT_TOL, Tolerance, q_value, turan_q
from qturan.subgraph import is_free


def test_counts_match_both_independent_oracles():
    # Burnside (cycle-index) count for 1..8; labeled union-find for 1..6
    assert [burnside_graph_count(n) for n in range(1, 9)] == [
        1, 2, 4, 11, 34, 156, 1044, 12346,
    ]
    for n in range(1, 7):
        assert count_classes(n) == labeled_orbit_count(n)
    for n in range(1, 9):
        assert count_classes(n) == burnside_graph_count(n)


def test_enumeration_is_isomorph_free_and_deterministic():
    for n in range(1, 8):
        graphs = list(enumerate_graphs(n))
        forms = {g.rows for g in graphs}
        assert len(forms) == len(graphs)
        assert list(enumerate_graphs(n)) == graphs  # stable order
        for g in graphs:
            assert g.n == n
            assert canonical_form(g) == g.rows


def _unfiltered_classes(n):
    # canonical augmentation without the degree and orbit filters of
    # search._classes: every child of every parent is labeled
    if n == 1:
        return (Graph(1, (0,)),)
    out = []
    k = n - 1
    for parent in _unfiltered_classes(k):
        seen = set()
        prows = parent.rows
        for subset in range(1 << k):
            rows = list(prows)
            for j in range(k):
                if (subset >> j) & 1:
                    rows[j] |= 1 << k
            rows.append(subset)
            child = tuple(rows)
            order, canon, _ = _kernels.canonical_labeling(n, child)
            if canon in seen:
                continue
            last = order[n - 1]
            if last == k or canonical_form(delete_vertex(Graph(n, child), last)) == prows:
                seen.add(canon)
                out.append(Graph(n, canon))
    return tuple(out)


def test_filtered_augmentation_matches_unfiltered_reference():
    for n in range(1, 8):
        assert _classes(n) == _unfiltered_classes(n), n


# SHA-256 of repr([g.rows for g in _classes(8)]) as produced before the
# orbit filters; classes and their order must not move
ORDER_8_DIGEST = "412d11866faedee90b20e3e4831176484b5b3e209db0f5cefb5736b34994b77b"


def test_order_8_class_sequence_is_pinned():
    rows = [g.rows for g in _classes(8)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == ORDER_8_DIGEST


def test_order_7_labeling_count_is_pinned(monkeypatch):
    # the orbit filter and orbit acceptance fix the number of labelings; a
    # silent loss of either shows here as a larger count
    _classes(6)
    orders = []
    inner = _kernels.canonical_labeling

    def counted(n, rows):
        orders.append(n)
        return inner(n, rows)

    monkeypatch.setattr(_kernels, "canonical_labeling", counted)
    assert len(_classes.__wrapped__(7)) == 1044
    assert len(orders) == 1608


def test_enumeration_cap_directs_to_corpus():
    with pytest.raises(ValueError, match="ingest_corpus"):
        list(enumerate_graphs(10))


def test_count_classes_checks_the_order_before_enumerating(monkeypatch):
    def refused(n):
        raise AssertionError(f"enumerated order {n}")

    monkeypatch.setattr(S, "_classes", refused)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        count_classes(-1)
    with pytest.raises(ValueError, match="capped at n=9; use ingest_corpus"):
        count_classes(10)


def test_ingest_corpus(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_bytes(b"A_\nBw\n\n")
    got = list(ingest_corpus(str(path)))
    assert got == [F.complete(2), F.complete(3)]
    path.write_bytes(b"")
    assert list(ingest_corpus(str(path))) == []
    # a malformed line aborts the stream with its line number
    path.write_bytes(b"A_\n!!bad!!\nBw\n")
    with pytest.raises(Graph6Error, match="line 2"):
        list(ingest_corpus(str(path)))


def test_corpus_dir_env(tmp_path, monkeypatch):
    sub = tmp_path / "corpora"
    sub.mkdir()
    (sub / "two.g6").write_bytes(b"A_\n")
    monkeypatch.setenv("QTURAN_CORPUS_DIR", str(sub))
    assert list(ingest_corpus("two.g6")) == [F.complete(2)]


def test_mantel_and_turan_edge_searches():
    rep = extremal_edges(5, F.complete(3))
    assert rep.ex_edges == 6 and rep.scanned == 34
    assert len(rep.extremal_graphs) == 1
    assert is_isomorphic(parse_graph6(rep.extremal_graphs[0]), F.turan(5, 2))
    rep = extremal_edges(7, F.complete(4))
    assert rep.ex_edges == 16
    assert len(rep.extremal_graphs) == 1
    assert is_isomorphic(parse_graph6(rep.extremal_graphs[0]), F.turan(7, 3))


def test_w6_edge_search_report_only():
    rep = extremal_edges(6, F.wheel(1, 5))
    # report-only regime: value recorded, every winner is W6-free
    assert rep.ex_edges is not None and rep.scanned == 156
    for g6 in rep.extremal_graphs:
        assert is_free(parse_graph6(g6), F.wheel(1, 5))


def test_extremal_q_r2_and_r3():
    rep = extremal_q(6, F.complete(3))
    assert rep.max_q == pytest.approx(6.0, abs=1e-9)
    got = [parse_graph6(g) for g in rep.extremal_graphs]
    assert len(got) == 3  # K_{1,5}, K_{2,4}, K_{3,3}
    for g in got:
        assert any(is_isomorphic(g, F.complete_bipartite(a, 6 - a)) for a in (1, 2, 3))
    rep = extremal_q(6, F.complete(4))
    assert rep.max_q == pytest.approx(8.0, abs=1e-9)
    assert len(rep.extremal_graphs) == 1
    assert is_isomorphic(parse_graph6(rep.extremal_graphs[0]), F.turan(6, 3))


def test_search_report_json():
    rep = extremal_edges(5, F.complete(3))
    payload = json.loads(rep.to_json())
    for key in ("n", "forbidden", "mode", "ex_edges", "max_q", "extremal_graphs", "scanned", "elapsed"):
        assert key in payload


def test_density_estimates():
    de = turan_density_estimate(F.complete(3), 8)
    assert [(n, ex) for n, ex, _ in de.points] == [(n, n * n // 4) for n in range(3, 9)]
    assert de.non_increasing()
    assert de.limit_hint == pytest.approx(0.5)
    de = turan_density_estimate(F.complete(4), 7)
    assert de.non_increasing() and de.limit_hint == pytest.approx(2 / 3)
    payload = json.loads(de.to_json())
    assert payload["non_increasing"] is True


def test_min_degree_family():
    out = min_degree_family(6, F.complete(3), CriterionParams.default(r=2))
    assert out["turan_in_family"] and not out["family_empty"]
    assert out["max_q"] == pytest.approx(6.0, abs=1e-9)
    assert any(
        is_isomorphic(parse_graph6(g), F.complete_bipartite(3, 3)) for g in out["maximizers"]
    )
    out = min_degree_family(7, F.complete(4), CriterionParams.default(r=3))
    assert out["turan_in_family"]
    assert out["max_q"] == pytest.approx(q_value(F.turan(7, 3)), abs=1e-9)
    # a tiny epsilon empties the family at small n
    strict = CriterionParams(epsilon=1e-3, sigma=1e-6, r=3)
    out = min_degree_family(4, F.complete(4), strict)
    assert out["family_empty"]


def test_sample_gnp_deterministic():
    a = sample_gnp(12, 0.4, random.Random(99))
    b = sample_gnp(12, 0.4, random.Random(99))
    assert a == b


def _without_elapsed(rep):
    return {k: v for k, v in vars(rep).items() if k != "elapsed"}


# -- ranked scans against the unranked loop ----------------------------------------


def _unranked_edges(n, f, corpus=None, tol=DEFAULT_TOL):
    """extremal_edges as a plain loop: containment on every graph of the
    source, in source order."""
    graphs = _source(n, corpus)
    best, winners = -1, []
    for g in graphs:
        if g.m < best or not is_free(g, f):
            continue
        if g.m > best:
            best, winners = g.m, [g]
        else:
            winners.append(g)
    return SearchReport(
        n=n,
        forbidden=to_graph6(f).decode("ascii"),
        mode="edges",
        ex_edges=best if best >= 0 else None,
        max_q=max((q_value(g, tol) for g in winners), default=None),
        extremal_graphs=[to_graph6(g).decode("ascii") for g in winners],
        scanned=len(graphs),
        elapsed=0.0,
    )


def _unranked_q(n, f, corpus=None, tol=DEFAULT_TOL, min_degree_above=None):
    """extremal_q as a plain loop: containment and q_value on every graph of
    the source, the accumulate rule in source order, then the re-solve of
    the tied set."""
    graphs = _source(n, corpus)
    best, winners = float("-inf"), []
    for g in graphs:
        if min_degree_above is not None and (not g.n or min(g.degrees()) <= min_degree_above):
            continue
        if not is_free(g, f):
            continue
        q = q_value(g, tol)
        if q > best + tol.cmp_tol:
            best, winners = q, [g]
        elif q >= best - tol.cmp_tol:
            winners.append(g)
            best = max(best, q)
    if winners:
        fine = Tolerance(eig_tol=tol.eig_tol / 100, cmp_tol=tol.cmp_tol)
        refined = [(q_value(g, fine), g) for g in winners]
        best = max(q for q, _ in refined)
        winners = [g for q, g in refined if q >= best - tol.cmp_tol]
    return SearchReport(
        n=n,
        forbidden=to_graph6(f).decode("ascii"),
        mode="q",
        ex_edges=max((g.m for g in winners), default=None),
        max_q=best if winners else None,
        extremal_graphs=[to_graph6(g).decode("ascii") for g in winners],
        scanned=len(graphs),
        elapsed=0.0,
    )


def _source(n, corpus):
    if corpus is None:
        return list(enumerate_graphs(n))
    return [g for g in ingest_corpus(corpus) if g.n == n]


_SCAN_TARGETS = [
    F.complete(3),
    F.complete(4),
    F.complete(5),
    F.complete(6),
    F.cycle(5),
    F.wheel(1, 5),
    F.generalized_book(3, 2),
    F.kst_plus(2, 3),
    from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),  # 2K3
]


def test_ranked_scans_match_unranked_loop():
    for n in range(1, 8):
        for f in _SCAN_TARGETS:
            tag = (n, to_graph6(f))
            assert _without_elapsed(extremal_edges(n, f)) == _without_elapsed(_unranked_edges(n, f)), tag
            for above in (None, 0, 0.45 * n):
                got = extremal_q(n, f, min_degree_above=above)
                assert _without_elapsed(got) == _without_elapsed(
                    _unranked_q(n, f, min_degree_above=above)
                ), (tag, above)


def test_narrow_brackets_replace_the_default_tolerance_solves(monkeypatch):
    """Every class that ``suite_q_turan(n_max=7)`` visits has a bracket
    narrower than eig_tol, so no eigensolve decides a class; the only solves
    are the 21 ``q_value`` calls on the maximizers that set ``max_q``, all at
    the given eig_tol."""
    solves = []
    inner = spectral._solve_radius

    def counted(g, mode, eig_tol):
        solves.append(eig_tol)
        return inner(g, mode, eig_tol)

    monkeypatch.setattr(spectral, "_solve_radius", counted)
    spectral._solve_cached.cache_clear()
    assert V.suite_q_turan(n_max=7).ok
    assert solves.count(DEFAULT_TOL.eig_tol) == 21
    assert solves.count(DEFAULT_TOL.eig_tol / 100) == 0


@pytest.fixture
def fresh_brackets():
    """An empty bracket cache before and after the test, so that a patched
    ``q_bracket`` neither reads nor leaves cached brackets."""
    S._cached_bracket.cache_clear()
    yield
    S._cached_bracket.cache_clear()


def test_wide_brackets_defer_to_q_value(monkeypatch, fresh_brackets):
    """A bracket wider than eig_tol never decides a class: with the lower
    end of every bracket a scan takes lowered by a seeded amount up to 1e-6
    (still rigorous, the order untouched), the scans still match the
    unranked loop."""
    rng = np.random.default_rng(5)
    inner = S.q_bracket

    def widened(g):
        lo, hi = inner(g)
        return lo - rng.uniform(0.0, 1e-6), hi

    monkeypatch.setattr(S, "q_bracket", widened)
    for n in range(4, 8):
        for f in _SCAN_TARGETS:
            for above in (None, 0.45 * n):
                got = extremal_q(n, f, min_degree_above=above)
                want = _unranked_q(n, f, min_degree_above=above)
                assert _without_elapsed(got) == _without_elapsed(want), (n, to_graph6(f), above)


def test_scans_bracket_only_the_classes_they_decide(monkeypatch, fresh_brackets):
    """The ranking needs no bracket: during ``suite_q_turan(n_max=7)`` and
    the W6 and B_{3,2} scans at order 7, each visited F-free class gets one
    tight bracket, however many of the scans at its order visit it."""
    bracketed = []
    inner_bracket = S.q_bracket

    def counted(g):
        bracketed.append(g)
        return inner_bracket(g)

    decided = []
    inner_free = S.is_free

    def free(g, f):
        ok = inner_free(g, f)
        if ok:
            decided.append(g)
        return ok

    monkeypatch.setattr(S, "q_bracket", counted)
    monkeypatch.setattr(S, "is_free", free)
    assert V.suite_q_turan(n_max=7).ok
    assert (len(bracketed), len(decided)) == (21, 21)
    extremal_q(7, F.wheel(1, 5))
    extremal_q(7, F.generalized_book(3, 2))
    assert len(bracketed) == len(set(bracketed)) and set(bracketed) == set(decided)
    assert (len(decided), len(set(decided))) == (23, 22)


def test_ranked_scans_match_unranked_loop_on_mixed_corpus(tmp_path):
    # orders 4..7 interleaved, each class under a random relabeling, plus
    # relabeled duplicates whose q can differ from the original in the last
    # bits, so that ties are decided at cmp_tol
    rng = random.Random(17)
    graphs = []
    for n in range(4, 8):
        for g in enumerate_graphs(n):
            graphs.append(_relabeled(g, rng))
            if rng.random() < 0.2:
                graphs.append(_relabeled(g, rng))
    rng.shuffle(graphs)
    path = tmp_path / "mixed.g6"
    path.write_bytes(b"".join(to_graph6(g) + b"\n" for g in graphs))
    corpus = str(path)
    for n in range(4, 8):
        for f in _SCAN_TARGETS:
            tag = (n, to_graph6(f))
            got = extremal_edges(n, f, corpus=corpus)
            assert _without_elapsed(got) == _without_elapsed(_unranked_edges(n, f, corpus)), tag
            for above in (None, 0.45 * n):
                got = extremal_q(n, f, corpus=corpus, min_degree_above=above)
                want = _unranked_q(n, f, corpus, min_degree_above=above)
                assert _without_elapsed(got) == _without_elapsed(want), (tag, above)
    assert extremal_q(8, F.complete(3), corpus=corpus).scanned == 0


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# -- golden reports ----------------------------------------------------------------

GOLDEN_REPORTS = Path(__file__).parent / "data" / "scan_reports_n7.json"


def _suite_q_turan_reports(monkeypatch, n_max):
    """The scan reports (minus ``elapsed``) that ``suite_q_turan(n_max)``
    makes, in scan order; the suite must pass."""
    reports = []
    inner = V.extremal_q

    def recorded(*args, **kwargs):
        rep = inner(*args, **kwargs)
        reports.append(_without_elapsed(rep))
        return rep

    monkeypatch.setattr(V, "extremal_q", recorded)
    assert V.suite_q_turan(n_max=n_max).ok
    return reports


def test_scan_reports_match_golden(monkeypatch):
    """Reports (minus ``elapsed``) written by the unranked scans that the
    ranked ones replaced, compared as text, byte for byte."""
    payload = {
        "suite_q_turan(n_max=7)": _suite_q_turan_reports(monkeypatch, 7),
        "extremal_q(7, wheel(1,5))": _without_elapsed(extremal_q(7, F.wheel(1, 5))),
        "extremal_q(7, generalized_book(3,2))": _without_elapsed(extremal_q(7, F.generalized_book(3, 2))),
        "extremal_edges(7, complete(4))": _without_elapsed(extremal_edges(7, F.complete(4))),
    }
    assert json.dumps(payload, indent=2) + "\n" == GOLDEN_REPORTS.read_text()


# SHA-256 of the order-8 reports below, pinned from the scans whose max_q is
# the eigh q of each maximizer
SCAN_REPORTS_N8_DIGEST = "a26ff75ba1561ec756e56034edb4b1f148403f2a16f7a2d2d9683eb4b71fb03c"


def test_order_8_scan_reports_match_digest(monkeypatch):
    """The golden file stops at order 7; the order-8 reports (minus
    ``elapsed``), as the same JSON text, must hash to the pinned digest."""
    payload = {
        "suite_q_turan(n_max=8)": _suite_q_turan_reports(monkeypatch, 8),
        "extremal_q(8, wheel(1,5))": _without_elapsed(extremal_q(8, F.wheel(1, 5))),
        "extremal_q(8, generalized_book(3,2))": _without_elapsed(extremal_q(8, F.generalized_book(3, 2))),
        "extremal_q(8, kst_plus(2,3))": _without_elapsed(extremal_q(8, F.kst_plus(2, 3))),
    }
    text = json.dumps(payload, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SCAN_REPORTS_N8_DIGEST


def test_suite_q_turan_judges_with_cmp_tol(monkeypatch):
    """A q-max off q(T_{4,3}) by 5e-10 passes at the default cmp_tol of 1e-9
    and is a violation at cmp_tol = 1e-10."""

    def stubbed(n, f, tol=DEFAULT_TOL):
        r = f.n - 1
        turan = to_graph6(F.turan(n, r)).decode("ascii")
        return SearchReport(n, to_graph6(f).decode("ascii"), "q", None, turan_q(n, r) + 5e-10, [turan], 0, 0.0)

    monkeypatch.setattr(V, "extremal_q", stubbed)
    assert V.suite_q_turan(n_max=4, r=3).ok
    res = V.suite_q_turan(n_max=4, r=3, tol=Tolerance(cmp_tol=1e-10))
    assert res.checked == 1
    assert len(res.violations) == 1 and "!= q(T)" in res.violations[0]
