"""Enumeration, corpus ingestion, extremal scans, density, min-degree families."""

import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import burnside_graph_count, labeled_orbit_count
from qturan import _kernels
from qturan import families as F
from qturan import search as S
from qturan import spectral
from qturan import verify as V
from qturan.cli import main
from qturan.descent import CriterionParams
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
    _augment,
    _classes,
    count_classes,
    enumerate_graphs,
    extremal_edges,
    extremal_lambda,
    extremal_q,
    ingest_corpus,
    sample_gnp,
)
from qturan.spectral import DEFAULT_TOL, Tolerance, lambda_value, q_value, turan_q
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
    assert _classes(1) == _unfiltered_classes(1)
    for n in range(2, 8):
        assert _augment(n) == _unfiltered_classes(n), n


def _catalogue_lines(n):
    return (Path(S.CATALOGUE_DIR) / f"graphs{n}.g6").read_bytes().splitlines()


def test_augmentation_regenerates_every_catalogue_file():
    # each shipped order is exactly what augmenting the shipped order below
    # produces, line for line
    assert _catalogue_lines(1) == [b"@"]
    for n in range(2, S.CATALOGUE_MAX + 1):
        assert [to_graph6(g) for g in _augment(n)] == _catalogue_lines(n), n


def test_a_short_or_missing_catalogue_file_is_an_error(monkeypatch, tmp_path):
    (tmp_path / "graphs5.g6").write_bytes(b"\n".join(_catalogue_lines(5)[:-1]) + b"\n")
    monkeypatch.setattr(S, "CATALOGUE_DIR", str(tmp_path))
    with pytest.raises(ValueError, match="holds 33 graphs, not the 34 classes of order 5"):
        S._order.__wrapped__(5)
    with pytest.raises(FileNotFoundError):
        S._order.__wrapped__(4)


def _corrupted(lines, lineno, line):
    return b"".join((line if k == lineno else old) + b"\n" for k, old in enumerate(lines, start=1))


def test_corrupted_catalogue_lines_name_the_line(monkeypatch, tmp_path):
    """Each corruption is refused with ``parse_graph6``'s error and offset,
    naming the line."""
    lines = _catalogue_lines(5)
    monkeypatch.setattr(S, "CATALOGUE_DIR", str(tmp_path))
    line = lines[6]  # order 5: a header byte and two payload bytes, the last with 4 padding bits
    cases = [
        (line[:1] + b"!" + line[2:], "bad payload byte 33"),
        (line[:2] + bytes([line[2] + 1]), "nonzero padding bits"),
        (line + b"?", "trailing bytes after bit payload"),
        (line[:2], "truncated bit payload"),
        (b"!" + line[1:], "bad header byte 33"),
    ]
    for bad, message in cases:
        (tmp_path / "graphs5.g6").write_bytes(_corrupted(lines, 7, bad))
        with pytest.raises(Graph6Error, match=f"^line 7: {message}") as got:
            S._order.__wrapped__(5)
        with pytest.raises(Graph6Error) as want:
            parse_graph6(bad)
        assert (got.value.message, got.value.offset) == ("line 7: " + want.value.message, want.value.offset)


def test_order_records_carry_every_rank_key():
    # keys and visit order bit for bit as each COLUMNS row ranks the classes
    for n in range(1, S.CATALOGUE_MAX + 1):
        record = S._order(n)
        assert record.classes is _classes(n)
        assert set(record.ranks) == set(S.COLUMNS)
        for mode, (rank_keys, _, _) in S.COLUMNS.items():
            want = rank_keys(record.classes)
            keys, order = record.ranks[mode]
            assert keys.dtype == want.dtype and keys.tobytes() == want.tobytes(), (n, mode)
            assert np.array_equal(order, np.argsort(-want, kind="stable")), (n, mode)
    assert S.COLUMNS["q"][0] is spectral.q_rank_bounds


@pytest.fixture
def fresh_orders():
    """An empty order cache before and after the test, so that it builds
    each order it reads and leaves no record built under a patch."""
    S._order.cache_clear()
    yield
    S._order.cache_clear()


def test_each_order_is_ranked_once_when_it_is_built(monkeypatch, fresh_orders):
    # the build ranks, so enumerating ranks too and no scan ranks again
    ranked = []
    rank_keys, judge, scan = S.COLUMNS["q"]

    def counted(graphs):
        ranked.append(graphs[0].n)
        return rank_keys(graphs)

    monkeypatch.setitem(S.COLUMNS, "q", (counted, judge, scan))
    for _ in range(2):
        assert V.suite_q_turan(n_max=7).ok
        extremal_q(7, F.wheel(1, 5))
        extremal_edges(7, F.complete(4))
    assert count_classes(2) == 2
    assert sorted(ranked) == [2, 3, 4, 5, 6, 7]


def test_augmented_orders_carry_the_same_record(monkeypatch):
    want = S._order(6)
    monkeypatch.setattr(S, "CATALOGUE_MAX", 5)
    got = S._order.__wrapped__(6)
    assert got.classes == want.classes
    for mode in S.COLUMNS:
        for a, b in zip(got.ranks[mode], want.ranks[mode]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), mode


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
    assert len(_augment(7)) == 1044
    assert len(orders) == 1608


def test_enumeration_cap_directs_to_corpus():
    with pytest.raises(ValueError, match="ingest_corpus"):
        list(enumerate_graphs(10))


def test_count_classes_checks_the_order_before_enumerating(monkeypatch):
    def refused(n):
        raise AssertionError(f"enumerated order {n}")

    monkeypatch.setattr(S, "_classes", refused)
    for n in (-1, 0):  # the null graph has no q, and no scan reports on it
        with pytest.raises(ValueError, match="order must be positive"):
            count_classes(n)
        with pytest.raises(ValueError, match="order must be positive"):
            enumerate_graphs(n)
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


def test_w6_edge_search_winners_are_w6_free():
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


def test_search_report_json(tmp_path):
    out = tmp_path / "search.json"
    assert main(["search", "5", "--forbid", "clique:3", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload == vars(extremal_edges(5, F.complete(3))) | {"elapsed": payload["elapsed"]}
    for key in ("n", "forbidden", "mode", "ex_edges", "max_q", "extremal_graphs", "scanned", "elapsed"):
        assert key in payload


def test_importing_the_cli_loads_neither_fractions_nor_decimal():
    # every module of the package is imported by the CLI
    src = str(Path(S.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, qturan.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # the CLI alone writes reports: the library, numpy included, loads no serializer
    library = "qturan, qturan.bounds, qturan.families, qturan.search, qturan.verify, qturan.descent"
    code = f"import sys, {library}; print(sorted({{'json', 'csv'}} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _family_floor(n, params):
    """The integer floor d of the criterion's family delta(G) > (pi - eps) n."""
    return math.floor((params.pi - params.epsilon) * n) + 1


def test_min_degree_family():
    cases = [
        (6, F.complete(3), CriterionParams(r=2), 3),
        (7, F.complete(4), CriterionParams(r=3), 4),
        # a tiny epsilon empties the family at small n
        (4, F.complete(4), CriterionParams(epsilon=1e-3, r=3), 3),
    ]
    reps = []
    for n, f, params, d in cases:
        assert _family_floor(n, params) == d
        threshold = (params.pi - params.epsilon) * n
        for g in enumerate_graphs(n):
            assert (min(g.degrees()) > threshold) == (min(g.degrees()) >= d)
        reps.append(extremal_q(n, f, min_degree=d))
    rep = reps[0]
    t62 = F.turan(6, 2)
    assert min(t62.degrees()) >= 3 and is_free(t62, F.complete(3)) and rep.extremal_graphs
    assert rep.max_q == pytest.approx(6.0, abs=1e-9)
    assert any(
        is_isomorphic(parse_graph6(g), F.complete_bipartite(3, 3)) for g in rep.extremal_graphs
    )
    rep = reps[1]
    t73 = F.turan(7, 3)
    assert min(t73.degrees()) >= 4 and is_free(t73, F.complete(4))
    assert rep.max_q == pytest.approx(q_value(t73), abs=1e-9)
    assert not reps[2].extremal_graphs


def test_sample_gnp_deterministic():
    a = sample_gnp(12, 0.4, random.Random(99))
    b = sample_gnp(12, 0.4, random.Random(99))
    assert a == b


def _without_elapsed(rep):
    return {k: v for k, v in vars(rep).items() if k != "elapsed"}


# -- ranked scans against the unranked loop ----------------------------------------


def _unranked_edges(n, f, corpus=None):
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
        max_q=max((q_value(g) for g in winners), default=None),
        extremal_graphs=[to_graph6(g).decode("ascii") for g in winners],
        scanned=len(graphs),
        elapsed=0.0,
    )


def _unranked_q(n, f, corpus=None, tol=DEFAULT_TOL, min_degree=0, mode="q"):
    """extremal_q, or extremal_lambda for mode "lambda", as a plain loop:
    containment and the value (q, or 2 lambda) of every graph of the source,
    the accumulate rule in source order, then one value per winner, which
    drops a winner more than cmp_tol below the largest; max_q is the
    winners' largest q_value."""
    value = q_value if mode == "q" else lambda g: 2 * lambda_value(g)
    graphs = _source(n, corpus)
    best, winners = float("-inf"), []
    for g in graphs:
        if min_degree and (not g.n or min(g.degrees()) < min_degree):
            continue
        if not is_free(g, f):
            continue
        q = value(g)
        if q > best + tol.cmp_tol:
            best, winners = q, [g]
        elif q >= best - tol.cmp_tol:
            winners.append(g)
            best = max(best, q)
    if winners:
        refined = [(value(g), g) for g in winners]
        best = max(q for q, _ in refined)
        winners = [g for q, g in refined if q >= best - tol.cmp_tol]
    return SearchReport(
        n=n,
        forbidden=to_graph6(f).decode("ascii"),
        mode=mode,
        ex_edges=max((g.m for g in winners), default=None),
        max_q=max((q_value(g) for g in winners), default=None),
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
    # cmp_tol 0.5 and 2.0 open tie windows far wider than any bracket, so
    # that many scans there keep several maximizers
    wide = (Tolerance(cmp_tol=0.5), Tolerance(cmp_tol=2.0))
    tied = 0
    for n in range(1, 8):
        for f in _SCAN_TARGETS:
            tag = (n, to_graph6(f))
            assert _without_elapsed(extremal_edges(n, f)) == _without_elapsed(_unranked_edges(n, f)), tag
            for tol in (DEFAULT_TOL,) + wide:
                for d in (0, 1, math.floor(0.45 * n) + 1):
                    got = extremal_q(n, f, tol=tol, min_degree=d)
                    assert _without_elapsed(got) == _without_elapsed(
                        _unranked_q(n, f, tol=tol, min_degree=d)
                    ), (tag, tol.cmp_tol, d)
                    tied += tol in wide and len(got.extremal_graphs) > 1
                got = extremal_lambda(n, f, tol=tol)
                assert _without_elapsed(got) == _without_elapsed(
                    _unranked_q(n, f, tol=tol, mode="lambda")
                ), (tag, tol.cmp_tol, "lambda")
    assert tied == 179


def test_narrow_brackets_replace_the_default_tolerance_solves(monkeypatch):
    """Every class that ``suite_q_turan(n_max=7)`` visits has a bracket
    at most 1e-10 wide, so its lo is a tight record for the stop rule. Each
    of the 21 visited classes costs one solve and one ``eigh`` call, which
    also give the maximizers' ``max_q``."""
    solves, eighs = [], []
    inner = spectral._solve_radius
    inner_eigh = np.linalg.eigh

    def counted(g, mode):
        res = inner(g, mode)
        solves.append(res.bracket)
        return res

    def counted_eigh(a, *args, **kwargs):
        eighs.append(a.shape)
        return inner_eigh(a, *args, **kwargs)

    monkeypatch.setattr(spectral, "_solve_radius", counted)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    spectral._solve_cached.cache_clear()
    assert V.suite_q_turan(n_max=7).ok
    assert len(solves) == len(eighs) == 21
    assert all(hi - lo <= 1e-10 for lo, hi in solves)


@pytest.fixture
def fresh_brackets():
    """An empty solve cache before and after the test, so that a patched
    ``_solve_radius`` neither reads nor leaves cached results."""
    spectral._solve_cached.cache_clear()
    yield
    spectral._solve_cached.cache_clear()


def test_wide_brackets_defer_to_q_value(monkeypatch, fresh_brackets):
    """A wide bracket only weakens the stop rule and never decides a class:
    with the lower end of every bracket a scan takes lowered by a seeded
    amount up to 1e-6 (still rigorous, the order untouched), the scans still
    match the unranked loop."""
    rng = np.random.default_rng(5)
    inner = spectral._solve_radius

    def widened(g, mode):
        res = inner(g, mode)
        lo, hi = res.bracket
        return dataclasses.replace(res, bracket=(lo - rng.uniform(0.0, 1e-6), hi))

    monkeypatch.setattr(spectral, "_solve_radius", widened)
    for n in range(4, 8):
        for f in _SCAN_TARGETS:
            for d in (0, math.floor(0.45 * n) + 1):
                got = extremal_q(n, f, min_degree=d)
                want = _unranked_q(n, f, min_degree=d)
                assert _without_elapsed(got) == _without_elapsed(want), (n, to_graph6(f), d)


def test_scans_bracket_only_the_classes_they_decide(monkeypatch, fresh_brackets):
    """The ranking needs no eigensolve: during ``suite_q_turan(n_max=7)``
    and the W6 and B_{3,2} scans at order 7, each visited F-free class is
    solved once, however many of the scans at its order visit it, and that
    solve gives both its bracket and the maximizers' ``max_q``."""
    solved = []
    inner_solve = spectral._solve_radius

    def counted(g, mode):
        solved.append(g)
        return inner_solve(g, mode)

    decided = []
    inner_free = S.is_free

    def free(g, f):
        ok = inner_free(g, f)
        if ok:
            decided.append(g)
        return ok

    monkeypatch.setattr(spectral, "_solve_radius", counted)
    monkeypatch.setattr(S, "is_free", free)
    assert V.suite_q_turan(n_max=7).ok
    assert (len(solved), len(decided)) == (21, 21)
    extremal_q(7, F.wheel(1, 5))
    extremal_q(7, F.generalized_book(3, 2))
    assert len(solved) == len(set(solved)) and set(solved) == set(decided)
    assert (len(decided), len(set(decided))) == (23, 22)


def test_lambda_scans_visit_by_the_q_rank_bound(monkeypatch):
    """A lambda scan reads the q row's keys and visit order, which bound
    2 lambda: the containment tests at n = 8 for K4, W6, B_{3,2}, K5 and
    B_{3,3}, pinned, and the order record holds one ranking for both rows."""
    calls = []
    inner_free = S.is_free

    def free(g, f):
        calls.append(g)
        return inner_free(g, f)

    monkeypatch.setattr(S, "is_free", free)
    visits = {}
    for g6 in ("C~", "E|fG", "D~w", "D~{", "E~z_"):
        calls.clear()
        extremal_lambda(8, parse_graph6(g6.encode()))
        visits[g6] = len(calls)
    assert visits == {"C~": 516, "E|fG": 516, "D~w": 516, "D~{": 36, "E~z_": 36}
    assert S._order(8).ranks["lambda"] is S._order(8).ranks["q"]


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
            for d in (0, math.floor(0.45 * n) + 1):
                got = extremal_q(n, f, corpus=corpus, min_degree=d)
                want = _unranked_q(n, f, corpus, min_degree=d)
                assert _without_elapsed(got) == _without_elapsed(want), (tag, d)
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
