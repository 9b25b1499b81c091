"""Descent traces: stop conditions, tie-breaking, per-step consistency."""

import json
import random

import pytest

from qturan import families as F
from qturan.cli import main
from qturan.descent import (
    STOP_FLOOR,
    STOP_MIN_DEGREE,
    CriterionParams,
    descent_run,
    lemma_dv_check,
    lemma_min_check,
    lemma_mind_check,
)
from qturan.families import parse_family_spec
from qturan.graphs import from_edges, parse_graph6
from qturan.search import enumerate_graphs, sample_gnp
from qturan.spectral import DEFAULT_TOL, q_radius, q_value, turan_q


def _params(r=3):
    return CriterionParams(r=r)


def test_turan_stops_immediately():
    tr = descent_run(F.turan(12, 3), _params())
    assert tr.stop_reason == STOP_MIN_DEGREE
    assert len(tr.steps) == 1 and tr.steps[0].order == 12


def test_pendant_goes_first():
    base = F.turan(12, 3)
    edges = base.edges() + [(0, 12)]
    g = from_edges(13, edges)
    tr = descent_run(g, _params())
    assert tr.steps[0].min_entry_vertex == 12
    assert tr.steps[0].min_entry_ties == (12,)
    assert [s.order for s in tr.steps] == [13, 12]
    assert tr.stop_reason == STOP_MIN_DEGREE


def test_star_runs_to_floor_with_leaf_ties():
    tr = descent_run(F.star(10), _params(), floor=1)
    assert tr.stop_reason == STOP_FLOOR
    assert [s.order for s in tr.steps] == list(range(10, 0, -1))
    first = tr.steps[0]
    assert first.min_entry_vertex == 1  # lowest-index leaf among the ties
    assert first.min_entry_ties == tuple(range(1, 10))
    qs = [s.q for s in tr.steps]
    assert all(qs[i + 1] <= qs[i] + 1e-9 for i in range(len(qs) - 1))


def test_trace_rederivable_from_kept_graphs():
    tr = descent_run(F.star(7), _params(), floor=1, keep_graphs=True)
    for step in tr.steps:
        g = parse_graph6(step.graph6.encode())
        assert g.n == step.order
        res = q_radius(g)
        assert res.radius == pytest.approx(step.q, abs=1e-9)
        assert min(res.vector) == pytest.approx(step.min_entry, abs=1e-9)
        degs = g.degrees()
        assert (min(degs) if degs else 0) == step.min_degree
        assert step.residual <= 1e-10


def test_trace_json_shape(tmp_path):
    # star:5 is F.star(5), traced at the CLI's defaults: _params() and floor 1
    out = tmp_path / "descent.json"
    assert main(["descent", "star:5", "--keep-graphs", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["stop_reason"] == STOP_FLOOR
    assert [s["order"] for s in payload["steps"]] == [5, 4, 3, 2, 1]
    assert all("graph6" in s for s in payload["steps"])
    assert main(["descent", "star:5", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert all("graph6" not in s for s in payload["steps"])


def test_reference_below_order_r_is_the_clique():
    # T_{n,r} = K_n for n <= r, so an edgeless graph (q = 0) never meets the
    # reference q(K_n) = 2n - 2 at n = 3 and n = 2: mind is not evaluated
    tr = descent_run(F.empty(4), _params(4))
    assert [s.order for s in tr.steps] == [4, 3, 2, 1]
    assert [s.mind_holds for s in tr.steps] == [None, None, None, None]
    assert all(s.dv_growth_holds is None for s in tr.steps)


def test_descent_rejects_bad_floor():
    with pytest.raises(ValueError):
        descent_run(F.complete(3), _params(), floor=3)
    with pytest.raises(ValueError):
        descent_run(F.complete(3), _params(), floor=0)


def test_lemma_min_exhaustive_small():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert lemma_min_check(g) >= -1e-9


def test_lemma_min_clique_formula():
    # K_n: x = 1/sqrt(n), q = 2n-2, delta = n-1; direct evaluation
    for n in range(2, 51):
        g = F.complete(n)
        slack = lemma_min_check(g)
        q, d = 2 * n - 2.0, n - 1.0
        direct = d - (q * q - 2 * q * d + n * d) / n
        assert slack == pytest.approx(direct, abs=1e-8)
        assert slack >= -1e-9


def test_lemma_mind_preconditions():
    params = _params()
    # Turan graph: min degree too large, preconditions fail
    assert lemma_mind_check(F.turan(12, 3), q_value(F.turan(12, 3)), params) is None
    # q below reference: fails the other precondition
    assert lemma_mind_check(F.star(12), q_value(F.turan(12, 3)), params) is None
    # sparse graph measured against a tiny reference: evaluates
    out = lemma_mind_check(F.star(12), 1.0, params)
    assert out is not None


def test_lemma_dv_caller_gates():
    params = _params()
    g = F.star(8)
    growth, ref = lemma_dv_check(g, 1, params, q_value(F.star(7)))
    assert growth is not None and ref is not None
    # deleting a leaf of a star keeps q = n-1+1: growth inequality holds
    assert growth is True


def _explicit_preconditions(g, ref_n, params, tol=DEFAULT_TOL):
    """The deletion lemma's preconditions written out: q(H) at or above the
    reference and x^2 < (1 - eps)/n."""
    res = q_radius(g)
    x = min(res.vector)
    return res.radius >= ref_n - tol.cmp_tol and x * x < (1 - params.epsilon) / g.n


def _descent_starts():
    starts = [parse_family_spec(s) for s in ("star:10", "path:30", "split:9,3", "turan:12,3")]
    rng = random.Random(7)
    starts += [sample_gnp(n, p, rng) for n, p in ((12, 0.3), (14, 0.5), (16, 0.7), (20, 0.6))]
    return starts


@pytest.mark.parametrize("r", [2, 3])
def test_deletion_lemma_runs_exactly_when_mind_holds(r):
    params = _params(r)
    outcomes = set()
    for h in _descent_starts():
        tr = descent_run(h, params, keep_graphs=True)
        for step in tr.steps:
            outcomes.add((step.mind_holds, step.dv_growth_holds is not None))
            assert (step.dv_growth_holds is not None) == (step.mind_holds is True)
            dv = (step.dv_growth_holds, step.dv_reference_holds)
            if step is tr.steps[-1]:
                assert dv == (None, None)
                continue
            g = parse_graph6(step.graph6.encode())
            n = g.n
            ref_n = turan_q(n, min(n, r))
            ref_n1 = turan_q(n - 1, min(n - 1, r))
            pre = _explicit_preconditions(g, ref_n, params)
            want = lemma_dv_check(g, step.min_entry_vertex, params, ref_n1) if pre else (None, None)
            assert dv == want
    # the starts reach the lemma, and at r = 3 also its failing and skipped cases
    assert (True, True) in outcomes and (None, False) in outcomes
    if r == 3:
        assert (False, False) in outcomes
