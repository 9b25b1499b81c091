"""Spectral module: the per-component ``eigh`` solve against numpy's
``eigvalsh`` and closed forms as second routes, long paths, the exact Turán
radius, Rayleigh quotients, residuals, degree powers and batched upper
bounds."""

import dataclasses
import decimal
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qturan import families as F
from qturan import spectral as S
from qturan.graphs import Graph, from_edges, delete_vertex, parse_graph6
from qturan.search import enumerate_graphs, sample_gnp


def q_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for i, j in g.edges():
        a[i, j] = a[j, i] = 1.0
    return a + np.diag(a.sum(axis=1))


def reference_component_matrix(g: Graph, comp, mode: str) -> np.ndarray:
    """Per-bit build of the component's adjacency or signless Laplacian."""
    idx = {v: i for i, v in enumerate(comp)}
    a = np.zeros((len(comp), len(comp)))
    for v in comp:
        for w in range(g.n):
            if (g.rows[v] >> w) & 1:
                a[idx[v], idx[w]] = 1.0
    if mode == "q":
        a += np.diag(a.sum(axis=1))
    return a


def _shuffled_union(parts, rng) -> Graph:
    """Disjoint union of ``parts`` under a random relabeling, so that the
    components interleave instead of occupying consecutive ranges."""
    n = sum(p.n for p in parts)
    perm = list(range(n))
    rng.shuffle(perm)
    edges, offset = [], 0
    for p in parts:
        edges += [(perm[u + offset], perm[v + offset]) for u, v in p.edges()]
        offset += p.n
    return from_edges(n, edges)


def test_component_matrix_matches_per_bit_reference():
    rng = random.Random(23)
    graphs = [sample_gnp(n, rng.random(), rng) for n in (63, 64, 65, 101, 130)]
    graphs += [sample_gnp(rng.randrange(1, 90), rng.random(), rng) for _ in range(40)]
    for _ in range(40):
        parts = [sample_gnp(rng.randrange(1, 40), rng.random(), rng) for _ in range(rng.randrange(2, 5))]
        graphs.append(_shuffled_union(parts, rng))
    graphs += [_shuffled_union([sample_gnp(n, 0.3, rng), F.path(3), F.empty(2)], rng) for n in (58, 59, 60, 120)]
    graphs += [sample_gnp(n, rng.random(), rng) for n in range(1, 18) for _ in range(3)]
    comps_checked = 0
    for g in graphs:
        for comp in g.components():
            for mode in ("q", "a"):
                mat = S._matrices([g.rows[v] for v in comp], g.n, comp, mode)[0]
                assert mat.dtype == np.float64
                assert mat.flags["C_CONTIGUOUS"]
                ref = reference_component_matrix(g, comp, mode)
                assert mat.tobytes() == ref.tobytes(), (g, comp, mode)
            comps_checked += len(comp) < g.n
    assert comps_checked > 40  # proper components, not just whole graphs


def test_stacked_matrices_match_per_bit_reference():
    """A block of same-order graphs built in one stack: each slice is the
    per-bit build of that graph, byte for byte, and C-contiguous, at orders
    1..9 and across the byte boundaries of the bit rows."""
    rng = random.Random(29)
    blocks = [list(enumerate_graphs(n)) for n in range(1, 7)]
    blocks += [[sample_gnp(n, rng.random(), rng) for _ in range(40)] for n in (7, 8, 9)]
    blocks += [[sample_gnp(n, rng.random(), rng) for _ in range(6)] + [F.empty(n)]
               for n in (63, 64, 65, 130)]
    for gs in blocks:
        n = gs[0].n
        for mode in ("q", "a"):
            mats = S._matrices([r for g in gs for r in g.rows], n, range(n), mode)
            assert mats.dtype == np.float64 and mats.shape == (len(gs), n, n)
            for g, mat in zip(gs, mats):
                assert mat.flags["C_CONTIGUOUS"]
                ref = reference_component_matrix(g, range(g.n), mode)
                assert mat.tobytes() == ref.tobytes(), (g, mode)


@pytest.mark.parametrize("n, r, q_hex", [
    (5, 2, "0x1.3fffffffffffep+2"),
    (6, 3, "0x1.0000000000000p+3"),
    (7, 3, "0x1.28cc1f315b3d5p+3"),
    (40, 5, "0x1.fffffffffffffp+5"),
    (64, 7, "0x1.b6c8424f16e44p+6"),
    (65, 2, "0x1.0400000000001p+6"),
    (100, 12, "0x1.6e940d487f57cp+7"),
])
def test_turan_q_bits_pinned(n, r, q_hex):
    # the last bits of the eigh radius of the per-bit matrix build, pinned so
    # that a change to the matrix or the solve that moves q by an ulp fails;
    # they are not the correctly rounded q (that is turan_q)
    assert S.q_value(F.turan(n, r)).hex() == q_hex


def test_turan_q_closed_forms():
    for n in range(1, 201):
        for r in range(1, n + 1):
            if n % r == 0:
                assert S.turan_q(n, r) == float(2 * (n - n // r)), (n, r)
        assert S.turan_q(n, 1) == 0.0
        assert S.turan_q(n, n) == float(2 * n - 2)
        if n >= 2:
            assert S.turan_q(n, 2) == float(n)
    for n, r in [(0, 1), (3, 0), (3, 4), (5, -1)]:
        with pytest.raises(ValueError, match="1 <= r <= n"):
            S.turan_q(n, r)


def test_turan_q_is_correctly_rounded():
    # a second route to the same root: 60-digit decimal square root, then one
    # correctly rounded conversion
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for n in range(1, 121):
            for r in range(1, n + 1):
                c, disc = S.turan_quadratic(n, r)
                assert S.turan_q(n, r) == float((c + decimal.Decimal(disc).sqrt()) / 2), (n, r)


def test_turan_q_matches_dense_oracle():
    for n in range(1, 41):
        for r in range(1, n + 1):
            want = np.linalg.eigvalsh(q_matrix(F.turan(n, r)))[-1]
            assert abs(S.turan_q(n, r) - want) <= 1e-13 * max(1.0, want), (n, r)


def test_turan_q_within_residual_bound_of_power_iteration():
    # symmetric residual bound: some eigenvalue lies within ||Qx - qx||_2 <=
    # sqrt(n) * residual of the eigensolved q; 4 ulp cover the rounding
    for n in range(3, 101):
        for r in range(2, min(n, 12) + 1):
            res = S.q_radius(F.turan(n, r))
            exact = S.turan_q(n, r)
            bound = math.sqrt(n) * res.residual + 4 * math.ulp(exact)
            assert abs(res.radius - exact) <= bound, (n, r, res.radius, exact)


@pytest.mark.parametrize("n", [300, 400])
def test_long_path_radii_match_closed_forms(n):
    # P_n's spectral gap shrinks like 1/n^2; the path spectra are closed forms
    for solve, exact in [
        (S.q_radius, 2 + 2 * math.cos(math.pi / n)),
        (S.adjacency_radius, 2 * math.cos(math.pi / (n + 1))),
    ]:
        res = solve(F.path(n))
        assert res.method == "dense"
        assert abs(res.radius - exact) <= 1e-12 * res.radius
        assert all(x >= 0 for x in res.vector)
        assert abs(sum(x * x for x in res.vector) - 1.0) <= 1e-12
        assert res.residual <= 1e-12 * res.radius
    # a disconnected graph whose long component loses to K_3
    g = from_edges(n + 3, F.path(n).edges() + [(n, n + 1), (n, n + 2), (n + 1, n + 2)])
    res = S.q_radius(g)
    assert res.method == "dense"
    assert abs(res.radius - 4.0) <= 1e-12


@pytest.mark.parametrize("n", [200, 300])
def test_long_path_perron_vector_matches_closed_form(n):
    # Q(P_n) is similar to the path Laplacian under a diagonal of signs, so
    # its Perron vector is |cos((2j + 1)(n - 1) pi / 2n)|, normalized
    want = np.abs(np.cos((2 * np.arange(n) + 1) * (n - 1) * np.pi / (2 * n)))
    want /= np.linalg.norm(want)
    got = np.array(S.q_radius(F.path(n)).vector)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_known_radii():
    assert abs(S.q_value(F.complete_bipartite(3, 4)) - 7.0) < 1e-9
    assert abs(S.q_value(F.cycle(5)) - 4.0) < 1e-9
    assert abs(S.q_value(F.turan(6, 3)) - 8.0) < 1e-9
    assert abs(S.q_value(F.star(4)) - 4.0) < 1e-9
    # frozen dense-oracle value, cross-checked by quotient-matrix eigensolve
    assert abs(S.q_value(F.turan(7, 3)) - 9.274917217635373) < 1e-9
    assert abs(S.lambda_value(F.complete(6)) - 5.0) < 1e-9
    assert abs(S.lambda_value(F.cycle(9)) - 2.0) < 1e-9
    assert abs(S.lambda_value(F.petersen()) - 3.0) < 1e-9
    assert abs(S.lambda_value(F.star(4)) - math.sqrt(3)) < 1e-9
    assert abs(S.q_value(F.path(4)) - (2 + math.sqrt(2))) < 1e-9


def test_split_graph_closed_forms():
    # split(n, k) = K_k joined to n - k independent vertices; the q form
    # needs n >= 2, since it gives 1 at n = 1 where q(K_1) = 0
    for n in range(2, 41):
        for k in range(1, n + 1):
            g = F.split(n, k)
            c = n + 2 * k - 2
            q = (c + math.sqrt(c * c - 8 * k * (k - 1))) / 2
            lam = ((k - 1) + math.sqrt((k - 1) ** 2 + 4 * k * (n - k))) / 2
            assert abs(S.q_value(g) - q) <= 1e-9 * q, (n, k)
            assert abs(S.lambda_value(g) - lam) <= 1e-9 * lam, (n, k)
            assert g.m == k * (k - 1) // 2 + k * (n - k), (n, k)
            assert S.degree_power(g) == k * (n - 1) ** 2 + (n - k) * k * k, (n, k)


def test_result_contract():
    res = S.q_radius(F.generalized_book(3, 2))
    assert abs(sum(x * x for x in res.vector) - 1.0) < 1e-12
    assert all(x >= 0 for x in res.vector)
    assert res.residual <= 1e-10
    assert S.eigen_residual(F.generalized_book(3, 2), res) == pytest.approx(res.residual, abs=1e-12)


def test_single_vertex_and_rejections():
    res = S.q_radius(F.complete(1))
    assert res.radius == 0.0 and res.vector == (1.0,)
    with pytest.raises(ValueError):
        S.q_radius(F.empty(0))


def test_power_vs_dense_all_orders_up_to_7():
    worst = 0.0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            res = S.q_radius(g)
            dense = np.linalg.eigvalsh(q_matrix(g))[-1] if g.n else 0.0
            worst = max(worst, abs(res.radius - dense))
            assert abs(res.radius - dense) < 1e-8
    assert worst < 1e-8


def test_disconnected_radius_is_component_max():
    rng = random.Random(31)
    for _ in range(40):
        a = sample_gnp(rng.randrange(1, 6), rng.random(), rng)
        b = sample_gnp(rng.randrange(1, 6), rng.random(), rng)
        edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
        g = from_edges(a.n + b.n, edges)
        assert S.q_value(g) == pytest.approx(max(S.q_value(a), S.q_value(b)), abs=1e-9)
    # zero-extension on the losing component
    g = from_edges(5, [(0, 1)])
    res = S.q_radius(g)
    assert res.vector[2] == res.vector[3] == res.vector[4] == 0.0


def test_rayleigh_examples_and_bound():
    assert S.rayleigh_q(F.complete(2), (1 / math.sqrt(2), 1 / math.sqrt(2))) == pytest.approx(2.0)
    assert S.rayleigh_q(F.cycle(4), (0.5, 0.5, 0.5, 0.5)) == pytest.approx(4.0)
    res = S.q_radius(F.turan(7, 3))
    assert S.rayleigh_q(F.turan(7, 3), res.vector) == pytest.approx(res.radius, abs=1e-9)
    with pytest.raises(ValueError, match="unit norm"):
        S.rayleigh_q(F.complete(2), (1.0, 1.0))
    with pytest.raises(ValueError, match="length"):
        S.rayleigh_q(F.complete(3), (1.0, 0.0))


@given(st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_rayleigh_never_exceeds_radius(rg):
    n = rg.randrange(2, 8)
    g = sample_gnp(n, 0.5, rg)
    x = [rg.random() for _ in range(n)]
    # rescale to max 1 first: squares of entries near 1e-160 are subnormal,
    # and a norm taken from them is too coarse to give a unit vector
    top = max(x)
    if top == 0:
        return
    x = [v / top for v in x]
    nrm = math.sqrt(sum(v * v for v in x))
    x = tuple(v / nrm for v in x)
    assert S.rayleigh_q(g, x) <= S.q_value(g) + 1e-9


def test_rayleigh_bound_100_vectors_per_small_graph():
    rng = random.Random(71)
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            q = S.q_value(g)
            for _ in range(100):
                x = [rng.random() for _ in range(n)]
                nrm = math.sqrt(sum(v * v for v in x)) or 1.0
                x = tuple(v / nrm for v in x)
                assert S.rayleigh_q(g, x) <= q + 1e-9


def test_eigen_residual_perturbation_grows():
    g = F.cycle(6)
    res = S.q_radius(g)
    base = S.eigen_residual(g, res)
    for delta in (1e-6, 1e-4, 1e-2):
        vec = list(res.vector)
        vec[0] += delta
        pert = dataclasses.replace(res, vector=tuple(vec))
        assert S.eigen_residual(g, pert) > base
        assert S.eigen_residual(g, pert) == pytest.approx(delta * (res.radius - 2), rel=1e-3)


def test_degree_power():
    g = F.turan(6, 3)
    assert S.degree_power(g) == 96
    assert S.degree_power(F.star(4)) == 12


def test_interlacing_under_deletion_exhaustive():
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            q = S.q_value(g)
            for v in range(n):
                assert S.q_value(delete_vertex(g, v)) <= q + 1e-9


def _bound_corpus():
    """Graphs grouped by order: every class of order <= 7, and seeded random
    graphs with isolated vertices, bipartite and tied components."""
    rng = random.Random(41)
    by_order = {n: list(enumerate_graphs(n)) for n in range(1, 8)}
    extra = [sample_gnp(rng.randrange(1, 13), rng.choice([0.1, 0.3, 0.6, 0.9]), rng) for _ in range(300)]
    for _ in range(100):
        parts = [sample_gnp(rng.randrange(1, 6), rng.random(), rng) for _ in range(rng.randrange(2, 4))]
        extra.append(_shuffled_union(parts, rng))
    extra += [
        _shuffled_union([F.complete_bipartite(2, 3), F.cycle(4), F.empty(1)], rng),
        _shuffled_union([F.complete(3), F.star(4)], rng),  # two components with q = 4
        _shuffled_union([F.complete(4), F.path(3), F.empty(2)], rng),
        _shuffled_union([F.star(4), F.complete(4)], rng),
        F.empty(5),
        F.complete(1),
    ]
    for g in extra:
        by_order.setdefault(g.n, []).append(g)
    return by_order


@pytest.mark.parametrize("mode", ["q", "a"])
def test_q_brackets_hold_the_top_eigenvalue_tightly(mode):
    """The bracket of a Q (``mode == "q"``) or A (``"a"``) solve holds
    lo <= top ``eigvalsh`` value <= hi and radius <= hi on every class of
    order <= 7 and on the mixed-component corpus, with hi - lo within 1e-9
    relative and lo within 1e-10 of the radius, so the record that stops a
    q-scan sits close to the q that judges its ties."""
    solve = S.q_radius if mode == "q" else S.adjacency_radius
    checked = 0
    for gs in _bound_corpus().values():
        mats = [reference_component_matrix(g, range(g.n), mode) for g in gs]
        top = np.linalg.eigvalsh(np.stack(mats))[:, -1]
        for g, t in zip(gs, top):
            res = solve(g)
            lo, hi = res.bracket
            assert lo <= t <= hi and res.radius <= hi, (g, lo, t, hi, res.radius)
            assert hi - lo <= 1e-9 * max(1.0, res.radius), (g, lo, hi)
            assert abs(lo - res.radius) <= 1e-10, (g, lo, res.radius)
            checked += 1
    assert checked > 1400


def test_q_rank_bounds_dominate_the_top_eigenvalue(monkeypatch):
    """The eigensolve-free rank bound is at least the top ``eigvalsh`` value
    and at least the lo of the ``q_radius`` bracket on every class of order
    <= 8 and on the mixed-component corpus, isolated vertices and
    disconnected graphs included; splitting the stacks into blocks of 5
    moves no bound."""
    by_order = _bound_corpus()
    by_order[8] = by_order.get(8, []) + list(enumerate_graphs(8))
    isolated = [g for gs in by_order.values() for g in gs if 0 in g.degrees() and g.m]
    split = [g for gs in by_order.values() for g in gs if len(g.components()) > 1 and 0 not in g.degrees()]
    assert len(isolated) > 100 and len(split) > 100
    ranks = {}
    for n, gs in by_order.items():
        ranks[n] = rank = S.q_rank_bounds(gs)
        top = np.linalg.eigvalsh(np.stack([q_matrix(g) for g in gs]))[:, -1]
        assert rank.shape == (len(gs),)
        for g, b, t in zip(gs, rank, top):
            a = S.q_radius(g).bracket[0]
            assert b >= t and b >= a, (g, b, t, a)
    monkeypatch.setattr(S, "BOUND_BLOCK", 5)
    for n, gs in by_order.items():
        assert np.array_equal(S.q_rank_bounds(gs), ranks[n]), n
    assert S.q_rank_bounds([]).shape == (0,)
    with pytest.raises(ValueError, match="one order"):
        S.q_rank_bounds([F.complete(3), F.complete(4)])


@pytest.mark.parametrize("g6, q", [("EIa?", 3.0), ("GIQCC?", 4.0)])
def test_q_upper_bounds_per_component_pass(g6, q):
    """2P_3 and 2K_{1,3}: the top eigenvector of the whole Q vanishes on one
    component, so its certificate alone is loose (about 4 and 6, the largest
    row sum there), and the ``q_radius`` bracket, taken over the components,
    is tight."""
    g = parse_graph6(g6)
    assert len(g.components()) == 2
    mat = S._matrices(g.rows, g.n, range(g.n), "q")[0]
    hi, lo = S._cw_bounds(mat, np.linalg.eigh(mat)[1][:, -1])
    assert hi > q + 0.5 and lo == pytest.approx(q)
    lo, hi = S.q_radius(g).bracket
    assert lo <= q <= hi and hi - lo <= 1e-9 * q


def test_q_upper_bounds_block_size_shrinks_with_order(monkeypatch):
    """Graphs per block of ``q_rank_bounds``: BOUND_BLOCK up to order 9,
    then BOUND_BLOCK * 81 / n^2 so no block's matrices exceed the order-9
    size, and at least one. The blocks are recorded, not solved."""
    sizes = []

    def recorded(block):
        sizes.append(len(block))
        return np.zeros(len(block))

    monkeypatch.setattr(S, "_block_rank_bounds", recorded)
    cases = [(9, S.BOUND_BLOCK + 3, [S.BOUND_BLOCK, 3]), (10, 13300, [13271, 29]),
             (64, 700, [324, 324, 52]), (300, 30, [14, 14, 2]), (1200, 3, [1, 1, 1])]
    for n, count, want in cases:
        sizes.clear()
        assert S.q_rank_bounds([F.empty(n)] * count).shape == (count,)
        assert sizes == want, n
    # the one-order check covers the whole list, not each block alone
    monkeypatch.setattr(S, "BOUND_BLOCK", 1)
    with pytest.raises(ValueError, match="one order"):
        S.q_rank_bounds([F.complete(3), F.complete(4)])


@pytest.mark.parametrize("field", ["cmp_tol"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), -float("inf"), 0.0, -1e-9])
def test_tolerance_must_be_finite_and_positive(field, value):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        S.Tolerance(**{field: value})
