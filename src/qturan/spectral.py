"""Spectral computations: signless-Laplacian and adjacency radii, Perron
vectors, Rayleigh quotients, eigenequation residuals, the sum of squared degrees.

Every radius comes from one route: numpy's dense symmetric eigensolver
(``eigh``, LAPACK) on each component, whose result a residual gate judges.
The same solve certifies a bracket lo <= radius <= hi from its eigenvector,
whose lo sets the record that stops a spectral scan. Its O(k^3) time and
O(k^2) memory per order-k component suit the desk-scale inputs (classes of
order <= 9, family specs of order <= 1,024); a dense G(5000, 1/2) takes about
13 s and 1 GiB. One builder, ``_matrices``, turns bit rows into every matrix:
one component's for a solve, a block of same-order graphs' for
``q_rank_bounds``, which ``search`` runs once per class order, when it builds
the order, and keeps with its classes. ``multipartite_alpha`` gives the exact
radius lambda_alpha of A_alpha = alpha D + (1 - alpha) A on a complete
multipartite graph with two part sizes: q = 2 lambda_{1/2}, lambda = lambda_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .graphs import Graph


@dataclass(frozen=True)
class Tolerance:
    """``cmp_tol``: the slack within which an inequality counts as tight and
    two values as tied.

    Eigensolves take no tolerance: every solve must pass the residual gate
    ``_RESIDUAL_GATE``, and ``eigh`` has no accuracy setting."""

    cmp_tol: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.cmp_tol) and self.cmp_tol > 0):
            raise ValueError("tolerances must be finite and strictly positive")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class SpectralResult:
    """Largest eigenvalue with a nonnegative unit eigenvector.

    ``residual`` is the max eigenequation defect. ``bracket`` is a rigorous
    (lo, hi) with lo <= radius <= hi (see ``_solve_radius``). ``iterations``
    is always 0 and ``method`` always ``"dense"``: every solve is one
    ``eigh`` per component. Both fields stay because the benchmark harness
    (``perfbench/tracing.py``) still reads them.
    """

    radius: float
    vector: Tuple[float, ...]
    residual: float
    bracket: Tuple[float, float]
    iterations: int
    method: str


class SpectralError(RuntimeError):
    pass


# the largest eigenequation defect max |Mx - lam x| a solve may leave
_RESIDUAL_GATE = 1e-7


def _dense_largest(mat: np.ndarray) -> Tuple[float, np.ndarray, Tuple[float, float]]:
    """Top eigenvalue, its eigenvector made nonnegative and unit, and
    ``_cw_bounds`` on the eigenvector as ``eigh`` returned it."""
    vals, vecs = np.linalg.eigh(mat)
    lam = float(vals[-1])
    top = vecs[:, -1]
    v = top.copy()
    j = int(np.argmax(np.abs(v)))
    if v[j] < 0:
        v = -v
    np.clip(v, 0.0, None, out=v)
    v /= math.sqrt(float(v @ v))
    return lam, v, _cw_bounds(mat, top)


def _matrices(rows: Sequence[int], n: int, cols: Sequence[int], mode: str) -> np.ndarray:
    """Adjacency (``mode == "a"``) or signless Laplacian (``"q"``) matrices
    of one or many order-n graphs, as a C-ordered float64 stack.

    ``rows`` holds ``len(cols)`` bit rows per graph, graph after graph;
    their little-endian bytes are spread by one ``np.unpackbits`` and the
    sorted columns ``cols`` kept, so a component is a stack of one. The
    stack must be C-ordered: with a column-sliced layout BLAS sums
    ``mat @ x`` in another order, which moves the residual that
    ``_solve_radius`` reports by an ulp.
    """
    k = len(cols)
    nbytes = (n + 7) // 8
    # rows of order <= 8 are their own bytes
    raw = bytes(rows) if nbytes == 1 else b"".join([r.to_bytes(nbytes, "little") for r in rows])
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    bits = bits.reshape(-1, k, 8 * nbytes)
    # a plain slice when cols is the whole graph: a fancy index costs more
    bits = bits[:, :, :k] if k == n else bits[:, :, cols]
    mats = bits.astype(np.float64, order="C")
    if mode == "q":
        diag = np.arange(k)
        mats[:, diag, diag] = mats.sum(axis=2)
    return mats


def _solve_radius(g: Graph, mode: str) -> SpectralResult:
    """The top eigenpair of the component with the largest radius, and a
    rigorous bracket lo <= radius <= hi from the same ``eigh``.

    On each component's matrix M with top eigenvector v, x' = |v| + eps*1
    gives the Collatz-Wielandt bound max_u (Mx')_u / x'_u >= rho(M) and the
    Rayleigh quotient x'^T M x' / x'^T x' <= rho(M), rigorous for every
    positive x' however accurate v is. Each end is the largest over the
    components (an isolated vertex gives 0), moved outward by a few ulps per
    vertex for rounding.
    """
    if g.n == 0:
        raise ValueError("spectral radius undefined for the empty vertex set")
    best = None  # (radius, comp, vec, residual)
    hi = lo = 0.0
    for comp in g.components():
        mat = _matrices([g.rows[v] for v in comp], g.n, comp, mode)[0]
        lam, x, (c_hi, c_lo) = _dense_largest(mat)
        res = float(np.max(np.abs(mat @ x - lam * x)))
        if res > _RESIDUAL_GATE:
            raise SpectralError(
                f"eigensolve failed: residual {res:.3e} on component of order {len(comp)}"
            )
        cand = (lam, comp, x, res)
        hi, lo = max(hi, c_hi), max(lo, c_lo)
        if best is None or cand[0] > best[0]:
            best = cand
    lam, comp, x, res = best
    vec = [0.0] * g.n
    for i, v in enumerate(comp):
        vec[v] = max(float(x[i]), 0.0)
    ulps = _BOUND_ROUNDING_ULPS * g.n * np.finfo(np.float64).eps
    bracket = (float(lo * (1.0 - ulps)), float(hi * (1.0 + ulps)))
    return SpectralResult(lam, tuple(vec), res, bracket, iterations=0, method="dense")


@lru_cache(maxsize=1 << 18)
def _solve_cached(g: Graph, mode: str) -> SpectralResult:
    return _solve_radius(g, mode)


def q_radius(g: Graph, tol: Optional[Tolerance] = None) -> SpectralResult:
    """Largest eigenvalue of Q(G) = D(G) + A(G) with its Perron vector.

    ``tol`` is ignored: the solve takes no tolerance. The parameter stays
    only because the benchmark harness (``perfbench/tracing.py``) still
    calls ``q_radius(g, tol)``; drop it once the harness stops passing it."""
    return _solve_cached(g, "q")


def adjacency_radius(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue with a nonnegative unit eigenvector."""
    return _solve_cached(g, "a")


def q_value(g: Graph) -> float:
    return q_radius(g).radius


def lambda_value(g: Graph) -> float:
    return adjacency_radius(g).radius


# -- exact radius of complete multipartite graphs --------------------------------


def multipartite_alpha(s: int, a: int, t: int, b: int, alpha: Tuple[int, int]) -> Tuple[int, int, int]:
    """Integers (c, disc, den), x = (c + sqrt(disc)) / den the radius of A_alpha =
    alpha D + (1 - alpha) A, alpha = p / d, on the complete multipartite graph with
    s parts of size a and t of size b (a count 0 is no part). With e = d - p and
    y = x - alpha n, sum a_i / (y + a_i) = d / e is d y^2 + B y + C = 0 for
    B = d (a + b) - e n, C = ab (d - e (s + t)); C = 0 at alpha = 1 - 1 / (s + t)."""
    p, d = alpha
    a, b = (a if s else b), (b if t else a)
    if not (0 <= p <= d and s >= 0 <= t and a > 0 < b and s + t):
        raise ValueError(f"needs 0 <= p <= d, a part and sizes >= 1, got {(s, a, t, b, alpha)}")
    n, e = s * a + t * b, d - p
    B = d * (a + b) - e * n
    C = a * b * (d - e * (s + t))
    return 2 * p * n - B, B * B - 4 * d * C, 2 * d


def root_float(c: int, disc: int, den: int) -> float:
    """(c + sqrt(disc)) / den, den > 0, correctly rounded, in integers: k doubles
    until ``isqrt``'s bracket [root, root + 1] of sqrt(disc) * 2^k rounds to one
    float under int / int division, or root^2 = disc * 4^k makes root exact."""
    k = 64
    while True:
        scaled = disc << (2 * k)
        root = math.isqrt(scaled)
        lo, scale = (c << k) + root, den << k
        x = lo / scale
        if (lo + 1) / scale == x or root * root == scaled:
            return x
        k *= 2


def turan_q(n: int, r: int) -> float:
    """q(T_{n,r}) correctly rounded: twice its alpha = 1/2 root (doubling is exact)."""
    if not (1 <= r <= n):
        raise ValueError(f"turan graph needs 1 <= r <= n, got r={r}, n={n}")
    b, s = divmod(n, r)
    return 2 * root_float(*multipartite_alpha(s, b + 1, r - s, b, (1, 2)))


# -- rigorous bounds -----------------------------------------------------------

# graphs per stacked block: an order-9 block holds 16384 x 81 float64 (10.6 MB)
BOUND_BLOCK = 1 << 14
# added to every entry of |v| so the vector is strictly positive where v is 0
_BOUND_EPS = 1e-12
# hi is raised and lo lowered by this many ulps per vertex: enough to cover
# the rounding of their own n-term sums and division, and that of the
# Rayleigh quotient behind q_value, so lo <= q <= hi holds in floating point
_BOUND_ROUNDING_ULPS = 8
# sweeps of x <- (Q + I) x behind q_rank_bounds: of 2 to 8 sweeps, 4 gave the
# fastest suite_q_turan at n_max 7 and 8 (fewer looser bounds visit more
# classes, more cost more in the ranking)
_RANK_SWEEPS = 4


def q_rank_bounds(graphs: Sequence[Graph]) -> np.ndarray:
    """Rigorous upper bounds hi(G) >= q(G) >= 2 lambda(G) for a list of graphs
    of one order, with no eigensolve: the key of every scan in units of 2 lambda_alpha.

    ``_RANK_SWEEPS`` batched sweeps x <- (Q + I) x from x = 1, each divided
    by max(x), keep every entry at least (2n - 1)^-sweeps > 0, on isolated
    vertices and every component too. The Collatz-Wielandt bound
    max_u (Qx)_u / x_u on that positive x bounds q from above, and is
    raised by the ulps of ``SpectralResult.bracket``. It is looser than the
    hi of that bracket, which only makes a scan visit a few more classes.
    Blocks of ``BOUND_BLOCK`` graphs, fewer above order 9, keep each stack
    within 10.6 MB. The built-in classes get their keys once per order and
    process, in ``search._order``, which keeps them for every scan; a corpus
    scan computes them for its graphs.
    """
    out = np.empty(len(graphs))
    n = graphs[0].n if graphs else 0
    for g in graphs:
        if g.n != n:
            raise ValueError(f"q bounds need one order, got {n} and {g.n}")
    step = max(1, BOUND_BLOCK * 81 // max(81, n * n))
    for start in range(0, len(graphs), step):
        block = graphs[start: start + step]
        out[start: start + len(block)] = _block_rank_bounds(block)
    return out


def _block_rank_bounds(graphs: Sequence[Graph]) -> np.ndarray:
    """``q_rank_bounds`` of one block."""
    n = graphs[0].n
    if n <= 1:
        return np.zeros(len(graphs))
    mats = _matrices([r for g in graphs for r in g.rows], n, range(n), "q")
    x = np.ones((len(graphs), n))
    for _ in range(_RANK_SWEEPS):
        x += np.einsum("...ij,...j->...i", mats, x)
        x /= x.max(axis=1, keepdims=True)
    y = np.einsum("...ij,...j->...i", mats, x)
    ulps = _BOUND_ROUNDING_ULPS * n * np.finfo(np.float64).eps
    return (y / x).max(axis=1) * (1.0 + ulps)


def _cw_bounds(mat: np.ndarray, v: np.ndarray) -> Tuple[float, float]:
    """(Collatz-Wielandt bound, Rayleigh quotient) of ``mat`` on |v| + eps."""
    xp = np.abs(v) + _BOUND_EPS
    y = np.einsum("...ij,...j->...i", mat, xp)
    return (y / xp).max(axis=-1), (xp * y).sum(axis=-1) / (xp * xp).sum(axis=-1)


def rayleigh_q(g: Graph, x: Sequence[float]) -> float:
    """Quadratic form of Q at a unit vector: sum over edges of (x_i+x_j)^2."""
    if len(x) != g.n:
        raise ValueError(f"vector length {len(x)} != order {g.n}")
    nrm = math.sqrt(sum(xi * xi for xi in x))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"vector must have unit norm, got {nrm!r}")
    total = 0.0
    for i, j in g.edges():
        total += (x[i] + x[j]) ** 2
    return total


def eigen_residual(g: Graph, result: SpectralResult) -> float:
    """Max over vertices of |(q - d(u)) x_u - sum of x over N(u)|."""
    if len(result.vector) != g.n:
        raise ValueError("vector length mismatch")
    q = result.radius
    x = result.vector
    worst = 0.0
    for u in range(g.n):
        s = 0.0
        for w in g.neighbors(u):
            s += x[w]
        worst = max(worst, abs((q - g.degree(u)) * x[u] - s))
    return worst


def degree_power(g: Graph) -> float:
    """Sum of the squared degrees over the vertices."""
    return float(sum(d * d for d in g.degrees()))
