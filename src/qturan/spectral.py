"""Spectral computations: signless-Laplacian and adjacency radii, Perron
vectors, Rayleigh quotients, eigenequation residuals, degree powers.

Every radius comes from one route: numpy's dense symmetric eigensolver
(``eigh``, LAPACK) on each component of order >= 2, whose result a residual
gate judges. Its O(k^3) time and O(k^2) memory per order-k component suit
the desk-scale inputs (classes of order <= 9, family specs of order
<= 1,024); a dense G(5000, 1/2) takes about 13 s and 1 GiB. The Turán
graphs T_{n,r} need no eigensolve: ``turan_q`` gives their q exactly, in
integer arithmetic.
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
    """Numeric tolerances: ``cmp_tol`` for classifying inequality slack, and
    ``eig_tol`` for eigensolves.

    ``eig_tol`` is the widest certified bracket lo <= q <= hi whose lo a
    q-scan takes as a class's q, and the floor of the residual gate
    (max(eig_tol, 1e-7)) that every solve must pass. ``eigh`` itself does
    not take it, so a smaller ``eig_tol`` does not make q more accurate."""

    eig_tol: float = 1e-10
    cmp_tol: float = 1e-9

    def __post_init__(self):
        if not all(math.isfinite(t) and t > 0 for t in (self.eig_tol, self.cmp_tol)):
            raise ValueError("tolerances must be finite and strictly positive")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class SpectralResult:
    """Largest eigenvalue with a nonnegative unit eigenvector.

    ``residual`` is the max eigenequation defect. ``iterations`` is always 0
    and ``method`` always ``"dense"``: every solve is one ``eigh`` per
    component. Both fields stay because the benchmark harness
    (``perfbench/tracing.py``) still reads them.
    """

    radius: float
    vector: Tuple[float, ...]
    residual: float
    iterations: int
    method: str


class SpectralError(RuntimeError):
    pass


def _dense_largest(mat: np.ndarray) -> Tuple[float, np.ndarray]:
    vals, vecs = np.linalg.eigh(mat)
    lam = float(vals[-1])
    v = vecs[:, -1].copy()
    j = int(np.argmax(np.abs(v)))
    if v[j] < 0:
        v = -v
    np.clip(v, 0.0, None, out=v)
    v /= math.sqrt(float(v @ v))
    return lam, v


def _unpack_rows(rows: Sequence[int], n: int) -> np.ndarray:
    """Bit rows of an order-n graph as a ``len(rows) x 8*ceil(n/8)`` uint8
    0/1 array: each row's little-endian bytes are joined and spread by one
    ``np.unpackbits``; column j is bit j."""
    nbytes = (n + 7) // 8
    # rows of order <= 8 are their own bytes
    raw = bytes(rows) if nbytes == 1 else b"".join([r.to_bytes(nbytes, "little") for r in rows])
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(rows), 8 * nbytes)


def _component_matrix(g: Graph, comp: Sequence[int], mode: str) -> np.ndarray:
    """Adjacency (``mode == "a"``) or signless Laplacian (``"q"``) of the
    induced subgraph on the sorted vertex list ``comp``.

    The bit rows are unpacked in one step (``_unpack_rows``) and the
    component's columns are kept. The result must be a
    C-ordered float64 array: with a column-sliced layout BLAS sums
    ``mat @ x`` in another order, which moves the residual that
    ``_solve_radius`` reports by an ulp.
    """
    k = len(comp)
    bits = _unpack_rows([g.rows[v] for v in comp], g.n)
    bits = bits[:, :k] if k == g.n else bits[:, comp]
    a = bits.astype(np.float64, order="C")
    if mode == "q":
        np.fill_diagonal(a, a.sum(axis=1))
    return a


def _residual(mat: np.ndarray, lam: float, x: np.ndarray) -> float:
    return float(np.max(np.abs(mat @ x - lam * x)))


def _solve_radius(g: Graph, mode: str, eig_tol: float) -> SpectralResult:
    if g.n == 0:
        raise ValueError("spectral radius undefined for the empty vertex set")
    best = None  # (radius, comp, vec, residual)
    for comp in g.components():
        k = len(comp)
        if k == 1:
            cand = (0.0, comp, np.array([1.0]), 0.0)
        else:
            mat = _component_matrix(g, comp, mode)
            lam, x = _dense_largest(mat)
            res = _residual(mat, lam, x)
            if res > max(eig_tol, 1e-7):
                raise SpectralError(
                    f"eigensolve failed: residual {res:.3e} on component of order {k}"
                )
            cand = (lam, comp, x, res)
        if best is None or cand[0] > best[0]:
            best = cand
    lam, comp, x, res = best
    vec = [0.0] * g.n
    for i, v in enumerate(comp):
        vec[v] = max(float(x[i]), 0.0)
    return SpectralResult(radius=lam, vector=tuple(vec), residual=res, iterations=0, method="dense")


@lru_cache(maxsize=1 << 18)
def _solve_cached(g: Graph, mode: str, eig_tol: float) -> SpectralResult:
    return _solve_radius(g, mode, eig_tol)


def q_radius(g: Graph, tol: Optional[Tolerance] = None) -> SpectralResult:
    """Largest eigenvalue of Q(G) = D(G) + A(G) with its Perron vector."""
    tol = tol or DEFAULT_TOL
    return _solve_cached(g, "q", tol.eig_tol)


def adjacency_radius(g: Graph, tol: Optional[Tolerance] = None) -> SpectralResult:
    """Largest adjacency eigenvalue with a nonnegative unit eigenvector."""
    tol = tol or DEFAULT_TOL
    return _solve_cached(g, "a", tol.eig_tol)


def q_value(g: Graph, tol: Optional[Tolerance] = None) -> float:
    return q_radius(g, tol).radius


def lambda_value(g: Graph, tol: Optional[Tolerance] = None) -> float:
    return adjacency_radius(g, tol).radius


# -- exact Turán radius --------------------------------------------------------


def turan_quadratic(n: int, r: int) -> Tuple[int, int]:
    """Integers (c, disc) with q(T_{n,r}) = (c + sqrt(disc)) / 2.

    T_{n,r} has s = n mod r parts of size a = b + (s > 0) and r - s of size
    b = n // r. With u = q - n the quotient equation sum n_i / (u + 2 n_i) = 1
    becomes u^2 + (2a + 2b - n) u - 2ab (r - 2) = 0, whose larger root is
    (beta + sqrt(disc)) / 2 with beta = n - 2a - 2b and
    disc = beta^2 + 8ab (r - 2); so c = 2n + beta. Valid for 1 <= r <= n.
    """
    if not (1 <= r <= n):
        raise ValueError(f"turan graph needs 1 <= r <= n, got r={r}, n={n}")
    b, s = divmod(n, r)
    a = b + (s > 0)
    beta = n - 2 * a - 2 * b
    return 2 * n + beta, beta * beta + 8 * a * b * (r - 2)


def turan_q(n: int, r: int) -> float:
    """q(T_{n,r}) as the correctly rounded float of its exact value.

    Integer arithmetic only: ``isqrt(disc * 4^k)`` brackets sqrt(disc) * 2^k
    between root and root + 1, and CPython's int / int division rounds each
    end of the bracket for q correctly; k doubles until both ends round to
    the same float. The root is exact when root^2 = disc * 4^k.
    """
    c, disc = turan_quadratic(n, r)
    k = 64
    while True:
        scaled = disc << (2 * k)
        root = math.isqrt(scaled)
        lo = (c << k) + root
        den = 1 << (k + 1)
        q = lo / den
        if root * root == scaled or (lo + 1) / den == q:
            return q
        k *= 2


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


def _by_blocks(graphs: Sequence[Graph], block_fn) -> np.ndarray:
    """``block_fn`` of each block of ``BOUND_BLOCK`` same-order graphs, fewer
    above order 9 so a stack stays within 10.6 MB, as one array."""
    out = np.empty(len(graphs))
    n = graphs[0].n if graphs else 0
    for g in graphs:
        if g.n != n:
            raise ValueError(f"q bounds need one order, got {n} and {g.n}")
    step = max(1, BOUND_BLOCK * 81 // max(81, n * n))
    for start in range(0, len(graphs), step):
        block = graphs[start: start + step]
        out[start: start + len(block)] = block_fn(block)
    return out


def _q_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """The Q matrices of a block of same-order graphs, stacked."""
    n = graphs[0].n
    bits = _unpack_rows([r for g in graphs for r in g.rows], n)
    mats = bits.reshape(len(graphs), n, -1)[:, :, :n].astype(np.float64)
    diag = np.arange(n)
    mats[:, diag, diag] = mats.sum(axis=2)
    return mats


def q_rank_bounds(graphs: Sequence[Graph]) -> np.ndarray:
    """Rigorous upper bounds hi(G) >= q(G) for a list of graphs of one order,
    with no eigensolve: the key the q-scans order classes by.

    ``_RANK_SWEEPS`` batched sweeps x <- (Q + I) x from x = 1, each divided
    by max(x), keep every entry at least (2n - 1)^-sweeps > 0, on isolated
    vertices and every component too. The Collatz-Wielandt bound
    max_u (Qx)_u / x_u on that positive x bounds q from above, and is
    raised by the ulps of ``q_bracket``. It is looser than the hi of
    ``q_bracket``, which only makes a scan visit a few more classes.
    """
    return _by_blocks(graphs, _block_rank_bounds)


def _block_rank_bounds(graphs: Sequence[Graph]) -> np.ndarray:
    """``q_rank_bounds`` of one block."""
    n = graphs[0].n
    if n <= 1:
        return np.zeros(len(graphs))
    mats = _q_stack(graphs)
    x = np.ones((len(graphs), n))
    for _ in range(_RANK_SWEEPS):
        x += np.einsum("...ij,...j->...i", mats, x)
        x /= x.max(axis=1, keepdims=True)
    y = np.einsum("...ij,...j->...i", mats, x)
    ulps = _BOUND_ROUNDING_ULPS * n * np.finfo(np.float64).eps
    return (y / x).max(axis=1) * (1.0 + ulps)


def q_bracket(g: Graph) -> Tuple[float, float]:
    """A rigorous, tight bracket lo(G) <= q(G) <= hi(G).

    On each component's own Q, ``eigh`` gives the top eigenvector v; on
    x' = |v| + eps*1 the Collatz-Wielandt bound max_u (Qx')_u / x'_u bounds
    the spectral radius of that nonnegative matrix from above and the
    Rayleigh quotient x'^T Q x' / x'^T x' bounds its largest eigenvalue from
    below. Both are rigorous for every positive x', however accurate
    LAPACK's v is; v only makes them tight. q(G) is the largest q of a
    component, so each end is the largest over the components (on the
    whole Q of a disconnected graph v may vanish on a component and leave
    hi loose). Both ends are moved outward by a few ulps per vertex for
    rounding. The q-scans bracket only the classes they decide.
    """
    ends = [_cw_bounds(_component_matrix(g, c, "q")) for c in g.components()]
    hi, lo = np.max(ends, axis=0)
    ulps = _BOUND_ROUNDING_ULPS * g.n * np.finfo(np.float64).eps
    return float(lo * (1.0 - ulps)), float(hi * (1.0 + ulps))


def _cw_bounds(mats: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(Collatz-Wielandt bound, Rayleigh quotient) on |top eigenvector| + eps per matrix."""
    xp = np.abs(np.linalg.eigh(mats)[1][..., -1]) + _BOUND_EPS
    y = np.einsum("...ij,...j->...i", mats, xp)
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


def degree_power(g: Graph, p: float) -> float:
    """Sum of degree^p over the vertices; equals 2m at p = 1."""
    if p < 1:
        raise ValueError(f"degree power requires p >= 1, got {p}")
    return float(sum(d ** p for d in g.degrees()))
