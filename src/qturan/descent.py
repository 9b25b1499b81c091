"""Instrumented vertex-deletion descent: repeatedly delete the vertex with
the minimum Perron entry, recording spectral quantities and the per-step
lemma outcomes.

The run is an experiment, not a decision procedure: lemma outcomes below the
asymptotic regime are recorded, never asserted, and no freeness conclusion
is drawn from a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .graphs import Graph, delete_vertex, to_graph6
from .spectral import DEFAULT_TOL, Tolerance, q_radius, q_value, turan_q

STOP_MIN_DEGREE = "min_degree_exceeded"
STOP_FLOOR = "order_floor"


@dataclass(frozen=True)
class CriterionParams:
    """Parameters of the spectral criterion: 0 < epsilon < 1/2, and
    pi = 1 - 1/r is the Turan density of the target family. r >= 2 is
    accepted (the criterion theorem itself needs r >= 3, but the min-degree
    machinery is also exercised at r = 2)."""

    epsilon: float = 0.1
    r: int = 3

    def __post_init__(self):
        if not (0 < self.epsilon < 0.5):
            raise ValueError(f"epsilon must be in (0, 1/2), got {self.epsilon}")
        if self.r < 2:
            raise ValueError(f"r must be >= 2, got {self.r}")

    @property
    def pi(self) -> float:
        return 1.0 - 1.0 / self.r


@dataclass(frozen=True)
class DescentStep:
    """One graph in the deletion sequence with its recorded quantities.

    ``min_entry_ties`` lists every vertex attaining the minimum Perron entry
    (within cmp_tol); the deleted vertex is the lowest index among them.
    """

    order: int
    q: float
    min_entry: float
    min_entry_vertex: int
    min_entry_ties: Tuple[int, ...]
    min_degree: int
    lemma32_slack: float
    residual: float
    mind_holds: Optional[bool]
    dv_growth_holds: Optional[bool]
    dv_reference_holds: Optional[bool]
    graph6: Optional[str] = None


@dataclass
class DescentTrace:
    steps: List[DescentStep] = field(default_factory=list)
    stop_reason: str = ""


def lemma_min_check(g: Graph) -> float:
    """Slack of the min-entry bound: delta - x^2 (q^2 - 2 q delta + n delta).

    Nonnegative (within cmp_tol) for every graph; x is the minimum entry of
    the computed nonnegative unit eigenvector.
    """
    res = q_radius(g)
    q = res.radius
    x = min(res.vector)
    delta = min(g.degrees())
    return delta - x * x * (q ** 2 - 2 * q * delta + g.n * delta)


def lemma_mind_check(
    g: Graph,
    reference_q: float,
    params: CriterionParams,
    tol: Tolerance = DEFAULT_TOL,
) -> Optional[bool]:
    """x^2 < (1 - eps)/n under q(H) >= reference and delta <= (pi - eps) n.

    None when the preconditions fail; report-only below the asymptotic
    regime.
    """
    res = q_radius(g)
    if res.radius < reference_q - tol.cmp_tol:
        return None
    delta = min(g.degrees())
    if delta > (params.pi - params.epsilon) * g.n:
        return None
    x = min(res.vector)
    return x * x < (1 - params.epsilon) / g.n


def lemma_dv_check(
    g: Graph,
    u: int,
    params: CriterionParams,
    reference_q_n1: float,
    tol: Tolerance = DEFAULT_TOL,
) -> Tuple[Optional[bool], Optional[bool]]:
    """Outcomes of the deletion lemma at the min-entry vertex u:
    growth q(H-u) >= q(H) (1 - (1 - eps/6)/(n-1)), and the reference
    comparison q(H-u) > q(G_{n-1}).

    The caller evaluates the lemma preconditions (q(H) above reference and
    x^2 < (1-eps)/n) and calls this only when they hold; (None, None) for a
    graph of fewer than 2 vertices.
    """
    if g.n < 2:
        return None, None
    q_h = q_value(g)
    q_del = q_value(delete_vertex(g, u))
    growth = q_del >= q_h * (1 - (1 - params.epsilon / 6) / (g.n - 1)) - tol.cmp_tol
    reference = q_del > reference_q_n1 + tol.cmp_tol
    return growth, reference


def descent_run(
    h: Graph,
    params: CriterionParams,
    floor: int = 1,
    keep_graphs: bool = False,
    tol: Tolerance = DEFAULT_TOL,
) -> DescentTrace:
    """Run the deletion process from ``h`` down to ``floor``.

    At each order: compute the Perron pair of Q; stop when the minimum
    degree exceeds (pi - eps) n (the proof's exit); otherwise delete the
    lowest-index vertex attaining the minimum Perron entry.

    The reference q(T_{n,r}) stands in for the max radius over the
    min-degree family when a color-critical F with chi = r + 1 is
    forbidden; it is the exact ``turan_q``, not an eigensolve. Below order
    r it is q(K_n), since T_{n,r} = K_n for n <= r.
    """
    if h.n <= floor or floor < 1:
        raise ValueError(f"needs |H| > floor >= 1, got |H|={h.n}, floor={floor}")
    trace = DescentTrace()
    g = h
    while True:
        n = g.n
        res = q_radius(g)
        x = min(res.vector)
        ties = tuple(v for v, xv in enumerate(res.vector) if xv <= x + tol.cmp_tol)
        u = ties[0]
        delta = min(g.degrees())
        slack32 = lemma_min_check(g)
        ref_n = turan_q(n, min(n, params.r))

        stop = None
        if delta > (params.pi - params.epsilon) * n:
            stop = STOP_MIN_DEGREE
        elif n <= floor:
            stop = STOP_FLOOR

        mind = None
        growth = None
        reference = None
        if stop is None:
            mind = lemma_mind_check(g, ref_n, params, tol)
            # below the min-degree exit delta <= (pi - eps) n, so mind is True
            # exactly when q >= ref_n - cmp_tol and x^2 < (1 - eps)/n
            if mind is True:
                ref_n1 = turan_q(n - 1, min(n - 1, params.r))
                growth, reference = lemma_dv_check(g, u, params, ref_n1, tol=tol)

        trace.steps.append(
            DescentStep(
                order=n,
                q=res.radius,
                min_entry=x,
                min_entry_vertex=u,
                min_entry_ties=ties,
                min_degree=delta,
                lemma32_slack=slack32,
                residual=res.residual,
                mind_holds=mind,
                dv_growth_holds=growth,
                dv_reference_holds=reference,
                graph6=to_graph6(g).decode("ascii") if keep_graphs else None,
            )
        )
        if stop is not None:
            trace.stop_reason = stop
            break
        g = delete_vertex(g, u)
    return trace
