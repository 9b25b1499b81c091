"""Named verification suites: exhaustive and sampled checks of every bound,
shared by the CLI and the acceptance tests.

A suite returns a VerifyResult; ``violations`` are hard failures (an
inequality that is proven for all n failed), ``findings`` are report-only
observations that never affect exit codes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import bounds as B
from . import families as F
from .chromatic import chromatic_number, is_color_critical
from .graphs import Graph, parse_graph6, to_graph6
from .search import ENUMERATION_CAP, enumerate_graphs, extremal_edges, extremal_q, sample_gnp
from .spectral import DEFAULT_TOL, Tolerance, turan_q
from .subgraph import is_free
from .descent import lemma_min_check

RANDOM_SEED = 20250810


@dataclass
class VerifyResult:
    suite: str
    checked: int
    violations: List[str] = field(default_factory=list)
    findings: List[str] = field(default_factory=list)
    reports: List[B.BoundReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"[{self.suite}] checked {self.checked}: {status}"


def _all_graphs(n_max: int):
    for n in range(1, n_max + 1):
        yield from enumerate_graphs(n)


# -- suites -------------------------------------------------------------------


# suite -> (check, name of the flag that the entry's equality must match,
# graphs it sweeps). A check takes (graph, tol). One without a flag returns
# its entries; one with a flag returns a single entry and the flag.
_ENTRY_CHECKS: Dict[str, Tuple[Callable, Optional[str], Callable[[Graph], bool]]] = {
    "chain": (B.check_bound_chain, None, lambda g: True),
    "merris": (lambda g, tol: [B.check_merris(g, tol)], None, lambda g: g.n and min(g.degrees()) >= 1),
    "lower-degree": (B.check_q_lower_degree, "edge-degree-sum constant", lambda g: g.m >= 1),
    "hofmeister": (B.check_hofmeister, "regular/semiregular", lambda g: True),
}


def _entry_sweep(
    name: str, n_max: int = 7, tol: Tolerance = DEFAULT_TOL, collect_reports: bool = False
) -> VerifyResult:
    check, flag_name, keep = _ENTRY_CHECKS[name]
    res = VerifyResult(name, 0)
    for g in filter(keep, _all_graphs(n_max)):
        g6 = to_graph6(g).decode()
        if flag_name is None:
            entries = check(g, tol)
        else:
            entry, flag = check(g, tol)
            entries = [entry]
        res.checked += len(entries)
        for e in entries:
            if not e.holds:
                res.violations.append(f"{g6}: {e.name} slack={e.slack:.3e}")
        if flag_name is not None and entry.equality != flag:
            res.violations.append(f"{g6}: equality flag {entry.equality} != {flag_name} {flag}")
        if collect_reports:
            res.reports.append(B.BoundReport(g6, entries))
    return res


suite_chain = partial(_entry_sweep, "chain")
suite_merris = partial(_entry_sweep, "merris")
suite_lower_degree = partial(_entry_sweep, "lower-degree")
suite_hofmeister = partial(_entry_sweep, "hofmeister")


def _scans(n_max: int, rows: Sequence[Tuple[int, Graph]], scan: Callable):
    """(n, r, scan(n, F)) for each row (r, F) and each |F| <= n <= n_max,
    n outermost. The caller builds each F once, so the containment test's
    per-F cache finds it by identity rather than by ``Graph.__eq__``."""
    for n in range(1, n_max + 1):
        for r, f in rows:
            if f.n <= n:
                yield n, r, scan(n, f)


def _clique_rows(suite: str, n_max: int, r: Optional[int]) -> List[Tuple[int, Graph]]:
    """(rr, K_{rr+1}) for 2 <= rr < n_max, or for rr = r alone.

    An n_max below 3, or an r below 2 or at least n_max, which would scan
    nothing, is refused."""
    if r is not None and r < 2:
        raise ValueError(f"suite {suite!r} needs r >= 2, got r={r}")
    if n_max < 3:
        raise ValueError(f"suite {suite!r} needs n_max >= 3, got n_max={n_max}")
    if r is not None and r >= n_max:
        raise ValueError(f"suite {suite!r} needs r < n_max, got r={r}, n_max={n_max}")
    return [(rr, F.complete(rr + 1)) for rr in ([r] if r is not None else range(2, n_max))]


def _maximizers_are(graph6s: Sequence[str], parts: Sequence[Tuple[int, ...]]) -> bool:
    """The maximizer graph6 list holds exactly one class for each ascending
    part-size tuple in ``parts``. Complete multipartite graphs are isomorphic
    iff their part sizes agree, so the maximizers'
    ``families.multipartite_parts`` are compared with ``parts`` as multisets,
    and a maximizer that is not complete multipartite never matches."""
    got = [F.multipartite_parts(parse_graph6(g6)) for g6 in graph6s]
    return None not in got and sorted(got) == sorted(parts)


def suite_turan(n_max: int = 8, r: Optional[int] = None) -> VerifyResult:
    res = VerifyResult("turan", 0)
    for n, rr, rep in _scans(n_max, _clique_rows("turan", n_max, r), extremal_edges):
        res.checked += 1
        want = F.turan_edges(n, rr)
        if rep.ex_edges != want:
            res.violations.append(f"ex({n},K_{rr + 1}) = {rep.ex_edges} != {want}")
        elif not _maximizers_are(rep.extremal_graphs, [F.turan_parts(n, rr)]):
            res.violations.append(
                f"ex({n},K_{rr + 1}): maximizer set {rep.extremal_graphs} "
                f"is not exactly the Turan graph"
            )
    return res


def suite_q_turan(
    n_max: int = 8, r: Optional[int] = None, tol: Tolerance = DEFAULT_TOL, jobs: int = 1
) -> VerifyResult:
    """Every q-extremal scan for K_{r+1} up to n_max against q(T_{n,r}).

    ``jobs`` is ignored: every scan runs in-process. The keyword stays only
    because the benchmark harness (``perfbench/worker.py``) still calls
    ``suite_q_turan(n_max=7, jobs=1)``; drop it once the harness stops
    passing it.
    """
    res = VerifyResult("q-turan", 0)
    rows = _clique_rows("q-turan", n_max, r)
    for n, rr, rep in _scans(n_max, rows, partial(extremal_q, tol=tol)):
        res.checked += 1
        want = turan_q(n, rr)
        if abs(rep.max_q - want) > tol.cmp_tol:
            res.violations.append(f"q-max({n},K_{rr + 1}) = {rep.max_q!r} != q(T) = {want!r}")
        elif rr >= 3 and not _maximizers_are(rep.extremal_graphs, [F.turan_parts(n, rr)]):
            res.violations.append(
                f"q-max({n},K_{rr + 1}): maximizers {rep.extremal_graphs} "
                f"not exactly the Turan graph"
            )
        elif rr == 2 and not _maximizers_are(
            rep.extremal_graphs, [(a, n - a) for a in range(1, n // 2 + 1)]
        ):
            res.violations.append(
                f"q-max({n},K_3): maximizer set is not exactly the "
                f"complete bipartite graphs ({rep.extremal_graphs})"
            )
    return res


def suite_degree_power(n_max: int = 8, tol: Tolerance = DEFAULT_TOL) -> VerifyResult:
    """Sum of d^2 <= 4mn/3 on the K_4-free graphs; at each order n the
    equality set (m >= 1) is K_{n/3,n/3,n/3} alone, or empty if 3 does not divide n."""
    res = VerifyResult("degree-power", 0)
    k4 = F.complete(4)
    for n in range(1, n_max + 1):
        equal_n: List[str] = []
        for g in enumerate_graphs(n):
            res.checked += 1
            if not is_free(g, k4):
                continue
            e = B.check_degree_power(g, 3, tol)
            if not e.holds:
                res.violations.append(f"{to_graph6(g).decode()}: degree_power slack={e.slack:.3e}")
            if e.equality and g.m >= 1:
                equal_n.append(to_graph6(g).decode())
        parts = [(n // 3,) * 3] if n % 3 == 0 else []
        if not _maximizers_are(equal_n, parts):
            res.violations.append(
                f"degree-power equality set at n={n} (m>=1) is {equal_n}, "
                f"expected the complete multipartite graphs with parts {parts}"
            )
    res.findings.append("non-clique color-critical F: asymptotic, report-only")
    return res


def suite_stability(n_max: int = 8) -> VerifyResult:
    graphs = list(_all_graphs(n_max))
    res = VerifyResult("stability", len(graphs))
    k3, k4 = F.complete(3), F.complete(4)
    for g in graphs:
        if is_free(g, k3) and not B.check_min_degree_stability(g, 2):
            res.violations.append(f"{to_graph6(g).decode()}: triangle-free, delta>2n/5, not bipartite")
        if is_free(g, k4) and not B.check_min_degree_stability(g, 3):
            res.violations.append(f"{to_graph6(g).decode()}: K4-free, delta>5n/8, not 3-partite")
    return res


def suite_lemma_min(
    n_max: int = 7, tol: Tolerance = DEFAULT_TOL, samples: int = 1000
) -> VerifyResult:
    graphs = list(_all_graphs(n_max))
    rng = random.Random(RANDOM_SEED)
    for _ in range(samples):
        n = rng.randrange(8, 61)
        p = rng.choice([0.15, 0.3, 0.5, 0.7, 0.85])
        graphs.append(sample_gnp(n, p, rng))
    res = VerifyResult("lemma-min", len(graphs))
    for g in graphs:
        slack = lemma_min_check(g)
        if slack < -tol.cmp_tol:
            res.violations.append(f"{to_graph6(g).decode()}: lemma-min slack={slack:.3e}")
    return res


def suite_facts(samples: int = 10_000) -> VerifyResult:
    rng = random.Random(RANDOM_SEED + 1)
    res = VerifyResult("facts", 2 * samples)
    # quasi-random: seeded uniform draws plus near-boundary points
    pts1 = [(rng.uniform(1e-9, 1 - 1e-9), rng.uniform(1e-9, 0.5 - 1e-9)) for _ in range(samples - 4)]
    pts1 += [(1e-12, 0.25), (1 - 1e-12, 0.25), (0.5, 1e-12), (0.999999, 0.4999999)]
    for a, x in pts1:
        if not B.check_fact1(a, x):
            res.violations.append(f"fact1 failed at a={a!r}, x={x!r}")
    pts2 = [1 + abs(rng.gauss(0, 1)) * 10 ** rng.uniform(-6, 6) for _ in range(samples - 3)]
    pts2 += [1 + 1e-9, 2.0, 1e12]
    for x in pts2:
        if not B.check_fact2(x):
            res.violations.append(f"fact2 failed at x={x!r}")
    return res


def suite_graph6(n_max: int = 7) -> VerifyResult:
    graphs = list(_all_graphs(n_max))
    res = VerifyResult("graph6", len(graphs) + 3)
    for g in graphs:
        if parse_graph6(to_graph6(g)) != g:
            res.violations.append(f"round-trip failed at {to_graph6(g)!r}")
    for text, expect in [(b"@", F.complete(1)), (b"A_", F.complete(2)), (b"Bw", F.complete(3))]:
        if parse_graph6(text) != expect:
            res.violations.append(f"hand vector {text!r} did not parse to K_{expect.n}")
    return res


def _non_increasing(points: Sequence[Tuple[int, int, int]]) -> bool:
    """Whether ex/C(n, 2) never rises from one (n, ex, C(n, 2)) point to the
    next, judged exactly on integer cross-products."""
    return all(
        ex1 * pairs0 <= ex0 * pairs1
        for (_, ex0, pairs0), (_, ex1, pairs1) in zip(points, points[1:])
    )


def _critical_rows() -> List[Tuple[int, Graph]]:
    """(chi(F) - 1, F) for every connected color-critical F of order 3..6,
    in catalogue order."""
    return [
        (chromatic_number(f) - 1, f)
        for n in range(3, 7)
        for f in enumerate_graphs(n)
        if len(f.components()) == 1 and is_color_critical(f) is not None
    ]


def suite_simonovits(n_max: int = 8) -> VerifyResult:
    """The Q-Simonovits map over ``_critical_rows``: per row (r, F) and
    column, n0 is the least n from which T_{n,r} is the unique maximizer at
    every order |F|..n_max, or None if it loses at n_max. Edges are scanned
    on every row, q on the r >= 3 rows only (every K_{a,n-a} ties at q = n).
    The n0 and their histograms over the chi(F) >= 4 rows are report-only;
    the hard check is that exact ex(n, F)/C(n, 2) never rises."""
    rows = _critical_rows()
    q_rows = [(r, f) for r, f in rows if r >= 3]
    # a scan names its F by graph6; an F above n_max gets no points
    n0: Dict[str, Dict[str, Optional[int]]] = {to_graph6(f).decode(): {} for _, f in rows}
    points: Dict[str, List[Tuple[int, int, int]]] = {g6: [] for g6 in n0}
    for col, col_rows, scan in [("edges", rows, extremal_edges), ("q", q_rows, extremal_q)]:
        for n, r, rep in _scans(n_max, col_rows, scan):
            wins = _maximizers_are(rep.extremal_graphs, [F.turan_parts(n, r)])
            n0[rep.forbidden][col] = (n0[rep.forbidden].get(col) or n) if wins else None
            if col == "edges":
                points[rep.forbidden].append((n, rep.ex_edges, n * (n - 1) // 2))
    res = VerifyResult("simonovits", 0)
    for (r, _), (g6, pts) in zip(rows, points.items()):
        if not pts:
            continue
        res.checked += len(pts)
        if not _non_increasing(pts):
            res.violations.append(f"density quotient increased for {g6}: {pts}")
        cols = ", ".join(f"{col}={at}" for col, at in n0[g6].items())
        ratios = [f"{ex}/{pairs}" for _, ex, pairs in pts]
        res.findings.append(f"{g6} r={r} n0 {cols}: ratios {ratios} -> hint {1 - 1 / r:.4f}")
    for col in ("edges", "q"):
        got = [n0[g6][col] for (r, _), g6 in zip(rows, n0) if r >= 3 and points[g6]]
        hist = {at: got.count(at) for at in sorted(set(got), key=lambda at: (at is None, at or 0))}
        res.findings.append(f"n0 histogram {col} over chi(F) >= 4: {hist}")
    return res


SUITES: Dict[str, Callable[..., VerifyResult]] = {
    "chain": suite_chain,
    "merris": suite_merris,
    "lower-degree": suite_lower_degree,
    "hofmeister": suite_hofmeister,
    "turan": suite_turan,
    "q-turan": suite_q_turan,
    "degree-power": suite_degree_power,
    "stability": suite_stability,
    "lemma-min": suite_lemma_min,
    "facts": suite_facts,
    "graph6": suite_graph6,
    "simonovits": suite_simonovits,
}


def run_suite(name: str, **kwargs) -> VerifyResult:
    """Run a suite with the given keywords; one its signature lacks raises
    TypeError. An n_max above the enumeration cap raises ValueError before
    anything runs, and so does a run that checked nothing, so it never reads
    as a pass."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; valid: {', '.join(sorted(SUITES))}")
    if kwargs.get("n_max", 0) > ENUMERATION_CAP:
        raise ValueError(
            f"suite {name!r} sweeps the built-in enumeration, capped at n={ENUMERATION_CAP}; "
            f"got n_max={kwargs['n_max']}"
        )
    res = SUITES[name](**kwargs)
    if res.checked == 0:
        where = f" at n_max={kwargs['n_max']}" if "n_max" in kwargs else ""
        raise ValueError(f"suite {name!r} checked nothing{where}")
    return res
