"""One benchmark round in a fresh interpreter, so that qturan's in-memory
caches start cold as they do for a command-line user.

    python3 perfbench/worker.py WORKLOAD TRACE SETUP_ONLY

Prints two JSON lines on stdout: ``{"ready": true}`` once set-up is done
(run.py times set-up up to that line), then the round's result, unless
SETUP_ONLY is 1. Every output is checked against oracles.py, which shares no
code with qturan.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles as O  # noqa: E402

SCAN_N = 7
SWEEP_N_MAX = 100
SWEEP_R_MAX = 12
REL_TOL = 1e-9


class Round:
    """Operations attempted and failed, and what the checks found wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


# -- q-scan-n7 -------------------------------------------------------------------


def _targets(qt):
    return (
        ("wheel(1,5)", qt.families.wheel(1, 5), (6, O.wheel_rows(5))),
        ("generalized_book(3,2)", qt.families.generalized_book(3, 2), (5, O.book_rows(3, 2))),
    )


def scan_setup(qt) -> None:
    """The built-in enumeration that every ``qturan verify q-turan`` run pays."""
    for n in range(1, SCAN_N + 1):
        qt.search.count_classes(n)


def enumeration_check(qt, rnd: Round) -> None:
    """Classes per order and per edge count against the Burnside count."""
    for n in range(1, SCAN_N + 1):
        want = O.graph_counts_by_edges(n)
        classes = list(qt.search.enumerate_graphs(n))
        got = [0] * len(want)
        for g in classes:
            got[O.edges_count(g.rows)] += 1
        rnd.check(got == want, f"n={n}: classes per edge count {got} != {want}")
        rnd.check(len({g.rows for g in classes}) == len(classes), f"n={n}: repeated class")


def scan_work(qt, rnd: Round):
    # suite_q_turan returns only its verdict; keep the scans it makes so
    # that each one is checked on its own
    suite_scans = []
    inner = qt.verify.extremal_q

    def recorded(*args, **kwargs):
        rep = inner(*args, **kwargs)
        suite_scans.append(rep)
        return rep

    qt.verify.extremal_q = recorded
    scans = sum(1 for n in range(3, SCAN_N + 1) for _ in range(2, n))
    rnd.attempted += scans
    try:
        suite = qt.verify.suite_q_turan(n_max=SCAN_N, jobs=1)
    except Exception as exc:
        suite = None
        rnd.failed += scans
        rnd.errors.append(f"suite_q_turan raised {exc!r}")
    targets = []
    for name, f, oracle_f in _targets(qt):
        rnd.attempted += 1
        try:
            targets.append((name, oracle_f, qt.search.extremal_q(SCAN_N, f, jobs=1)))
        except Exception as exc:
            rnd.failed += 1
            rnd.errors.append(f"extremal_q({SCAN_N}, {name}) raised {exc!r}")
    return suite, suite_scans, targets


def scan_check(qt, out, rnd: Round) -> None:
    enumeration_check(qt, rnd)
    suite, suite_scans, targets = out
    if suite is not None:
        rnd.check(suite.ok, f"suite violations: {suite.violations[:3]}")
        rnd.check(suite.checked == len(suite_scans), "suite checked count != scans run")
    pairs = [(n, r) for n in range(3, SCAN_N + 1) for r in range(2, n)]
    rnd.check(len(suite_scans) in (0, len(pairs)), f"{len(suite_scans)} scans, want {len(pairs)}")
    classes = {n: O.graph_count(n) for n in range(3, SCAN_N + 1)}
    for (n, r), rep in zip(pairs, suite_scans):
        tag = f"q-scan n={n} r={r}"
        fn, frows = O.parse_graph6(rep.forbidden)
        rnd.check(rep.n == n and (fn, frows) == (r + 1, O.complete_rows(r + 1)), f"{tag}: wrong scan")
        rnd.check(rep.scanned == classes[n], f"{tag}: scanned {rep.scanned}")
        want_q = O.quotient_q(O.balanced_parts(n, r))
        rnd.check(_close(rep.max_q, want_q), f"{tag}: max q {rep.max_q!r} != {want_q!r}")
        maxers = [O.parse_graph6(g6) for g6 in rep.extremal_graphs]
        parts = sorted(O.complement_clique_sizes(gn, rows) or [] for gn, rows in maxers)
        if r >= 3:
            rnd.check(parts == [O.balanced_parts(n, r)], f"{tag}: maximizers {rep.extremal_graphs}")
        else:
            want = [[a, n - a] for a in range(1, n // 2 + 1)]
            rnd.check(parts == want, f"{tag}: maximizers {rep.extremal_graphs} are not the K_(a,n-a)")
        for gn, rows in maxers:
            rnd.check(_close(O.q_numpy(gn, rows), rep.max_q), f"{tag}: maximizer q off")
    turan_q = O.quotient_q(O.balanced_parts(SCAN_N, 3))
    for name, (fn, frows), rep in targets:
        tag = f"extremal_q({SCAN_N}, {name})"
        rnd.check(rep.scanned == O.graph_count(SCAN_N), f"{tag}: scanned {rep.scanned}")
        rnd.check(bool(rep.extremal_graphs), f"{tag}: no maximizer")
        rnd.check(rep.max_q >= turan_q - REL_TOL, f"{tag}: max q {rep.max_q!r} < q(T_{SCAN_N},3)")
        for g6 in rep.extremal_graphs:
            gn, rows = O.parse_graph6(g6)
            rnd.check(not O.contains(fn, frows, gn, rows), f"{tag}: maximizer {g6} contains F")
            rnd.check(_close(O.q_numpy(gn, rows), rep.max_q), f"{tag}: q of {g6} off")


# -- turan-sweep ------------------------------------------------------------------


def sweep_work(qt, rnd: Round):
    margin = qt.bounds.check_fact21_margin
    entries = []
    for n in range(3, SWEEP_N_MAX + 1):
        for r in range(2, min(n, SWEEP_R_MAX) + 1):
            rnd.attempted += 1
            try:
                entries.append((n, r, margin(n, r)))
            except Exception as exc:
                rnd.failed += 1
                rnd.errors.append(f"check_fact21_margin({n}, {r}) raised {exc!r}")
    return entries


def sweep_check(qt, entries, rnd: Round) -> None:
    for n, r, e in entries:
        parts = O.balanced_parts(n, r)
        edges = O.multipartite_edges(parts)
        q = O.quotient_q(parts)
        tag = f"fact21 n={n} r={r}"
        rnd.check(abs(4 * e.lhs / n - q) <= REL_TOL * q, f"{tag}: q {4 * e.lhs / n!r} != {q!r}")
        rnd.check(e.rhs == edges + 1 and e.holds, f"{tag}: entry {e}")
        rnd.check(n / 4 * q < edges + 1, f"{tag}: margin fails on the quotient q")


WORKLOADS = {
    "q-scan-n7": (scan_setup, scan_work, scan_check),
    "turan-sweep": (None, sweep_work, sweep_check),
}


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mib() -> float:
    kib = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def _emit(payload) -> None:
    print(json.dumps(payload), flush=True)


def main(argv) -> int:
    workload, trace, setup_only = argv[0], argv[1] == "1", argv[2] == "1"
    setup, work, check = WORKLOADS[workload]

    import qturan
    import qturan.bounds
    import qturan.families
    import qturan.search
    import qturan.verify

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if setup is not None:
        setup(qturan)
    _emit({"ready": True})
    if setup_only:
        return 0

    rnd = Round()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    out = work(qturan, rnd)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    layers = tracing.layer_metrics(tracer) if tracer else None
    check(qturan, out, rnd)
    _emit(
        {
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mib": _peak_rss_mib(),
            "attempted": rnd.attempted,
            "failed": rnd.failed,
            "errors": rnd.errors[:10],
            "layers": layers,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
