"""Command-line surface: compute radii, run verification sweeps, extremal
searches and descent traces, and write every JSON and CSV report.

Exit codes: 0 = all hard assertions pass; 1 = hard violation (an inequality
proven for every order failed); 2 = usage or input error. Report-only
findings are written to the reports, never to the exit code.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from typing import Callable, Dict, Iterable, Optional, Tuple

from . import __version__
from . import bounds as B
from . import verify as V
from .descent import CriterionParams, descent_run
from .families import is_family_spec, parse_family_spec
from .graphs import Graph, Graph6Error, parse_graph6, to_graph6
from .search import COLUMNS, ENUMERATION_CAP
from .spectral import DEFAULT_TOL, Tolerance, adjacency_radius, q_radius


class InputError(ValueError):
    pass


def load_graph(text: str) -> Graph:
    """Interpret a CLI graph argument as a family spec or a graph6 line.

    No graph6 line holds a ':', so any text with one is read as a spec, and
    an unknown kind gets the parser's list of valid kinds."""
    if is_family_spec(text) or ":" in text:
        return parse_family_spec(text)
    try:
        return parse_graph6(text.encode("ascii"))
    except (Graph6Error, UnicodeEncodeError) as exc:
        raise InputError(f"not a family spec or graph6 line: {text!r} ({exc})") from None


def _tol(args) -> Optional[Tolerance]:
    """The ``--cmp-tol`` tolerance, or None when the flag was not given."""
    return None if args.cmp_tol is None else Tolerance(cmp_tol=args.cmp_tol)


def _keywords(
    what: str, fn: Callable, given: Iterable[Tuple[str, str, object]]
) -> Dict[str, object]:
    """The keyword arguments of ``fn`` for the options the user gave.

    ``given`` holds (flag, keyword, value) triples, value None for an
    option left out: it is not passed, so ``fn`` runs at its own default. A
    given flag whose keyword ``fn``'s signature lacks is refused, so no
    option is ever ignored."""
    params = inspect.signature(fn).parameters
    taken = [(flag, name, value) for flag, name, value in given if value is not None]
    unused = [flag for flag, name, _ in taken if name not in params]
    if unused:
        raise InputError(f"{what} does not take {', '.join(unused)}")
    return {name: value for _, name, value in taken}


# one row per checked inequality; BoundEntry's fields follow graph6 in order
CSV_COLUMNS = ["graph6", "bound_name", "lhs", "rhs", "slack", "holds", "equality"]


def _record(graph6: str, entry: B.BoundEntry) -> Dict[str, object]:
    """One bound entry as a CSV row or JSON object, keyed by ``CSV_COLUMNS``."""
    return dict(zip(CSV_COLUMNS, (graph6, *entry)))


def _write_json(path: Optional[str], payload: Dict[str, object]) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")


def _write_csv(path: str, reports: Iterable[B.BoundReport]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(_record(rep.graph_id, e) for rep in reports for e in rep.entries)


def cmd_q(args) -> int:
    tol = _tol(args) or DEFAULT_TOL
    g = load_graph(args.input)
    qres = q_radius(g)
    ares = adjacency_radius(g)
    degs = g.degrees()
    print(f"graph6     {to_graph6(g).decode()}")
    print(f"n, m       {g.n}, {g.m}")
    print(f"delta, Delta  {min(degs)}, {max(degs)}")
    print(f"q(G)       {qres.radius:.12f}   (residual {qres.residual:.2e})")
    print(f"lambda(G)  {ares.radius:.12f}")
    chain = B.check_bound_chain(g, tol)
    for e in chain:
        print(f"  {e.name:24s} lhs={e.lhs:.6f} rhs={e.rhs:.6f} slack={e.slack:.3e}")
    if args.json:
        payload = {
            "graph6": to_graph6(g).decode(),
            "n": g.n,
            "m": g.m,
            "min_degree": min(degs),
            "max_degree": max(degs),
            "q": qres.radius,
            "lambda": ares.radius,
            "chain": [_record(to_graph6(g).decode(), e) for e in chain],
        }
        _write_json(args.json, payload)
    return 0


def cmd_verify(args) -> int:
    given = [
        ("--n-max", "n_max", args.n_max),
        ("--r", "r", args.r),
        ("--csv", "collect_reports", True if args.csv else None),
        ("--cmp-tol", "tol", _tol(args)),
    ]
    res = V.run_suite(
        args.suite, **_keywords(f"suite {args.suite!r}", V.SUITES[args.suite], given)
    )
    print(res.summary())
    for v in res.violations:
        print(f"  VIOLATION: {v}")
    for f in res.findings:
        print(f"  report-only: {f}")
    if args.json:
        payload = {
            "suite": res.suite,
            "checked": res.checked,
            "violations": res.violations,
            "findings": [{"reportOnly": True, "text": f} for f in res.findings],
        }
        _write_json(args.json, payload)
    if args.csv and res.reports:
        _write_csv(args.csv, res.reports)
    return 0 if res.ok else 1


def cmd_search(args) -> int:
    scan = COLUMNS[args.mode][2]
    given = [("--corpus", "corpus", args.corpus), ("--cmp-tol", "tol", _tol(args))]
    keywords = _keywords(f"search --mode {args.mode}", scan, given)
    f = load_graph(args.forbid)
    if args.n < 1:
        raise InputError("order must be positive")
    if args.n > ENUMERATION_CAP and not args.corpus:
        raise InputError(
            f"n={args.n} exceeds the built-in enumeration cap {ENUMERATION_CAP}; "
            f"supply --corpus with a graph6 file"
        )
    rep = scan(args.n, f, **keywords)
    if args.corpus and rep.scanned == 0:
        # a scan of nothing would print "every graph contains F"
        raise InputError(f"corpus {args.corpus} holds no graph of order {args.n}")
    print(f"n={rep.n} forbid={args.forbid} mode={rep.mode}")
    print(f"scanned    {rep.scanned} classes in {rep.elapsed:.2f}s")
    print(f"ex_edges   {rep.ex_edges}")
    print(f"max_q      {rep.max_q}")
    print(f"extremal   {' '.join(rep.extremal_graphs) or '(none: every graph contains F)'}")
    _write_json(args.json, vars(rep))
    return 0


def cmd_descent(args) -> int:
    tol = _tol(args) or DEFAULT_TOL
    params = CriterionParams(epsilon=args.eps, r=args.r)
    g = load_graph(args.input)
    trace = descent_run(
        g, params, floor=args.floor, keep_graphs=args.keep_graphs, tol=tol
    )
    print(f"descent from n={g.n}: {len(trace.steps)} step(s), stop={trace.stop_reason}")
    for s in trace.steps:
        lem = []
        if s.mind_holds is not None:
            lem.append(f"mind={s.mind_holds}")
        if s.dv_growth_holds is not None:
            lem.append(f"dv_growth={s.dv_growth_holds} dv_ref={s.dv_reference_holds}")
        print(
            f"  n={s.order:3d} q={s.q:12.8f} x={s.min_entry:.6f} u={s.min_entry_vertex}"
            f" delta={s.min_degree} lemma32_slack={s.lemma32_slack:+.3e} {' '.join(lem)}"
        )
    # a step's graph6 is written only when --keep-graphs kept it
    steps = [{k: v for k, v in vars(s).items() if k != "graph6" or v is not None} for s in trace.steps]
    _write_json(args.json, {"stop_reason": trace.stop_reason, "steps": steps})
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qturan",
        description="Signless-Laplacian spectral extremal graph theory toolkit",
    )
    ap.add_argument("--version", action="version", version=f"qturan {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cmp-tol", type=float, default=None, help="comparison tolerance (default 1e-9)")
    common.add_argument("--json", metavar="PATH", help="write machine-readable report")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("q", parents=[common], help="radii, degrees and chain slacks of one graph")
    p.add_argument("input", help="graph6 line or family spec like turan:7,3")
    p.set_defaults(fn=cmd_q)

    p = sub.add_parser("verify", parents=[common], help="run a named verification suite")
    p.add_argument("suite", choices=sorted(V.SUITES))
    p.add_argument("--n-max", type=int, default=None, help="sweep order cap")
    p.add_argument("--r", type=int, default=None, help="restrict to one clique parameter")
    p.add_argument("--csv", metavar="PATH", help="write bound entries as CSV")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", parents=[common], help="extremal edge- or q-search at order n")
    p.add_argument("n", type=int)
    p.add_argument("--forbid", required=True, help="forbidden subgraph (family spec or graph6)")
    p.add_argument("--mode", choices=sorted(COLUMNS), default="edges")
    p.add_argument("--corpus", help="external graph6 corpus file (see QTURAN_CORPUS_DIR)")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("descent", parents=[common], help="min-Perron-entry deletion trace")
    p.add_argument("input", help="graph6 line or family spec")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--floor", type=int, default=1)
    p.add_argument("--keep-graphs", action="store_true", help="embed graph6 per step")
    p.set_defaults(fn=cmd_descent)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
