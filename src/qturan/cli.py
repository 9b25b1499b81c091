"""Command-line surface: compute radii, run verification sweeps, extremal
searches and descent traces.

Exit codes: 0 = all hard assertions pass; 1 = hard violation (an inequality
proven for every order failed); 2 = usage or input error. Report-only
findings are written to the reports, never to the exit code.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Optional

from . import __version__
from . import bounds as B
from . import verify as V
from .descent import descent_run
from .families import is_family_spec, parse_family_spec
from .graphs import Graph, Graph6Error, degree_profile, parse_graph6, to_graph6
from .search import ENUMERATION_CAP, extremal_edges, extremal_q
from .spectral import Tolerance, adjacency_radius, q_radius


class InputError(ValueError):
    pass


def load_graph(text: str) -> Graph:
    """Interpret a CLI graph argument as a family spec or a graph6 line.

    No graph6 line holds a ':', so any text with one is read as a spec, and
    an unknown kind gets the parser's list of valid kinds."""
    if is_family_spec(text) or ":" in text:
        return parse_family_spec(text).build()
    try:
        return parse_graph6(text.encode("ascii"))
    except (Graph6Error, UnicodeEncodeError) as exc:
        raise InputError(f"not a family spec or graph6 line: {text!r} ({exc})") from None


def _tol(args) -> Tolerance:
    return Tolerance(eig_tol=args.eig_tol, cmp_tol=args.cmp_tol)


def _write_json(path: Optional[str], payload: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(payload + "\n")


def cmd_q(args) -> int:
    tol = _tol(args)
    g = load_graph(args.input)
    qres = q_radius(g, tol)
    ares = adjacency_radius(g, tol)
    prof = degree_profile(g)
    print(f"graph6     {to_graph6(g).decode()}")
    print(f"n, m       {g.n}, {prof.edge_count}")
    print(f"delta, Delta  {prof.min_degree}, {prof.max_degree}")
    print(f"q(G)       {qres.radius:.12f}   (residual {qres.residual:.2e})")
    print(f"lambda(G)  {ares.radius:.12f}")
    chain = B.check_bound_chain(g, tol)
    for e in chain:
        print(f"  {e.name:24s} lhs={e.lhs:.6f} rhs={e.rhs:.6f} slack={e.slack:.3e}")
    if args.json:
        payload = {
            "graph6": to_graph6(g).decode(),
            "n": g.n,
            "m": prof.edge_count,
            "min_degree": prof.min_degree,
            "max_degree": prof.max_degree,
            "q": qres.radius,
            "lambda": ares.radius,
            "chain": [e.as_record(to_graph6(g).decode()) for e in chain],
        }
        _write_json(args.json, json.dumps(payload, indent=2))
    return 0


def cmd_verify(args) -> int:
    tol = _tol(args)
    params = inspect.signature(V.SUITES[args.suite]).parameters
    unused = [
        flag
        for flag, name, given in (
            ("--n-max", "n_max", args.n_max is not None),
            ("--r", "r", args.r is not None),
            ("--csv", "collect_reports", bool(args.csv)),
        )
        if given and name not in params
    ]
    if unused:
        raise InputError(f"suite {args.suite!r} does not take {', '.join(unused)}")
    # without --n-max a suite runs at the default order of its signature
    sweep = {} if args.n_max is None else {"n_max": args.n_max}
    res = V.run_suite(
        args.suite,
        r=args.r,
        tol=tol,
        collect_reports=bool(args.csv),
        **sweep,
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
        _write_json(args.json, json.dumps(payload, indent=2))
    if args.csv and res.reports:
        with open(args.csv, "w", newline="") as fh:
            B.write_reports_csv(res.reports, fh)
    return 0 if res.ok else 1


def cmd_search(args) -> int:
    tol = _tol(args)
    f = load_graph(args.forbid)
    if args.n > ENUMERATION_CAP and not args.corpus:
        raise InputError(
            f"n={args.n} exceeds the built-in enumeration cap {ENUMERATION_CAP}; "
            f"supply --corpus with a graph6 file"
        )
    if args.mode == "edges":
        rep = extremal_edges(args.n, f, corpus=args.corpus, tol=tol)
    else:
        rep = extremal_q(args.n, f, corpus=args.corpus, tol=tol)
    print(f"n={rep.n} forbid={args.forbid} mode={rep.mode}")
    print(f"scanned    {rep.scanned} classes in {rep.elapsed:.2f}s")
    print(f"ex_edges   {rep.ex_edges}")
    print(f"max_q      {rep.max_q}")
    print(f"extremal   {' '.join(rep.extremal_graphs) or '(none: every graph contains F)'}")
    _write_json(args.json, rep.to_json())
    return 0


def cmd_descent(args) -> int:
    tol = _tol(args)
    params = B.CriterionParams(epsilon=args.eps, sigma=args.sigma, r=args.r)
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
    _write_json(args.json, trace.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qturan",
        description="Signless-Laplacian spectral extremal graph theory toolkit",
    )
    ap.add_argument("--version", action="version", version=f"qturan {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--eig-tol", type=float, default=1e-10,
        help="widest q bracket a scan takes as q; floor of the eigensolve residual gate",
    )
    common.add_argument("--cmp-tol", type=float, default=1e-9, help="comparison tolerance")
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
    p.add_argument("--mode", choices=["edges", "q"], default="edges")
    p.add_argument("--corpus", help="external graph6 corpus file (see QTURAN_CORPUS_DIR)")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("descent", parents=[common], help="min-Perron-entry deletion trace")
    p.add_argument("input", help="graph6 line or family spec")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--sigma", type=float, default=None, help="default eps/40")
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--floor", type=int, default=1)
    p.add_argument("--keep-graphs", action="store_true", help="embed graph6 per step")
    p.set_defaults(fn=cmd_descent)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "sigma", None) is None and hasattr(args, "eps"):
        args.sigma = args.eps / 40.0
    try:
        return args.fn(args)
    except (InputError, ValueError, Graph6Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
