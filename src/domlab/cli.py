"""Command-line interface.

Exit codes: 0 success, 1 usage or input error, 2 infeasible instance,
3 verification discrepancy.
"""

from __future__ import annotations

import argparse
import sys

from .family_spec import FamilySpecError, family_graph
from .graphs import Graph, read_edge_list, write_edge_list
from .solver import (DominationQuery, Guards, GuardExceeded, _timed,
                     active_backend, domatic_exact, gamma_exact, gamma_naive)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_DISCREPANCY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract reserves 2 for
    # infeasible instances, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_query_args(p: argparse.ArgumentParser) -> None:
    """The graph source and k that gamma and domatic share."""
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--family", help="family spec, e.g. prism:cycle:6")
    grp.add_argument("--input", help="edge-list file ('-' for stdin)")
    p.add_argument("--k", type=int, default=1)


def _load_graph(args) -> Graph:
    if args.family:
        return family_graph(args.family)
    if args.input == "-":
        return read_edge_list(sys.stdin)
    with open(args.input) as fh:
        return read_edge_list(fh)


def _count(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        v = -1
    if v < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return v


def _fmt_set(s) -> str:
    return "{" + ", ".join(str(v + 1) for v in sorted(s)) + "}"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="domlab",
                     description="k-tuple total (restrained) domination toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gamma = sub.add_parser("gamma", help="domination number")
    _add_query_args(p_gamma)
    p_gamma.add_argument("--variant", default="restrained",
                         choices=["restrained", "total-restrained", "total"])
    p_gamma.add_argument("--certificate", action="store_true",
                         help="print one optimal set (1-based); with --naive, "
                              "the first in subset order")
    p_gamma.add_argument("--naive", action="store_true",
                         help="use the unpruned oracle instead of the kernel")
    p_gamma.add_argument("--stats", action="store_true",
                         help="print the search work (kernel nodes, or "
                              "subsets with --naive) and the elapsed time")

    # one number: every kTDP is a kTRDP, so domatic takes no variant
    p_dom = sub.add_parser("domatic", help="domatic number")
    _add_query_args(p_dom)
    p_dom.add_argument("--certificate", action="store_true",
                       help="print one maximum partition (1-based)")
    p_dom.add_argument("--stats", action="store_true",
                       help="print the search nodes and the elapsed time")

    p_con = sub.add_parser("construct", help="emit a family as an edge list")
    p_con.add_argument("family", help="family spec, e.g. complement:path:9")
    p_con.add_argument("-o", "--out", help="output file (default stdout)")

    p_ver = sub.add_parser("verify-paper",
                           help="run the verification sweep and write a report")
    p_ver.add_argument("--sections", nargs="+",
                       help="subset of sweep sections (default: all)")
    p_ver.add_argument("--format", default="csv", choices=["csv", "markdown"])
    p_ver.add_argument("--out", help="report file (default stdout)")
    # left out, these take SweepConfig's defaults
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--oracle-random", type=_count)
    p_ver.add_argument("--property-random", type=_count)
    p_ver.add_argument("--timings", action="store_true",
                       help="fill runtime_ms (reports stop being byte-stable)")
    return parser


def _print_stats(args, work: str, res, ms: float) -> None:
    if args.stats:
        print(f"stats: {work}={res.nodes_explored} elapsed={ms:.3f} ms")


def _cmd_gamma(args) -> int:
    g = _load_graph(args)
    q = DominationQuery(g, args.k, args.variant)
    res, ms = _timed(gamma_naive if args.naive else gamma_exact, q,
                     Guards.from_env())
    if not res.feasible:
        print(f"infeasible: min degree {g.min_degree} < k={args.k}")
        return EXIT_INFEASIBLE
    print(f"gamma = {res.value}  (k={q.k}, variant={q.variant}, "
          f"backend={'naive' if args.naive else active_backend()})")
    if args.certificate:
        print(f"certificate: {_fmt_set(res.certificate)}")
    _print_stats(args, "subsets" if args.naive else "nodes", res, ms)
    return EXIT_OK


def _cmd_domatic(args) -> int:
    g = _load_graph(args)
    res, ms = _timed(domatic_exact, g, args.k, Guards.from_env())
    if not res.feasible:
        print(f"infeasible: min degree {g.min_degree} < k={args.k}")
        return EXIT_INFEASIBLE
    print(f"domatic = {res.value}  (k={args.k})")
    if args.certificate:
        for i, cls in enumerate(res.certificate, 1):
            print(f"class {i}: {_fmt_set(cls)}")
    _print_stats(args, "nodes", res, ms)
    return EXIT_OK


def _write_out(args, write) -> None:
    """write(fh) to the file args.out names, or to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _cmd_construct(args) -> int:
    g = family_graph(args.family)
    _write_out(args, lambda fh: write_edge_list(g, fh))
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the sweep's modules load only for this command
    from .verify import SweepConfig, run_sweep, write_csv, write_markdown

    given = {name: getattr(args, name)
             for name in ("seed", "oracle_random", "property_random")
             if getattr(args, name) is not None}
    config = SweepConfig(sections=tuple(args.sections or ()), **given)
    report = run_sweep(config)
    writer = write_csv if args.format == "csv" else write_markdown
    _write_out(args, lambda fh: writer(report, fh, timings=args.timings))
    disc = report.discrepancies
    allow = report.allowlisted_failures
    print(f"rows={report.total} matched={report.matched} "
          f"discrepancies={len(disc)} allowlisted={len(allow)}",
          file=sys.stderr)
    for row in disc[:20]:
        print(f"DISCREPANCY {row.instance}: solver={row.solver} "
              f"formula={row.formula} {row.note}", file=sys.stderr)
    for row in allow:
        print(f"allowlisted {row.instance}: {row.note}", file=sys.stderr)
    return EXIT_DISCREPANCY if disc else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "gamma":
            return _cmd_gamma(args)
        if args.command == "domatic":
            return _cmd_domatic(args)
        if args.command == "construct":
            return _cmd_construct(args)
        return _cmd_verify(args)
    except (FamilySpecError, GuardExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
