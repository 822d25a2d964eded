"""Command-line interface.

Every subcommand reads a model file (JSON; see :mod:`pathweights.modelio`)
and prints either a human table (``--precision`` controls rounding, default 2)
or machine-readable JSON (``--format json``, numbers at 12 significant
digits). Output is deterministic: two runs on the same input are
byte-identical. Exit status is 0 on success, 1 when the requested check or
computation fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import centrality as centrality_mod
from . import decomposition, fit, modelio, weights
from .errors import (
    NotAdaptedError,
    NotConvergedError,
    NotPositiveDefiniteError,
    PathWeightsError,
)
from .graphs import DEFAULT_PATH_CAP
from .model import Measure

_MEASURES = {
    "cov": Measure.COVARIANCE,
    "cor": Measure.CORRELATION,
    "inf": Measure.INFLATED_CORRELATION,
}

#: The ``matrices --kind`` choices and the ``Model`` property each prints.
_MATRIX_KINDS = {"omega": "omega", "r": "partial_corr", "varrho": "inflated"}


def _fmt(value, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def _print_table(header: list[str], rows: list[list], precision: int) -> None:
    cells = [header] + [[_fmt(v, precision) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    for row in cells:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _emit(report, args) -> None:
    if args.format == "json":
        sys.stdout.write(modelio.format_report(report, "json"))
    else:
        header, rows = modelio.report_rows(report)
        _print_table(header, rows, args.precision)


def _number(convert, above, what: str):
    """An argparse type: ``convert(text)`` if it is finite and greater than
    ``above``; otherwise, a text ``convert`` rejects included, the usage error
    "must be {what}, got {text}"."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan  # not a number: rejected with the same message
        if not above < value < math.inf:  # False for nan; exact for any int
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    return parse


_NON_NEGATIVE_INT = _number(int, -1, "a non-negative integer")
_POSITIVE_INT = _number(int, 0, "a positive integer")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--precision", type=_NON_NEGATIVE_INT, default=2,
                        help="decimal places for human tables (default 2)")


def _cmd_check(args) -> int:
    try:
        m = modelio.load_model(args.model)
    except NotPositiveDefiniteError as exc:
        _check_report(args, ok=False, reason="not positive definite", detail=str(exc))
        return 1
    except NotAdaptedError as exc:
        detail = [
            {"u": u, "v": v, "magnitude": mag} for u, v, mag in exc.violations
        ]
        _check_report(args, ok=False, reason="not adapted", detail=detail)
        return 1
    _check_report(
        args,
        ok=True,
        reason=None,
        detail={
            "vertices": len(m.vertices),
            "edges": len(m.graph.edges),
            "adaptedness_tolerance": m.tol,
        },
    )
    return 0


def _check_report(args, ok: bool, reason, detail) -> None:
    if args.format == "json":
        print(json.dumps({"ok": ok, "reason": reason, "detail": detail}, indent=2))
        return
    if ok:
        print("model ok: positive definite and adapted to its graph")
        print(f"vertices: {detail['vertices']}  edges: {detail['edges']}")
    else:
        print(f"model check FAILED: {reason}")
        if isinstance(detail, list):
            for item in detail:
                print(f"  non-edge {item['u']} -- {item['v']}: |k_uv|/sqrt(k_uu k_vv) = {item['magnitude']:.3e}")
        else:
            print(f"  {detail}")


def _cmd_matrices(args) -> int:
    m = modelio.load_model(args.model)
    kinds = [args.kind] if args.kind else list(_MATRIX_KINDS)
    matrices = {k: getattr(m, _MATRIX_KINDS[k]) for k in kinds}  # only the kinds printed
    if args.format == "json":
        doc = {k: modelio.report_dict(matrices[k]) for k in kinds}
        print(json.dumps(doc, indent=2))
        return 0
    for k in kinds:
        print(f"[{k}]")
        header, rows = modelio.report_rows(matrices[k])
        _print_table(header, rows, args.precision)
        if k != kinds[-1]:
            print()
    return 0


def _cmd_decompose(args) -> int:
    m = modelio.load_model(args.model)
    restrict = args.restrict.split(",") if args.restrict else None
    report = decomposition.decompose(
        m, args.x, args.y,
        kind=_MEASURES[args.measure],
        restrict=restrict,
        cap=args.cap,
    )
    if args.format == "json":
        _emit(report, args)
        return 0
    print(f"decomposition of {args.measure}({args.x}, {args.y})"
          + (f" within {{{args.restrict}}}" if args.restrict else ""))
    print(f"target {_fmt(report.target, args.precision)}   "
          f"residual {report.residual:.3e}   "
          f"paths {len(report.entries)}   "
          f"same-signed {'yes' if report.same_signed else 'no'}")
    _emit(report, args)
    return 0


def _cmd_centrality(args) -> int:
    m = modelio.load_model(args.model)
    mode = "all-paths" if args.mode == "all" else "shortest-paths"
    table = centrality_mod.betweenness(m, mode=mode)
    if args.format == "json":
        _emit(table, args)
        return 0
    header, rows = modelio.report_rows(table)
    order = sorted(range(len(rows)), key=lambda i: (-rows[i][1], rows[i][0]))
    _print_table(header, [rows[i] for i in order], args.precision)
    if table.skipped_pairs:
        print(f"skipped pairs (disconnected or zero weight): {len(table.skipped_pairs)}")
    if table.degenerate:
        print("warning: all betweenness values equal; normalized column set to 0")
    return 0


def _cmd_rank_paths(args) -> int:
    m = modelio.load_model(args.model)
    ranked = decomposition.rank_paths(m, args.vertices, cap=args.cap)
    if args.top is not None:
        ranked = ranked[: args.top]
    if args.format == "json":
        doc = [
            {"path": list(p.sequence), "weight": w}
            for p, w in ranked
        ]
        print(json.dumps(modelio._round_floats({"paths": doc}), indent=2))
        return 0
    _print_table(["path", "weight"], [[str(p), w] for p, w in ranked], args.precision)
    return 0


def _cmd_edges(args) -> int:
    m = modelio.load_model(args.model)
    report = [weights.edge_measures(m, e) for e in m.graph.sorted_edges()]
    _emit(report, args)
    return 0


def _cmd_fit(args) -> int:
    sample = modelio.load_covariance_csv(args.covariance)
    graph = modelio.load_graph(args.graph)
    try:
        model = fit.ips_fit(sample, graph, tol=args.tol, max_iter=args.max_iter)
    except NotConvergedError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    modelio.save_model(model, args.output, metadata={"name": "ips_fit", "source": str(args.covariance)})
    if args.format == "json":
        print(json.dumps({"ok": True, "output": str(args.output),
                          "vertices": len(model.vertices),
                          "edges": len(model.graph.edges)}, indent=2))
    else:
        print(f"fitted model written to {args.output}")
    return 0


def _cmd_mtp2(args) -> int:
    m = modelio.load_model(args.model)
    assignment = fit.mtp2_sign_search(m)
    if args.format == "json":
        doc = {
            "signable": assignment is not None,
            "delta": dict(assignment.delta) if assignment else None,
        }
        print(json.dumps(doc, indent=2))
        return 0
    if assignment is None:
        print("not signable: some cycle carries an odd number of negative edges")
        return 0
    if assignment.is_identity:
        print("already nonnegative: every edge partial correlation is >= 0")
    else:
        print("signable; flip: " + ", ".join(assignment.flipped))
    for v in m.vertices:
        print(f"  {v}  {assignment.delta[v]:+d}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathweights",
        description="Path weights, inflation factors and centrality for concentration graph models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a model file (PD + adaptedness)")
    p.add_argument("model")
    _add_common(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("matrices", help="emit derived matrices")
    p.add_argument("model")
    p.add_argument("--kind", choices=_MATRIX_KINDS)
    _add_common(p)
    p.set_defaults(handler=_cmd_matrices)

    p = sub.add_parser("decompose", help="decompose an association entry over paths")
    p.add_argument("model")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--measure", choices=sorted(_MEASURES), default="cov")
    p.add_argument("--restrict", help="comma-separated vertex set containing x and y")
    p.add_argument("--cap", type=_POSITIVE_INT, default=DEFAULT_PATH_CAP)
    _add_common(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("centrality", help="path-weight betweenness centrality")
    p.add_argument("model")
    p.add_argument("--mode", choices=("all", "shortest"), default="all")
    _add_common(p)
    p.set_defaults(handler=_cmd_centrality)

    p = sub.add_parser("rank-paths", help="rank equal-size paths by inflated-correlation weight")
    p.add_argument("model")
    p.add_argument("--vertices", type=_number(int, 1, "an integer of at least 2"), required=True)
    p.add_argument("--top", type=_NON_NEGATIVE_INT)
    p.add_argument("--cap", type=_POSITIVE_INT, default=DEFAULT_PATH_CAP)
    _add_common(p)
    p.set_defaults(handler=_cmd_rank_paths)

    p = sub.add_parser("edges", help="per-edge association measures")
    p.add_argument("model")
    _add_common(p)
    p.set_defaults(handler=_cmd_edges)

    p = sub.add_parser("fit", help="graph-constrained MLE from a sample covariance")
    p.add_argument("covariance", help="sample covariance CSV (label header row/column)")
    p.add_argument("graph", help="model file providing the graph")
    p.add_argument("output", help="path of the fitted model file to write")
    p.add_argument("--tol", type=_number(float, 0, "a finite number greater than 0"), default=1e-9)
    p.add_argument("--max-iter", type=_POSITIVE_INT, default=10000)
    _add_common(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("mtp2", help="sign assignment making all edges nonnegative")
    p.add_argument("model")
    _add_common(p)
    p.set_defaults(handler=_cmd_mtp2)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (PathWeightsError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
