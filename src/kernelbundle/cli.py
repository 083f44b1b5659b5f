"""Command line front end.

Subcommands mirror the pipeline stages: ``locate`` finds determinant zeros at
the base parameter, ``reduce`` builds and validates the base point data,
``frame`` and ``pair`` evaluate the canonical frames and their pairing at a
parameter value, ``sweep`` runs the full grid driver, and ``trace`` expands
the trace germ of a scalar family into a window of exponents.

Exit codes: 0 success, 2 malformed input, 3 failed validation, 4 numerical
failure (resolution, degeneracy, clustered zeros and the like).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .contour import locate_zeros
from .errors import (
    ConfigurationError,
    InputError,
    KernelBundleError,
    NumericalError,
    RegionError,
    ValidationError,
)
from .frames import frames_at, independence_check, make_germ
from .pairing import expected_base_pairing, pairing_matrix
from .reduction import _det_function, validate_neighborhood
from .shell import (
    ParameterGrid,
    _cluster_rect,
    _write_json,
    branching_diagram,
    canonical_systems,
    load_problem_file,
    probe_from_spec,
    sweep,
    trace_from_germ,
)

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


def _parse_y(problem, value):
    if value is None:
        return problem.y0
    try:
        parts = [float(p) for p in value.split(",")]
    except ValueError:
        raise InputError(f"--y needs comma separated numbers, got {value!r}") from None
    if len(parts) != problem.chart.param_dim:
        raise InputError(
            f"--y needs {problem.chart.param_dim} comma separated values, got {len(parts)}"
        )
    return np.asarray(parts)


def _grid(problem, args) -> ParameterGrid:
    if getattr(args, "grid", None):
        try:
            ranges = []
            for axis in args.grid.split(";"):
                lo, hi, count = axis.split(",")
                ranges.append((float(lo), float(hi), int(count)))
        except ValueError:
            raise InputError(f"--grid needs lo,hi,count[;lo,hi,count], got {args.grid!r}") from None
        return ParameterGrid.from_ranges(ranges)
    if problem.grid is None:
        raise InputError("no grid in the problem file; pass --grid lo,hi,count")
    return problem.grid


def cmd_locate(args) -> int:
    problem = load_problem_file(args.spec)
    problem.check_r_bound([])
    chart = problem.chart
    region = chart.sigma.search_rect
    min_sep = problem.min_separation
    if min_sep is None:
        min_sep = max(region.width, region.height) / 64.0
    report = locate_zeros(
        _det_function(chart, problem.y0), region, min_separation=min_sep, initial_nodes=args.nodes
    )
    _write_json(report.to_dict(), args.out)
    return 0


def cmd_reduce(args) -> int:
    problem = load_problem_file(args.spec)
    grid = problem.grid.points() if problem.grid is not None else [problem.y0]
    problem.check_r_bound(grid)
    base = problem.base()
    systems, duals = canonical_systems(problem.chart, base, 2 * args.nodes)
    validation = validate_neighborhood(problem.chart, base, y_grid=grid)
    out = {
        "base": base.to_dict(),
        "validation": validation.to_dict(),
        "lengths": [list(sy.lengths) for sy in systems],
        "dual_delta_residual": max(d.delta_residual for d in duals),
    }
    _write_json(out, args.out)
    return 0 if validation.passed else EXIT_VALIDATION


def cmd_frame(args) -> int:
    problem = load_problem_file(args.spec)
    y = _parse_y(problem, args.y)
    problem.check_r_bound([y])
    base = problem.base()
    systems, duals = canonical_systems(problem.chart, base, 2 * args.nodes)
    frame, _ = frames_at(problem.chart, base, systems, duals, y, node_count=args.nodes)
    cond = independence_check(frame, base)
    out = {
        "y": [float(v) for v in np.atleast_1d(y)],
        "labels": [list(lab) for lab in frame.labels],
        "independence_condition": cond,
        "carriers": [
            {
                "center": [g.center.real, g.center.imag],
                "radius": g.rho,
                "nodes": g.carrier.circle.node_count,
            }
            for g, size in zip(frame.blocks, frame.sizes())
            for _ in range(size)
        ],
    }
    _write_json(out, args.out)
    return 0


def cmd_pair(args) -> int:
    problem = load_problem_file(args.spec)
    y = _parse_y(problem, args.y)
    problem.check_r_bound([y])
    base = problem.base()
    systems, duals = canonical_systems(problem.chart, base, 2 * args.nodes)
    frame, dual = frames_at(problem.chart, base, systems, duals, y, node_count=args.nodes)
    pm = pairing_matrix(problem.chart, frame, dual, base, y, node_count=2 * args.nodes)
    base_gap = None
    if np.allclose(np.atleast_1d(y), np.atleast_1d(problem.y0)):
        base_gap = float(np.max(np.abs(pm.matrix - expected_base_pairing(systems))))
    out = {
        "y": [float(v) for v in np.atleast_1d(y)],
        "labels": [list(lab) for lab in pm.labels],
        "condition": pm.condition,
        "matrix": [[[v.real, v.imag] for v in row] for row in pm.matrix],
    }
    if base_gap is not None:
        out["base_pattern_gap"] = base_gap
    _write_json(out, args.out)
    return 0


def cmd_sweep(args) -> int:
    problem = load_problem_file(args.spec)
    grid = _grid(problem, args)
    if args.csv and grid.ndim != 1:
        raise InputError("branching diagrams are defined along a single parameter axis")
    problem.check_r_bound(grid.points())
    base = problem.base()
    systems, duals = canonical_systems(problem.chart, base, 2 * args.nodes)
    probe = None
    if problem.probe_entries:
        size = sum(sy.total for sy in systems)
        probe = probe_from_spec(problem.probe_entries, size)
    report = sweep(
        problem.chart,
        base,
        grid,
        probe=probe,
        node_count=args.nodes,
        systems=systems,
        duals=duals,
    )
    if args.csv:
        branching_diagram(problem.chart, base, grid, out=args.csv)
    _write_json(report.to_dict(), args.out)
    return 0 if not report.failures else EXIT_VALIDATION


def cmd_trace(args) -> int:
    problem = load_problem_file(args.spec)
    chart = problem.chart
    if chart.n != 1:
        raise InputError("trace expansions are defined for scalar families")
    base = problem.base()
    y0 = problem.y0

    def inv_trace(sig):
        return np.trace(np.linalg.inv(chart.eval_many(y0, sig)), axis1=1, axis2=2)[:, None]

    det = _det_function(chart, y0)
    pieces = []
    for cl in base.clusters:
        carrier = cl.carrier(args.nodes)
        germ = make_germ(inv_trace, carrier.center, carrier.radius, carrier.node_count)
        zrep = locate_zeros(det, _cluster_rect(cl), min_separation=cl.radius / 64.0)
        poles = [(z.location, z.multiplicity) for z in zrep.zeros]
        pieces.append(trace_from_germ(germ, poles, args.gamma, args.window))
    merged = pieces[0]
    for extra in pieces[1:]:
        merged.terms.extend(extra.terms)
        merged.dropped.extend(extra.dropped)
    merged.terms.sort(key=lambda t: (round(-t.sigma.imag, 9), round(t.sigma.real, 9), t.power))
    _write_json(merged.to_dict(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kernelbundle")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="problem description JSON file")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")
        p.add_argument("--nodes", type=int, default=128, help="quadrature nodes per circle")

    p = sub.add_parser("locate", help="zeros of the family determinant at the base parameter")
    common(p)

    p = sub.add_parser("reduce", help="base point data, neighborhood validation, chain lengths")
    common(p)

    p = sub.add_parser("frame", help="canonical frame at a parameter value")
    common(p)
    p.add_argument("--y", default=None, help="parameter value, comma separated")

    p = sub.add_parser("pair", help="pairing matrix of frame against dual frame")
    common(p)
    p.add_argument("--y", default=None, help="parameter value, comma separated")

    p = sub.add_parser("sweep", help="grid sweep with frames, pairing, probe recovery")
    common(p)
    p.add_argument("--grid", default=None, help="override grid: lo,hi,count[;lo,hi,count]")
    p.add_argument("--csv", default=None, help="also write the branching diagram CSV here")

    p = sub.add_parser("trace", help="trace expansion of a scalar family at the base point")
    common(p)
    p.add_argument("--gamma", type=float, required=True, help="upper edge of the decay window")
    p.add_argument("--window", type=float, required=True, help="width of the decay window")

    return parser


COMMANDS = {
    "locate": cmd_locate,
    "reduce": cmd_reduce,
    "frame": cmd_frame,
    "pair": cmd_pair,
    "sweep": cmd_sweep,
    "trace": cmd_trace,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.nodes < 16:
            raise InputError(f"--nodes must be at least 16, got {args.nodes}")
        return COMMANDS[args.command](args)
    except (ValidationError, RegionError, ConfigurationError) as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (KernelBundleError, OSError) as exc:
        # InputError and anything else malformed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
