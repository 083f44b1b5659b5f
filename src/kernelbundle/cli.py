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
import re
import sys

import numpy as np

from .contour import SampledFunction, _polar, circle_zeros
from .errors import (
    ConfigurationError,
    DimensionJumpError,
    InputError,
    KernelBundleError,
    NumericalError,
    RegionError,
    ValidationError,
)
from .frames import Germ, frames_at, independence_check
from .pairing import expected_base_pairing, pairing_matrix
from .keldysh import base_samples
from .reduction import _located, validate_neighborhood
from .shell import (
    ParameterGrid,
    _diagram,
    _write_json,
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
    if not np.isfinite(parts).all():
        raise InputError(f"--y needs finite values, got {value!r}")
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
    report = _located(problem.chart, problem.y0, problem.min_separation, args.nodes)
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
    pm = pairing_matrix(problem.chart, frame, dual, base, y)
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
    try:
        report = sweep(problem.chart, base, grid, probe=probe, node_count=args.nodes, systems=systems, duals=duals)
    except DimensionJumpError as err:
        # the points before the jump are still written; the jump itself exits 4
        _write_json(err.partial_report.to_dict(), args.out)
        raise
    if args.csv:
        # the diagram reads the count circles the sweep sampled: no second pass over the grid
        _diagram(base, report.outer_samples, args.csv)
    _write_json(report.to_dict(), args.out)
    return 0 if not report.failures else EXIT_VALIDATION


def cmd_trace(args) -> int:
    problem = load_problem_file(args.spec)
    chart = problem.chart
    if chart.n != 1:
        raise InputError("trace expansions are defined for scalar families")
    base = problem.base()
    pieces = []
    # the base samples give each carrier's germ of tr P^-1 and its poles: an n = 1 family reduces to P
    # itself, on 1 x 1 unit bases (to roundoff) with no complement block, so its zeros inside are the cluster's
    for cl, samples in zip(base.clusters, base_samples(chart, base, args.nodes)):
        carrier, values = samples.circle, samples.values[:, 0]
        germ = Germ(carrier.center, SampledFunction(carrier, 1.0 / values))
        zeros = circle_zeros(carrier, *_polar(values[:, 0]), cl.multiplicity, cl.radius / 64.0)
        pieces.append(trace_from_germ(germ, [(z.location, z.multiplicity) for z in zeros], args.gamma, args.window))
    merged = pieces[0]
    for extra in pieces[1:]:
        merged.terms.extend(extra.terms)
        merged.dropped.extend(extra.dropped)
    # every piece passed its own cross-check; report the worst of them
    gaps = [p.symbolic_numeric_gap for p in pieces if p.symbolic_numeric_gap is not None]
    merged.symbolic_numeric_gap = max(gaps, default=None)
    merged.terms.sort(key=lambda t: (round(-t.sigma.imag, 9), round(t.sigma.real, 9), t.power))
    _write_json(merged.to_dict(), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # a word of '-' and a digit is a value, as in --grid -0.1,0.1,3, not a plain negative number alone;
        # add_subparsers builds the subcommands' parsers of this class too
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kernelbundle")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text):
        p = sub.add_parser(name, help=text)
        p.add_argument("--spec", required=True, help="problem description JSON file")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")
        p.add_argument("--nodes", type=int, default=128, help="quadrature nodes per circle")
        p.set_defaults(run=run)
        return p

    command("locate", cmd_locate, "zeros of the family determinant at the base parameter")
    command("reduce", cmd_reduce, "base point data, neighborhood validation, chain lengths")
    for name, run, text in (("frame", cmd_frame, "canonical frame at a parameter value"),
                            ("pair", cmd_pair, "pairing matrix of frame against dual frame")):
        command(name, run, text).add_argument("--y", default=None, help="parameter value, comma separated")
    p = command("sweep", cmd_sweep, "grid sweep with frames, pairing, probe recovery")
    p.add_argument("--grid", default=None, help="override grid: lo,hi,count[;lo,hi,count]")
    p.add_argument("--csv", default=None, help="also write the branching diagram CSV here")
    p = command("trace", cmd_trace, "trace expansion of a scalar family at the base point")
    p.add_argument("--gamma", type=float, required=True, help="upper edge of the decay window")
    p.add_argument("--window", type=float, required=True, help="width of the decay window")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.nodes < 16:
            raise InputError(f"--nodes must be at least 16, got {args.nodes}")
        return args.run(args)
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
