"""Command line entry points: `mdclab run` and `mdclab surface-kernel`."""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace

from .errors import (CausticError, ConfigError, DegenerateCoeffs, DegenerateParams, DeltaConstraintError,
                     MissingVertex, NearCaustic, OutOfRegime)
from .harness import SUITES, SuiteConfig, run, sweep_rows, write_csv

# the points besides (3, 2, 1) come from the explicit triples or the sampling range; at mu + nu = pi the corner
# pivots of the 1-form checks vanish, and far out float64 rounds a kernel's pivot away to a delta
POINT_ERRORS = (CausticError, DegenerateCoeffs, DegenerateParams, DeltaConstraintError, NearCaustic, OutOfRegime)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mdclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run verification suites and write a JSON report")
    runp.add_argument("--config", help="JSON config file (see README for the schema)")
    runp.add_argument("--suite", action="append", choices=SUITES,
                      help="run only this suite (repeatable)")
    runp.add_argument("--seed", type=int, help="override the random seed")
    runp.add_argument("--trials", type=int, help="override the trial count")
    runp.add_argument("--hbar", type=float, help="override the action scale")
    runp.add_argument("--tol", action="append", metavar="NAME=VALUE", default=[],
                      help="override one named tolerance (repeatable)")
    runp.add_argument("--out", help="write the JSON report here")
    runp.add_argument("--csv", help="write the residual sweep rows here")
    runp.add_argument("--quiet", action="store_true", help="print only the summary line")

    surf = sub.add_parser(
        "surface-kernel",
        help="integrate the interior of a surface description and emit the boundary kernel",
    )
    surf.add_argument("--surface", required=True, help="JSON surface description file")
    surf.add_argument("--params", nargs=3, type=float, required=True,
                      metavar=("P1", "P2", "P3"), help="the three direction parameters")
    surf.add_argument("--out", help="write the canonical kernel JSON here (default stdout)")
    # argparse on Python 3.11 reads only -5 and -0.5 as negative numbers, and -5e-1, -1E+3 or -.5e2 as options
    runp._negative_number_matcher = surf._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    return parser


def _apply_overrides(config: SuiteConfig, args: argparse.Namespace) -> SuiteConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.hbar is not None:
        updates["hbar"] = args.hbar
    if args.suite:
        updates["suites"] = tuple(args.suite)
    if args.tol:
        tols = dict(config.tolerances)
        for item in args.tol:
            if "=" not in item:
                raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
            name, _, value = item.partition("=")
            try:
                tols[name] = float(value)
            except ValueError as exc:
                raise ConfigError(f"bad tolerance value in {item!r}") from exc
        updates["tolerances"] = tols
    return replace(config, **updates) if updates else config


def _surface_kernel_command(args: argparse.Namespace) -> int:
    from .params import LatticeParams
    from .qsurface import canonical_lattice_coeffs, surface_from_dict, surface_kernel

    try:
        point = LatticeParams(*args.params)  # rejects non-finite values
        with open(args.surface, encoding="utf-8") as fh:
            surface = surface_from_dict(json.load(fh))
        coeffs = canonical_lattice_coeffs(point.p, point.q, point.r)
        kernel = surface_kernel(surface, coeffs)
    # json.load raises ValueError on a file that is not UTF-8 JSON or holds an integer of over 4300 digits
    except (OSError, ValueError, MissingVertex, DegenerateParams, NearCaustic) as exc:
        print(f"surface error: {exc}", file=sys.stderr)
        return 2
    except DeltaConstraintError as exc:
        print(f"inadmissible surface: {exc}", file=sys.stderr)
        return 1
    try:
        text = kernel.to_json()
    except ValueError as exc:  # finite parameters can still overflow to inf or NaN
        print(f"surface error: kernel is not finite: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 2
        print(f"kernel written to {args.out}")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "surface-kernel":
        return _surface_kernel_command(args)
    try:
        config = SuiteConfig.from_file(args.config) if args.config else SuiteConfig()
        config = _apply_overrides(config, args)
        report = run(config)  # a sampling range too thin to fill raises ConfigError here
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except POINT_ERRORS as exc:
        print(f"config error: parameter point not admissible: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        for rec in report.records:
            status = "PASS" if rec.passed else "FAIL"
            if rec.kind == "report":
                print(f"  [report] {rec.name}: residual={rec.residual:.3e}")
            else:
                bound = "<=" if rec.kind == "check" else ">"
                print(
                    f"  [{status}] {rec.name}: residual={rec.residual:.3e} "
                    f"(want {bound} {rec.tolerance:.3e})"
                )
    summary = report.summary()
    print(
        f"mdclab: {summary['passed']}/{summary['total']} records passed "
        f"({summary['check']} checks, {summary['probe']} probes, {summary['report']} reports)"
    )
    # exit 1 means failed records, so an output that cannot be written exits 2
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
            print(f"report written to {args.out}")
        if args.csv:
            write_csv(args.csv, sweep_rows(config))
            print(f"sweep rows written to {args.csv}")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return 0 if not report.failed else 1


if __name__ == "__main__":
    sys.exit(main())
