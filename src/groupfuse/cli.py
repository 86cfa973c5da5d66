"""Command-line surface: fit models on CSV data, run simulation grids,
and emit plot-ready data.

Exit codes: 0 success (and, for ``fit``, convergence), 1 malformed input,
2 fit completed without meeting the convergence criteria (the result file
is still written).
"""

from __future__ import annotations

import argparse
import json
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .datasets import DatasetError, load_dataset, standardize_columns
from .detection import DEFAULT_FUSION_TOL, segments_from_detected
from .model import GroupedDesign, ProblemSpec
from .simulation import (ConfigError, format_table, load_scenario_grid,
                         run_monte_carlo, write_report_csv, write_report_json)
from .solver import SolverConfig, default_schedules, fit

FIT_SCHEMA_VERSION = 1


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupfuse",
        description="Fused-group regression: estimate grouped coefficients "
                    "and detect which successive groups differ.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one model on a CSV dataset")
    p_fit.add_argument("data", help="CSV file with a header row")
    p_fit.add_argument("--response", required=True,
                       help="name of the response column")
    p_fit.add_argument("--group-map",
                       help="JSON file: ordered list of groups, each an "
                            "ordered list of column names (default: infer "
                            "groups from <var>_<groupindex> column names)")
    p_fit.add_argument("--loss", choices=["ls", "quantile"], default="ls")
    p_fit.add_argument("--tau", type=float, default=ProblemSpec.tau,
                       help="quantile level (quantile loss only)")
    p_fit.add_argument("--q", type=int, choices=[1, 2], default=ProblemSpec.q,
                       help="norm index of the difference penalty")
    p_fit.add_argument("--lambda", dest="lam", type=float,
                       help="tuning parameter (user units; the objective "
                            "multiplies by n internally)")
    p_fit.add_argument("--auto-lambda", action="store_true",
                       help="use the built-in rate schedule for the stage")
    p_fit.add_argument("--adaptive", action="store_true",
                       help="two-stage fit: plain fused pilot, then "
                            "adaptive weights")
    p_fit.add_argument("--gamma", type=float, default=ProblemSpec.gamma,
                       help="adaptive weight exponent")
    p_fit.add_argument("--pilot-lambda", type=float,
                       help="tuning value for the pilot stage (default: "
                            "fused schedule)")
    p_fit.add_argument("--fusion-tol", type=float, default=DEFAULT_FUSION_TOL)
    p_fit.add_argument("--standardize", action="store_true",
                       help="center and scale covariate columns; the "
                            "transform is recorded in the output")
    p_fit.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p_fit.add_argument("--out", required=True, help="result JSON path")

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo scenario grid")
    p_sim.add_argument("config", help="key=value grid config file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--runs", type=int,
                       help="override the number of Monte Carlo runs")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="parallel replication processes (default: 1)")

    p_plot = sub.add_parser("plotdata",
                            help="flatten a fit result into plot-ready CSV")
    p_plot.add_argument("result", help="fit result JSON")
    p_plot.add_argument("--out", required=True, help="estimates CSV path")
    p_plot.add_argument("--boundaries-out",
                        help="segment boundary CSV path (default: "
                             "<out>_boundaries.csv)")
    return parser


def cmd_fit(args) -> int:
    try:
        design, groups = load_dataset(args.data, args.response,
                                      args.group_map)
    except (DatasetError, OSError) as exc:
        return _fail(str(exc))

    standardize_info = None
    if args.standardize:
        Xs, mean, scale = standardize_columns(design.X)
        design = GroupedDesign(X=Xs, y=design.y, g=design.g, p=design.p)
        standardize_info = {"mean": mean.tolist(), "scale": scale.tolist()}

    if args.lam is None and not args.auto_lambda:
        return _fail("pass --lambda VALUE or --auto-lambda")
    if args.lam is not None and args.auto_lambda:
        return _fail("--lambda and --auto-lambda are mutually exclusive")

    n = design.n
    stage = "adaptive" if args.adaptive else "fused"
    lam = args.lam if args.lam is not None else default_schedules(n, stage)[0]

    try:
        cfg = SolverConfig(max_iter=args.max_iter, fusion_tol=args.fusion_tol)
        if args.adaptive:
            pilot_lam = (args.pilot_lambda if args.pilot_lambda is not None
                         else default_schedules(n, "fused")[0])
            pilot = fit(design, ProblemSpec(loss=args.loss, tau=args.tau,
                                            q=args.q, lam=pilot_lam), cfg)
            spec = ProblemSpec(loss=args.loss, tau=args.tau, q=args.q,
                               lam=lam, weight_mode="adaptive",
                               gamma=args.gamma, pilot=pilot.beta)
            result = fit(design, spec, replace(cfg, warm_start=pilot.beta))
            pilot_info = {"converged": pilot.converged,
                          "iterations": pilot.iterations,
                          "objective": pilot.objective}
        else:
            pilot_lam = pilot_info = None
            spec = ProblemSpec(loss=args.loss, tau=args.tau, q=args.q,
                               lam=lam)
            result = fit(design, spec, cfg)
    except ValueError as exc:
        return _fail(str(exc))

    g = design.g
    segments = [
        {
            "start": start,
            "end": end,
            "coefficients": np.mean(
                [result.beta.blocks[j - 1] for j in range(start, end + 1)],
                axis=0).tolist(),
        }
        for start, end in segments_from_detected(result.detected_set, g)
    ]
    payload = {
        "schema_version": FIT_SCHEMA_VERSION,
        "estimator": {
            "loss": args.loss,
            "tau": args.tau if args.loss == "quantile" else None,
            "q": args.q,
            "lambda": lam,
            "adaptive": args.adaptive,
            "gamma": args.gamma if args.adaptive else None,
            "pilot_lambda": pilot_lam,
            "fusion_tol": args.fusion_tol,
        },
        "n": n,
        "g": g,
        "p": design.p,
        "group_columns": groups,
        "coefficients": [b.tolist() for b in result.beta.blocks],
        "detected": list(result.detected_set),
        "segments": segments,
        "diagnostics": {
            "converged": result.converged,
            "iterations": result.iterations,
            "objective": result.objective,
            "primal_residual": result.primal_residual,
            "dual_residual": result.dual_residual,
            "overparameterized": result.overparameterized,
            "pilot": pilot_info,
        },
        "standardize": standardize_info,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0 if result.converged else 2


def cmd_simulate(args) -> int:
    try:
        scenarios = load_scenario_grid(args.config)
    except (ConfigError, OSError) as exc:
        return _fail(str(exc))
    if not scenarios:
        return _fail("config defines no scenarios")
    if args.runs is not None:
        if args.runs < 1:
            return _fail("--runs must be at least 1")
        scenarios = [replace(s, M=args.runs) for s in scenarios]

    if args.workers < 1:
        return _fail("--workers must be at least 1")
    os.makedirs(args.out, exist_ok=True)
    reports = []
    for spec in scenarios:
        reports.append(run_monte_carlo(spec, workers=args.workers))
    write_report_csv(reports, os.path.join(args.out, "report.csv"))
    write_report_json(reports, os.path.join(args.out, "report.json"))

    print(format_table(reports))
    total = sum(rep.wall_time for rep in reports)
    print(f"{len(reports)} scenario(s) in {total:.1f}s "
          f"({args.workers} worker(s)); reports in {args.out}")
    return 0


def cmd_plotdata(args) -> int:
    try:
        with open(args.result, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        return _fail(str(exc))
    except json.JSONDecodeError as exc:
        return _fail(f"invalid JSON at line {exc.lineno}: {exc.msg}")
    try:
        g = int(payload["g"])
        p = int(payload["p"])
        coefficients = payload["coefficients"]
        detected = [int(j) for j in payload["detected"]]
        if len(coefficients) != g or any(len(b) != p for b in coefficients):
            raise KeyError("coefficients do not match g and p")
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"not a fit result file: {exc}")

    boundaries_out = args.boundaries_out
    if boundaries_out is None:
        base, ext = os.path.splitext(args.out)
        boundaries_out = f"{base}_boundaries{ext or '.csv'}"

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group_index", "coordinate_index", "estimate"])
        for j in range(1, g + 1):
            for k in range(1, p + 1):
                writer.writerow([j, k, coefficients[j - 1][k - 1]])
    with open(boundaries_out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["boundary_pair"])
        for j in sorted(detected):
            writer.writerow([j])
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "fit":
        return cmd_fit(args)
    if args.command == "simulate":
        return cmd_simulate(args)
    return cmd_plotdata(args)


if __name__ == "__main__":
    sys.exit(main())
