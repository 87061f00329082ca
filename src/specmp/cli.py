"""Command-line front end: density tables, simulations and theory checks.

Four subcommands produce CSV/JSON artifacts for external plotting:

  gamma-density   density (or atoms) of the Toeplitz autocovariance limit
  lsd-density     limit density of p^{-1} X X^T via the fixed-point solver
  simulate        eigenvalues of simulated sample covariance matrices
  compare         simulation against theory with a KS/pass-fail report

Exit codes: 0 success, 2 validation failure, 3 numerical failure.  All output
is deterministic given the configuration and seed.  Replicates run one after
another; the rows of each matrix are spread over the CPUs (see
``simulate_matrix``), and the eigensolve's BLAS threads are OpenBLAS's own.

Importing this module loads NumPy only, and no subcommand loads SciPy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .linear_process import ModelSpecError, model_from_spec, model_to_spec
from .simulator import (
    INNOVATION_LAWS, SimulationPlan, histogram, ks_distance, sample_cov_eigenvalues, simulate_matrix
)
from .stieltjes import GRID_MIN_SIZE, ConvergenceError, default_grid, invert_to_density, lsd_cdf
from .toeplitz_lsd import AtomicLSD, gamma_lsd

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_KS_THRESHOLD = 0.05
_SCALE_AWARE_MIN_P = 500


def _fmt(x):
    return f"{float(x):.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_model(args):
    if args.model is not None and args.model_file is not None:
        raise ModelSpecError("pass either --model or --model-file, not both")
    if args.model is not None:
        return model_from_spec(args.model)
    if args.model_file is not None:
        with open(args.model_file, "r", encoding="utf-8") as fh:
            return model_from_spec(fh.read())
    raise ModelSpecError("a model is required (--model or --model-file)")


def _require_y(args):
    if not (args.y > 0.0 and math.isfinite(args.y)):
        raise ModelSpecError("--y must be positive and finite")
    return args.y


def _require_grid(args, least):
    if args.grid < least:
        raise ModelSpecError(f"--grid must be at least {least}")
    return args.grid


def cmd_gamma_density(args):
    model = _load_model(args)
    n = _require_grid(args, 1)
    lsd = gamma_lsd(model)
    if isinstance(lsd, AtomicLSD):
        _write_csv(args.out + ".csv", ("level", "weight"), zip(lsd.levels, lsd.weights))
        for level, weight in lsd.atoms:
            print(f"atom {_fmt(level)} {_fmt(weight)}")
        return EXIT_OK
    lo, hi = lsd.support
    lam = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    _write_csv(args.out + ".csv", ("lambda", "g_lambda"), zip(lam, lsd.density(lam)))
    print(f"{_fmt(lo)} {_fmt(hi)}")
    return EXIT_OK


def cmd_lsd_density(args):
    model = _load_model(args)
    y = _require_y(args)
    size = _require_grid(args, GRID_MIN_SIZE)
    lsd = gamma_lsd(model)
    grid = default_grid(lsd, y, size=size)
    density = invert_to_density(lsd, y, grid=grid)
    _write_csv(args.out + ".csv", ("x", "p_x"), zip(density.grid, density.values))
    _write_json(
        args.out + ".json",
        {
            "y": y,
            "mass_at_zero": density.mass_at_zero,
            "model": model_to_spec(model),
            "solver": {
                "iterations": density.iterations,
                "max_residual": density.max_residual,
                "offset": density.offset,
            },
        },
    )
    return EXIT_OK


def _run_replicates(plan):
    def one(k):
        # X goes out of scope on return, before the next replicate draws its own
        X = simulate_matrix(plan, replicate=k)
        if plan.center:
            # the trace check is of the centred matrix, whose spectrum is reported
            X = X - X.mean(axis=1, keepdims=True)
        spectrum = sample_cov_eigenvalues(X, center=plan.center)
        trace = float(np.vdot(X, X) / plan.p)
        return spectrum, trace

    return [one(k) for k in range(plan.replicates)]


def _plan_from_args(args, model):
    if args.p < 2:
        raise ModelSpecError("--p must be at least 2")
    try:
        return SimulationPlan(
            p=args.p,
            y=_require_y(args),
            model=model,
            law=args.law,
            mu=args.mu,
            center=args.center,
            seed=args.seed,
            replicates=args.replicates,
        )
    except ValueError as exc:
        raise ModelSpecError(str(exc)) from exc


def cmd_simulate(args):
    model = _load_model(args)
    plan = _plan_from_args(args, model)
    results = _run_replicates(plan)
    replicates = []
    for k, (spectrum, trace) in enumerate(results):
        path = f"{args.out}_rep{k}.csv"
        _write_csv(path, ("eigenvalue",), ((v,) for v in spectrum.eigenvalues))
        eig_sum = float(spectrum.eigenvalues.sum())
        replicates.append(
            {
                "csv": path,
                "trace_check": {
                    "trace": trace,
                    "eigenvalue_sum": eig_sum,
                    "rel_err": abs(trace - eig_sum) / max(trace, 1e-300),
                },
                # the KS statistic needs the theoretical CDF; `compare` fills it
                "ks": None,
            }
        )
    _write_json(
        args.out + "_summary.json",
        {"seed": plan.seed, "plan": _plan_payload(plan), "replicates": replicates},
    )
    return EXIT_OK


def _plan_payload(plan):
    return {
        "p": plan.p,
        "n": plan.n,
        "y": plan.y,
        "model": model_to_spec(plan.model),
        "law": plan.law,
        "mu": plan.mu,
        "center": plan.center,
        "seed": plan.seed,
        "replicates": plan.replicates,
    }


def cmd_compare(args):
    model = _load_model(args)
    plan = _plan_from_args(args, model)
    size = _require_grid(args, GRID_MIN_SIZE)
    lsd = gamma_lsd(model)
    grid = default_grid(lsd, plan.y, size=size)
    density = invert_to_density(lsd, plan.y, grid=grid)
    theory = lambda x: lsd_cdf(density, x)

    results = _run_replicates(plan)
    per_replicate = []
    for spectrum, trace in results:
        ks = ks_distance(spectrum, theory)
        hist_l1 = _histogram_l1(spectrum, density)
        per_replicate.append({"ks": ks, "hist_l1": hist_l1, "trace": trace})
    ks_values = [r["ks"] for r in per_replicate]
    scale_aware = plan.p >= _SCALE_AWARE_MIN_P
    passed = bool(max(ks_values) <= _KS_THRESHOLD) if scale_aware else None
    _write_json(
        args.out + ".json",
        {
            "plan": _plan_payload(plan),
            "mass_at_zero": density.mass_at_zero,
            "replicates": per_replicate,
            "ks_max": max(ks_values),
            "ks_median": float(np.median(ks_values)),
            "thresholds": {"ks": _KS_THRESHOLD, "scale_aware_min_p": _SCALE_AWARE_MIN_P},
            "pass": passed,
            "note": None if scale_aware else f"pass/fail thresholds apply at p >= {_SCALE_AWARE_MIN_P}",
        },
    )
    return EXIT_OK


def _histogram_l1(spectrum, density):
    # total-variation style distance between binned ESD mass and theory mass
    hi = max(float(density.grid[-1]), float(spectrum.eigenvalues.max(initial=1.0)))
    edges, dens, emp_zero = histogram(spectrum, 60, lo=0.0, hi=hi, separate_zero_atom=True)
    emp_mass = dens * np.diff(edges)
    theory_mass = np.diff(lsd_cdf(density, edges))
    return float(abs(emp_zero - density.mass_at_zero) + np.abs(emp_mass - theory_mass).sum())


def _add_model_args(sub):
    sub.add_argument("--model", help="model spec JSON (inline)")
    sub.add_argument("--model-file", help="path to a model spec JSON file")


def _add_sim_args(sub):
    sub.add_argument("--p", type=int, required=True, help="matrix rows (dimension)")
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub.add_argument("--replicates", type=int, default=1)
    sub.add_argument("--law", choices=INNOVATION_LAWS, default="normal")
    sub.add_argument("--mu", type=float, default=0.0, help="mean shift added to every entry")
    sub.add_argument("--center", action="store_true", help="subtract the empirical column mean")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specmp",
        description="Limiting spectra of sample covariance matrices with dependent rows",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    g = commands.add_parser("gamma-density", help="Toeplitz autocovariance limit density")
    _add_model_args(g)
    g.add_argument("--grid", type=int, default=512, help="number of interior table points")
    g.add_argument("--out", required=True, help="output path prefix")
    g.set_defaults(func=cmd_gamma_density)

    l = commands.add_parser("lsd-density", help="limit density of p^{-1} X X^T")
    _add_model_args(l)
    l.add_argument("--y", type=float, required=True, help="aspect ratio n/p")
    l.add_argument("--grid", type=int, default=512)
    l.add_argument("--out", required=True)
    l.set_defaults(func=cmd_lsd_density)

    s = commands.add_parser("simulate", help="simulate sample covariance spectra")
    _add_model_args(s)
    s.add_argument("--y", type=float, required=True)
    _add_sim_args(s)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    c = commands.add_parser("compare", help="simulation versus theory report")
    _add_model_args(c)
    c.add_argument("--y", type=float, required=True)
    _add_sim_args(c)
    c.add_argument("--grid", type=int, default=512)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ModelSpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
