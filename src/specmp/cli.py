"""Command-line front end: density tables, simulations and theory checks.

Four subcommands produce CSV/JSON artifacts for external plotting:

  gamma-density   density (or atoms) of the Toeplitz autocovariance limit
  lsd-density     limit density of p^{-1} X X^T via the fixed-point solver
  simulate        eigenvalues of simulated sample covariance matrices
  compare         simulation against F solved at its eigenvalues: KS, pass/fail

Exit codes: 0 success, 2 validation failure (a ValueError, the library's
refusal of an input, or a UserWarning that ``-W error`` raises), 3 numerical
failure (a ConvergenceError, LinAlgError or ArithmeticError).  All output is
deterministic given the configuration and seed.  Replicates run one after
another and each matrix is simulated on the calling thread (see
``simulate_matrix``); the eigensolve's BLAS threads are OpenBLAS's own.

Importing this module loads NumPy only, and no subcommand loads SciPy.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .linear_process import ModelSpecError, _integer, model_from_spec, model_to_spec
from .simulator import INNOVATION_LAWS, SimulationPlan, ks_distance, sample_cov_eigenvalues, simulate_matrix
from .stieltjes import ConvergenceError, default_grid, estimate_support_upper, invert_to_density, lsd_cdf
from .toeplitz_lsd import AtomicLSD, gamma_density, gamma_lsd, support_bounds

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


def cmd_gamma_density(args):
    model = _load_model(args)
    n = _integer(args.grid, "--grid", 1)
    lsd = gamma_lsd(model)
    if isinstance(lsd, AtomicLSD):
        atoms = list(zip(lsd.levels, lsd.weights))
        _write_csv(args.out + ".csv", ("level", "weight"), atoms)
        for level, weight in atoms:
            print(f"atom {_fmt(level)} {_fmt(weight)}")
        return EXIT_OK
    lo, hi = support_bounds(lsd.f)
    lam = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    _write_csv(args.out + ".csv", ("lambda", "g_lambda"), zip(lam, gamma_density(lsd.f, lam)))
    print(f"{_fmt(lo)} {_fmt(hi)}")
    return EXIT_OK


def cmd_lsd_density(args):
    model, y = _load_model(args), args.y
    lsd = gamma_lsd(model)
    grid = default_grid(lsd, y, size=args.grid)
    density = invert_to_density(lsd, y, grid=grid)
    _write_csv(args.out + ".csv", ("x", "p_x"), zip(density.grid, density.values))
    _write_json(
        args.out + ".json",
        {
            "y": y,
            "mass_at_zero": density.mass_at_zero,
            "model": model_to_spec(model),
            "solver": {
                "law": lsd.kind,
                "iterations": density.iterations,
                "max_residual": density.max_residual,
                "offset": density.offset,
            },
        },
    )
    return EXIT_OK


def _run_replicates(plan):
    # each matrix is handed over without a name, so sample_cov_eigenvalues can
    # free it before the eigensolve; the spectrum carries the trace to check
    return [
        sample_cov_eigenvalues(simulate_matrix(plan, replicate=k), center=plan.center)
        for k in range(plan.replicates)
    ]


def _plan_from_args(args, model):
    flags = ("y", "law", "mu", "center", "seed", "replicates")
    return SimulationPlan(p=_integer(args.p, "--p", 2), model=model, **{name: getattr(args, name) for name in flags})


def cmd_simulate(args):
    model = _load_model(args)
    plan = _plan_from_args(args, model)
    results = _run_replicates(plan)
    replicates = []
    for k, spectrum in enumerate(results):
        path = f"{args.out}_rep{k}.csv"
        _write_csv(path, ("eigenvalue",), ((v,) for v in spectrum.eigenvalues))
        trace = spectrum.trace
        eig_sum = float(spectrum.eigenvalues.sum())
        replicates.append(
            {
                "csv": path,
                "trace_check": {
                    "trace": trace,
                    "eigenvalue_sum": eig_sum,
                    "rel_err": abs(trace - eig_sum) / max(trace, 1e-300),
                },
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
    lsd = gamma_lsd(model)
    results = _run_replicates(plan)
    # one table at every positive eigenvalue, read where it is solved; the
    # support's upper edge keeps it nonempty when no eigenvalue is positive
    eigs = np.concatenate([spectrum.eigenvalues for spectrum in results])
    grid = np.union1d(eigs[eigs > 0.0], estimate_support_upper(lsd, plan.y))
    density = invert_to_density(lsd, plan.y, grid=grid)
    theory = lambda x: lsd_cdf(density, x)
    per_replicate = [{"ks": ks_distance(s, theory), "trace": s.trace} for s in results]
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
    # LinAlgError is a ValueError, so the numerical failures are caught first
    except (ConvergenceError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, UserWarning, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
