"""specmp benchmark: one workload, one run, every metric by name and unit.

    python3 perfbench/run.py --workload {density,transform,simulate} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports specmp from the checkout's
src/.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (see perfbench/README.md).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything the run writes goes to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from stats import OK, WRONG, cycle_band, median, tail_latency  # noqa: E402

WORKLOADS = ("density", "transform", "simulate")
# each untraced run sets the workload up this many times and reports the median
SETUP_SAMPLES = 3
# the whole run, set-ups included, must end within this
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "toeplitz_lsd.rule.s": "s/op",
    "toeplitz_lsd.rule.op_share": "fraction",
    "toeplitz_lsd.rule.op_share_min": "fraction",
    "stieltjes.solve_fixed_point.calls": "count/op",
    "stieltjes.solve_fixed_point.s": "s/op",
    "stieltjes.solve_fixed_point.iterations": "count/op",
    "stieltjes.solve_fixed_point.failed": "count/op",
    "simulator.simulate_matrix.s": "s/op",
    "linear_process.ma_coefficients.s": "s/op",
    "simulator.sample_cov_eigenvalues.s": "s/op",
    "simulator.innovation_bytes.computed": "B/op",
    "simulator.gram_flops.computed": "flop/op",
    "cli.self_s": "s/op",
    "trace.overhead_s": "s/op",
    "trace.overhead_frac": "fraction",
    "trace.ops": "count",
    "setup.toeplitz_lsd.rule.s": "s",
    "setup.toeplitz_lsd.rule.nodes": "count",
    "setup.stieltjes.solve_fixed_point.s": "s",
}
# reached only by the `density` workload, which runs by hand
DENSITY_LAYER_UNITS = {
    "toeplitz_lsd.rule.nodes": "count/op",
    "toeplitz_lsd.gamma_density.calls": "count/op",
    "linear_process.SpectralDensity.calls": "count/op",
    "toeplitz_lsd.gamma_lsd.s": "s/op",
    "toeplitz_lsd.tangential_warnings": "count/op",
    "stieltjes.invert_to_density.self_s": "s/op",
    "stieltjes.default_grid.s": "s/op",
    "stieltjes.solves_per_grid_point": "count",
}


class RunError(Exception):
    """The run could not produce a result."""


def spawn(args, deadline, setup_only=False):
    """Start a worker and return its JSON result; CLOCK_MONOTONIC spans processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SPECMP_THREADS", None)  # the program's default: one replicate thread
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--t0", repr(t0),
    ]  # fmt: skip
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t0)
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker passed the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(ops, setup_samples, peak_rss_mb):
    """Op timings; the oracle gate is not timed.

    Throughput and median over the cycles from the median to the 90th
    percentile of cycle time, the tail over every op of the run.
    """
    band = [op[1] for op in cycle_band(ops)]
    return {
        "setup_s": median(setup_samples),
        "ops_per_s": len(band) / sum(band),
        "op_p50_s": median(band),
        "op_tail_s": tail_latency([op[1] for op in ops]),
        "ok_frac": sum(op[2] == OK for op in ops) / len(ops),
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="specmp benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "specmp" / "__init__.py").is_file():
        print(f"error: no specmp sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_samples.append(spawn(args, deadline, setup_only=True)["setup_s"])
        result = spawn(args, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    setup_samples.append(result["setup_s"])

    ops = result["ops"]
    if args.trace:
        metrics, units = result["per_layer"], PER_LAYER_UNITS
        if args.workload == "density":
            units = {**units, **DENSITY_LAYER_UNITS}
    else:
        metrics, units = end_to_end(ops, setup_samples, result["peak_rss_mb"]), END_TO_END_UNITS
    attempted = len(ops)
    failed = sum(op[2] != OK for op in ops)
    wrong = sum(op[2] == WRONG for op in ops)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": result["env"],
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "cycles": result["cycles"],
        "setup_samples_s": setup_samples,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"env {json.dumps(result['env'])}")
    print(
        f"workload {args.workload}: {attempted} ops in {result['cycles']} cycles, "
        f"{failed} failed, {wrong} of them with wrong output"
    )
    if args.trace:
        print(f"spans written to {result['spans_file']}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    # failed ops, reported by the program or not, count in `failed`; an output
    # the program presented as good that an oracle rejects makes the run incorrect
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
