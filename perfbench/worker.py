"""Set up one workload, run it as a closed loop with one client, print one JSON line.

Started by run.py with the checkout's src/ on PYTHONPATH and ``--t0`` set to
the launcher's CLOCK_MONOTONIC reading just before the spawn, so ``setup_s``
covers interpreter start, ``import specmp`` and the workload's warm-up.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import glob
import itertools
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy
import scipy

import specmp
from stats import FAILED, MIN_OPS, OK, WRONG
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

MAX_REPORTED_FAILURES = 5
# layer figures a traced run also reports for the workload's set-up
SETUP_LAYER_METRICS = ("toeplitz_lsd.rule.s", "toeplitz_lsd.rule.nodes", "stieltjes.solve_fixed_point.s")


def _blas_threads():
    # OpenBLAS bundled with NumPy; None where the library or symbol is absent
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    def blas_version(module):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "SPECMP_THREADS": os.environ.get("SPECMP_THREADS"),
        "seed": seed,
    }


class Loop:
    """Closed loop over a workload's cycles, recording (cycle, latency, verdict) per op.

    The records are tuples of atoms, which the garbage collector stops
    tracking, so a growing record list adds no collector work to later ops.

    The verdict is OK; FAILED when the op raised, exited nonzero or failed its
    gate; or WRONG when the program presented its output as good and an
    independent oracle rejected it.
    """

    def __init__(self, workload):
        self.workload = workload
        self.ops = []
        self.cycles = 0
        self.failures = 0

    @property
    def latencies(self):
        return [op[1] for op in self.ops]

    def attempt(self, op, run):
        call, check = op
        latency, outcome = run(call)
        error = outcome if isinstance(outcome, Exception) else None
        if error is not None:
            verdict = FAILED
        else:
            try:
                verdict = check(outcome)
            except Exception as exc:  # output the check cannot read is wrong output
                verdict, error = WRONG, exc
        self.ops.append((self.cycles, latency, verdict))
        if verdict != OK:
            self.failures += 1
            if self.failures <= MAX_REPORTED_FAILURES:
                detail = "".join(traceback.format_exception_only(error)).strip() if error else f"gate rejected result {outcome!r}"
                print(f"op {len(self.ops) - 1} {verdict}: {detail}", file=sys.stderr)

    def run_cycle(self, run):
        for op in self.workload.cycle(self.cycles):
            self.attempt(op, run)
        self.cycles += 1


def plain_call(call):
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failed op is data, not a benchmark error
        return time.perf_counter() - start, exc
    return time.perf_counter() - start, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if Path(specmp.__file__).resolve().parent != ROOT / "src" / "specmp":
        raise SystemExit(f"specmp imported from {specmp.__file__}, not from this checkout")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        build = functools.partial(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            # the set-up's own layer figures, e.g. the rule builds of `transform`
            setup_tracer = Tracer()
            setup_tracer.install()
            try:
                latency, workload = setup_tracer.run_op(0, build)
            finally:
                setup_tracer.uninstall()
            if isinstance(workload, Exception):
                raise workload
            setup_layers = setup_tracer.layer_metrics([latency], tangential_warnings=0)
        else:
            workload = build()
        # Move the set-up's objects (numpy, scipy, specmp, the limit laws) out
        # of the collector's reach.  Otherwise each full collection rescans
        # them, a 45-90 ms pause that lands in whichever op triggered it and
        # fills the top of the `transform` latency tail.
        gc.collect()
        gc.freeze()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = {"setup_s": setup_s, "env": environment(args.seed)}
        if args.trace:
            result.update(traced(workload, args))
            for name in SETUP_LAYER_METRICS:
                result["per_layer"]["setup." + name] = setup_layers[name]
        else:
            result.update(untraced(workload, args))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cycle_count(workload, seconds, min_ops=1):
    """Whole cycles filling ``seconds`` at the workload's nominal cycle time.

    At least enough cycles for ``min_ops`` ops.  The count depends on
    ``seconds`` alone, never on measured speed, so every run of a workload
    does the same ops and its percentiles compare like with like across
    commits.
    """
    cycles = ops = 0
    while ops < min_ops:
        ops += len(workload.cycle(cycles))
        cycles += 1
    return max(cycles, round(seconds / workload.nominal_cycle_s))


def untraced(workload, args):
    loop = Loop(workload)
    for _ in range(cycle_count(workload, args.seconds, MIN_OPS)):
        loop.run_cycle(plain_call)
    return {"ops": loop.ops, "cycles": loop.cycles}


def traced(workload, args):
    """Each cycle twice, untraced then traced, filling ``seconds`` between them.

    Alternating cycles keeps drift in machine speed out of the overhead
    figure, which is traced wall minus untraced wall over the same ops.
    """
    plain, loop, tracer = Loop(workload), Loop(workload), Tracer()
    op_ids = itertools.count()
    tangential = 0
    for _ in range(cycle_count(workload, args.seconds / 2.0)):
        plain.run_cycle(plain_call)
        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                loop.run_cycle(lambda call: tracer.run_op(next(op_ids), call))
        finally:
            tracer.uninstall()
        tangential += sum(issubclass(w.category, specmp.TangentialRootWarning) for w in caught)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    return {
        "ops": loop.ops,
        "cycles": loop.cycles,
        "per_layer": tracer.layer_metrics(plain.latencies, tangential),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


if __name__ == "__main__":
    sys.exit(main())
