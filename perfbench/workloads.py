"""The benchmark's workloads: inputs from a seed, the timed call, and its oracle gate.

A workload is built once (its set-up counts in ``setup_s``) and then hands out
cycles of ops; ``nominal_cycle_s`` is the op time of one cycle on a 2-core
x86-64 host, from which a run's cycle count is set.  Cycle k is the same for
the same seed, so a traced pass can replay an untraced one.

An op is a pair ``(call, check)``: ``call`` is the timed call into specmp and
``check`` is the untimed oracle gate on its result.  The gate returns OK;
FAILED when the program reports the failure itself (a nonzero exit, or a
failed self-check in its own output); or WRONG when the program presented the
output as good and an independent oracle rejects it.  Every call reaches
specmp through a module attribute at call time, so the tracing shim sees it.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

import specmp
import specmp.cli
from stats import FAILED, OK, WRONG

ARMA11 = '{"type": "arma", "ar": [-0.5], "ma": [1.0]}'  # phi = 0.5, theta = 1
FARIMA = '{"type": "farima", "d": -0.25}'
PIECEWISE = json.dumps(
    {
        "type": "piecewise",
        "pieces": [
            {"lo": 0.0, "hi": math.pi, "alpha": 1.0},
            {"lo": math.pi, "hi": 2.0 * math.pi, "alpha": 2.0},
        ],
    }
)

# density: the paper's model classes through `specmp lsd-density`
DENSITY_GRID = 512
DENSITY_CASES = (
    ("white-noise-y0.5", '{"type": "arma"}', 0.5),
    ("arma11-y1", ARMA11, 1.0),
    ("arma11-y3", ARMA11, 3.0),
    ("farima-y3", FARIMA, 3.0),
    ("farima-ar-y3", '{"type": "farima", "ar": [-0.3], "d": -0.25}', 3.0),
    ("piecewise-y3", PIECEWISE, 3.0),
)
# runs in even cycles only: it takes 27 s today (it fails after building
# 4097-node rules), and two cycles, 11 ops, the least for op_tail_s, then fit
# the benchmark's time budget
DENSITY_EVEN_CYCLES_ONLY = "farima-ar-y3"
# total mass (atom at zero plus the trapezoid of the table) may miss 1 by this;
# today the worst case is arma11-y1 at 2.0e-2, the others are within 1.5e-3
MASS_TOL = 5e-2
# L1 distance of the white-noise table to the Marchenko-Pastur density (6.6e-5 today)
MP_L1_TOL = 1e-3

# transform: cold single solves at scattered points
TRANSFORM_YS = (0.5, 1.0, 3.0)
TRANSFORM_RE = (-1.0, 30.0)
TRANSFORM_LOG10_IM = (-3.0, 1.0)
# points per (limit law, y) pair and cycle: a Fibonacci lattice, F(13) = 233
# points with generator F(12) = 144; a cycle is 1398 solves
LATTICE = (233, 144)
# steps of the R2 low-discrepancy sequence, 1/g and 1/g^2 for the plastic number g
R2_STEP = (0.7548776662466927, 0.5698402909980532)
ARMA_RESIDUAL_TOL = 1e-6
MP_TOL = 1e-8

# simulate: Monte Carlo spectra through `specmp simulate`
SIMULATE_P = 1000
SIMULATE_REPLICATES = 2
SIMULATE_CASES = (
    ("arma11-y3", ARMA11, 3.0, ()),
    ("farima-y1", FARIMA, 1.0, ()),
    ("ma1-y0.5-centered", '{"type": "arma", "ma": [0.5]}', 0.5, ("--center", "--mu", "5", "--law", "rademacher")),
)
TRACE_TOL = 1e-9
ZERO_EIG = 1e-9  # eigenvalues at most this times the largest count as zero



def _remove(prefix):
    for path in prefix.parent.glob(prefix.name + "*"):
        path.unlink()


class Density:
    """`specmp lsd-density` on six model classes; the seed orders each cycle."""

    nominal_cycle_s = 30.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def cycle(self, k):
        cases = [case for case in DENSITY_CASES if k % 2 == 0 or case[0] != DENSITY_EVEN_CYCLES_ONLY]
        random.Random(f"density:{self.seed}:{k}").shuffle(cases)
        return [self._op(self.workdir / f"density-{k}-{i}", case) for i, case in enumerate(cases)]

    def _op(self, prefix, case):
        name, spec, y = case
        argv = ["lsd-density", "--model", spec, "--y", repr(y), "--grid", str(DENSITY_GRID), "--out", str(prefix)]

        def check(code):
            try:
                if code != 0:
                    return FAILED
                table = np.loadtxt(f"{prefix}.csv", delimiter=",", skiprows=1, ndmin=2)
                with open(f"{prefix}.json", encoding="utf-8") as fh:
                    meta = json.load(fh)
                x, p = table[:, 0], table[:, 1]
                if x.size != DENSITY_GRID or not (np.all(np.isfinite(p)) and np.all(p >= 0.0)):
                    return WRONG
                if abs(meta["mass_at_zero"] + np.trapezoid(p, x) - 1.0) > MASS_TOL:
                    return WRONG
                if name.startswith("white-noise"):
                    err = np.abs(p - specmp.stieltjes.mp_density(y, x))
                    if float(np.trapezoid(err, x)) > MP_L1_TOL:
                        return WRONG
                return OK
            finally:
                _remove(prefix)

        return (lambda: specmp.cli.main(argv)), check


class Transform:
    """Cold `solve_fixed_point` calls against ARMA(1,1) and Marchenko-Pastur laws.

    Set-up builds both limit laws and warms each with one solve, which builds
    the ARMA quadrature rules.  Each cycle takes, for every (law, y) pair, a
    Fibonacci lattice over (Re z, log10 Im z).  The seed sets each pair's
    first shift; cycle k adds k steps of the R2 sequence to it, so the cycles
    of a run fill the gaps between each other's points.  A run thus covers the
    slow region near the support edges evenly, and its tail latency does not
    hinge on how many random shifts happen to land near an edge.
    """

    nominal_cycle_s = 0.6

    def __init__(self, seed, workdir):
        self.seed = seed
        arma = specmp.gamma_lsd(specmp.ARMAModel.arma11(0.5, 1.0))
        mp = specmp.gamma_lsd(specmp.ARMAModel())
        for lsd in (arma, mp):
            specmp.stieltjes.solve_fixed_point(lsd, 1.0, 1.0 + 1.0j)
        self.laws = (("arma", arma), ("mp", mp))

    def cycle(self, k):
        first = random.Random(f"transform:{self.seed}")
        rng = random.Random(f"transform:{self.seed}:{k}")
        n, step = LATTICE
        points = []
        for kind, lsd in self.laws:
            for y in TRANSFORM_YS:
                a = (first.random() + k * R2_STEP[0]) % 1.0
                b = (first.random() + k * R2_STEP[1]) % 1.0
                for i in range(n):
                    u = (i / n + a) % 1.0
                    v = (i * step / n + b) % 1.0
                    z = complex(
                        TRANSFORM_RE[0] + (TRANSFORM_RE[1] - TRANSFORM_RE[0]) * u,
                        10.0 ** (TRANSFORM_LOG10_IM[0] + (TRANSFORM_LOG10_IM[1] - TRANSFORM_LOG10_IM[0]) * v),
                    )
                    points.append((kind, lsd, y, z))
        rng.shuffle(points)
        return [self._op(*point) for point in points]

    @staticmethod
    def _op(kind, lsd, y, z):
        def check(solution):
            if kind == "arma":
                ok = abs(specmp.stieltjes.arma11_residual(0.5, 1.0, y, z, solution.m)) <= ARMA_RESIDUAL_TOL
            else:
                ok = abs(solution.m - specmp.stieltjes.mp_stieltjes(y, z)) <= MP_TOL
            return OK if ok else WRONG

        return (lambda: specmp.stieltjes.solve_fixed_point(lsd, y, z)), check


class Simulate:
    """`specmp simulate` at p = 1000 on three model cases; the seed sets each run's RNG seed."""

    nominal_cycle_s = 2.5

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def cycle(self, k):
        rng = random.Random(f"simulate:{self.seed}:{k}")
        cases = list(SIMULATE_CASES)
        rng.shuffle(cases)
        return [
            self._op(self.workdir / f"simulate-{k}-{i}", case, rng.randrange(2**31))
            for i, case in enumerate(cases)
        ]

    def _op(self, prefix, case, seed):
        name, spec, y, extra = case
        argv = [
            "simulate", "--model", spec, "--y", repr(y), "--p", str(SIMULATE_P),
            "--replicates", str(SIMULATE_REPLICATES), "--seed", str(seed), "--out", str(prefix), *extra,
        ]  # fmt: skip
        center = "--center" in extra
        n = int(round(y * SIMULATE_P))

        def check(code):
            try:
                if code != 0:
                    return FAILED
                with open(f"{prefix}_summary.json", encoding="utf-8") as fh:
                    summary = json.load(fh)
                if len(summary["replicates"]) != SIMULATE_REPLICATES:
                    return WRONG
                verdict = OK
                for rep in summary["replicates"]:
                    vals = np.loadtxt(rep["csv"], delimiter=",", skiprows=1, ndmin=1)
                    if vals.size != SIMULATE_P or not np.all(vals >= 0.0):
                        return WRONG
                    if n < SIMULATE_P and np.sum(vals <= ZERO_EIG * vals.max()) < SIMULATE_P - n + center:
                        return WRONG
                    # the program's own trace-versus-eigenvalue-sum check
                    if not rep["trace_check"]["rel_err"] <= TRACE_TOL:
                        verdict = FAILED
                return verdict
            finally:
                _remove(prefix)

        return (lambda: specmp.cli.main(argv)), check


WORKLOADS = {"density": Density, "transform": Transform, "simulate": Simulate}
