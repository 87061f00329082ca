import cmath
import dataclasses
import gc
import math
import random
import sys
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, trapezoid
from scipy.optimize import minimize_scalar

import specmp as sp
from oracles import (
    arma11_support,
    arma_terms,
    atomic_lsd_density,
    lsd_moments,
    szego_rule,
    toeplitz_moments,
)

MP_ATOM = sp.AtomicLSD(levels=np.array([1.0]), weights=np.array([1.0]))
ARMA11 = sp.ARMAModel.arma11(0.5, 1.0)
# gamma_lsd gives ARMA(1,1) its exact law; tests of the Szegő rule build that rule's law
ARMA11_SZEGO = sp.AbsContinuousLSD(sp.SpectralDensity(ARMA11))
ARMA23 = sp.ARMAModel(ar=(0.6, -0.3), ma=(0.4, 0.2, -0.1))
# a sharp AR(2) peak: |phi|^2 falls to 1.3e-8 of its mean at w = 0.807
SHARP_AR2 = sp.ARMAModel(ar=(-1.3826202528951597, 0.9996872602874478))
# phi's roots at e^(+-i)/0.99: f peaks at 3,566 at w = 1.0000, where the nearest nodes reach 638
PEAKED_AR2 = sp.ARMAModel(ar=(-1.069798565618917, 0.9801))
# phi's zeros at modulus 1.0028, where f peaks at 31,795 between the nodes near w = pi/2
NEAR_AR2 = (-0.011735229814165901, 0.9943917768531493)
FARIMA = sp.ARMAModel(d=-0.25)
# the five models of the moment oracles
MOMENT_MODELS = [sp.ARMAModel(), sp.ARMAModel.arma11(0.5, 1.0), ARMA23, FARIMA, sp.ARMAModel(ar=(-0.3,), d=-0.25)]
MOMENT_IDS = ["white", "arma11", "arma23", "farima", "farima-ar"]
# the laws that integrate on the Szegő rule: FARIMA, and ARMA with K = max(p, q) = 3
SZEGO_MODELS = {
    "farima": FARIMA,
    "farima-ar": MOMENT_MODELS[4],
    "farima-0.4": sp.ARMAModel(d=-0.4),
    "farima-ar2": sp.ARMAModel(ar=(0.6, -0.3), d=-0.2),
    "arma23": ARMA23,
    "sharp-ar3": sp.ARMAModel(ar=(-0.074, -0.443, 0.629)),
    # phi's roots at e^(+-i)/0.99: a peak between the nodes, found by the search from it
    "farima-peaked-ar2": sp.ARMAModel(ar=(-1.069798565618917, 0.9801), d=-0.05),
}


def quadratic_mp_root(y, z):
    # independent oracle: upper-half-plane root of z m^2 + (z + 1 - y) m + 1
    roots = np.roots([z, z + 1.0 - y, 1.0])
    upper = roots[roots.imag > 0]
    assert upper.size == 1
    return complex(upper[0])


def exact_defect(model, y, z, m):
    # 1/m + z - y T(m), with T from the 50-digit partial-fraction oracle
    return 1.0 / m + z - y * arma_terms(model, m)[0]


def count_evaluations(monkeypatch):
    # counts every (T, T') evaluation the solver makes on atoms and Szegő laws,
    # whose terms start from the Rule's node sums
    evals = [0]

    def counted(rule, m, terms=sp.Rule.terms):
        evals[0] += 1
        return terms(rule, m)

    monkeypatch.setattr(sp.Rule, "terms", counted)
    return evals


def transform_lattice(seed, cycles):
    # the benchmark's transform points (perfbench/workloads.py): in cycle k,
    # for each law and y in (0.5, 1, 3), a Fibonacci lattice of 233 points
    # (generator 144) over Re z in [-1, 30] and log10 Im z in [-3, 1], shifted
    # by a seeded start plus k steps of the R2 sequence
    for k in range(cycles):
        first = random.Random(f"transform:{seed}")
        for law in ("arma", "mp"):
            for y in (0.5, 1.0, 3.0):
                a = (first.random() + k * 0.7548776662466927) % 1.0
                b = (first.random() + k * 0.5698402909980532) % 1.0
                for i in range(233):
                    u, v = (i / 233 + a) % 1.0, (i * 144 / 233 + b) % 1.0
                    yield law, y, complex(-1.0 + 31.0 * u, 10.0 ** (-3.0 + 4.0 * v))


def coefficient(bound):
    # 0 or at least 0.01 in size: the partial-fraction oracle needs simple roots,
    # which a subnormal leading coefficient spoils
    return st.one_of(st.just(0.0), st.floats(0.01, bound), st.floats(-bound, -0.01))


def mp_pdf(y, x):
    lo, hi = (1.0 - math.sqrt(y)) ** 2, (1.0 + math.sqrt(y)) ** 2
    if not lo < x < hi:
        return 0.0
    return math.sqrt((hi - x) * (x - lo)) / (2.0 * math.pi * x)


class TestSolveFixedPoint:
    def test_single_atom_matches_quadratic_oracle(self):
        sol = sp.solve_fixed_point(MP_ATOM, 1.0, 1j)
        oracle = quadratic_mp_root(1.0, 1j)
        assert abs(sol.m - oracle) <= 1e-10
        assert abs(sol.m - (0.30025 + 0.62481j)) <= 5e-5
        assert sol.residual <= 1e-9
        assert sol.m.imag > 0

    def test_far_field_asymptotics(self):
        for lsd, y in ((MP_ATOM, 1.0), (sp.AtomicLSD(np.array([1.0, 2.0]), np.array([0.5, 0.5])), 1.0)):
            m = sp.solve_fixed_point(lsd, y, 1000j).m
            assert abs(m - (-1.0 / 1000j)) / abs(1.0 / 1000j) <= 2e-3

    def test_two_atoms_match_cubic_oracle(self):
        lsd = sp.AtomicLSD(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        z = 1.0 + 1.0j
        m = sp.solve_fixed_point(lsd, 1.0, z).m
        # clearing denominators in the two-atom equation gives
        # 2 z m^3 + 3 z m^2 + (z + 3/2) m + 1 = 0
        roots = np.roots([2.0 * z, 3.0 * z, z + 1.5, 1.0])
        upper = roots[roots.imag > 0]
        assert min(abs(m - r) for r in upper) <= 1e-8

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            sp.solve_fixed_point(MP_ATOM, 1.0, 1.0 - 1j)
        with pytest.raises(ValueError, match="upper half-plane"):
            sp.mp_stieltjes(1.0, 1.0 - 1j)
        with pytest.raises(ValueError):
            sp.solve_fixed_point(MP_ATOM, -1.0, 1j)
        # a z or y that is not finite, or y <= 0, is refused as input: a NaN z raised
        # ArithmeticError deep in the solve, and mp_stieltjes(-1, i) returned -0.5 + 1.87i
        for z in (complex(math.nan, 1.0), complex(1.0, math.inf), complex(-math.inf, 1.0), complex(1.0, math.nan)):
            with pytest.raises(ValueError, match="finite and lie in the upper half-plane"):
                sp.solve_fixed_point(MP_ATOM, 1.0, z)
            with pytest.raises(ValueError, match="finite and lie in the upper half-plane"):
                sp.mp_stieltjes(1.0, z)
        for y in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="aspect ratio"):
                sp.mp_stieltjes(y, 1j)

    def test_root_underflowing_to_the_axis_is_arithmetic_error(self):
        # z = 5 + 5e-324j is in the upper half-plane, but Im m underflows to 0
        z = 5.0 + 5e-324j
        with pytest.raises(ArithmeticError, match="no upper-half-plane root"):
            sp.mp_stieltjes(1.0, z)
        with pytest.raises(ArithmeticError, match="no upper-half-plane root"):
            sp.solve_fixed_point(MP_ATOM, 1.0, z)
        # a law spread over [0, 16] has its root well off the axis there, and the
        # cold start, which takes z unscaled, finds it
        sol = sp.solve_fixed_point(sp.gamma_lsd(ARMA11), 1.0, z)
        assert abs(sol.m - (-0.1503 + 0.0916j)) <= 1e-4
        assert abs(sp.arma11_residual(0.5, 1.0, 1.0, z, sol.m)) <= 1e-15

    def test_rejects_unsupported_law(self):
        with pytest.raises(TypeError, match="unsupported limit-law type"):
            sp.solve_fixed_point(sp.SpectralDensity(sp.ARMAModel()), 1.0, 1j)

    @pytest.mark.parametrize("m", [1.0 + 0j, 1.0 - 1e-300j, complex(0.0, math.nan)])
    def test_solution_refuses_m_off_the_upper_half_plane(self, m):
        with pytest.raises(ValueError, match="upper half-plane"):
            sp.StieltjesSolution(z=1j, m=m, residual=0.0, iterations=1)

    def test_solution_is_a_frozen_dataclass(self):
        # the hand-written __init__ takes the fields by position or keyword;
        # the class keeps the dataclass's fields, equality, repr and freezing
        sol = sp.StieltjesSolution(1j, 0.5j, 0.0, 3)
        assert sol == sp.StieltjesSolution(z=1j, m=0.5j, residual=0.0, iterations=3)
        assert sol != dataclasses.replace(sol, iterations=4)
        assert [f.name for f in dataclasses.fields(sol)] == ["z", "m", "residual", "iterations"]
        assert repr(sol) == "StieltjesSolution(z=1j, m=0.5j, residual=0.0, iterations=3)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.m = 1j
        with pytest.raises(ValueError, match="upper half-plane"):
            dataclasses.replace(sol, m=-0.5j)

    def test_uniqueness_from_two_starts(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = rng.integers(1, 5)
            levels = np.sort(rng.uniform(0.2, 5.0, k))
            levels += np.arange(k) * 1e-3  # keep strictly increasing
            weights = rng.uniform(0.2, 1.0, k)
            weights /= weights.sum()
            if k > 1:
                weights[-1] = 1.0 - weights[:-1].sum()
            lsd = sp.AtomicLSD(levels, weights)
            y = float(rng.choice([0.5, 1.0, 3.0]))
            z = complex(rng.uniform(-2.0, 8.0), 10.0 ** rng.uniform(-2.0, 0.5))
            m1 = sp.solve_fixed_point(lsd, y, z, initial=-1.0 / z).m
            m2 = sp.solve_fixed_point(lsd, y, z, initial=1j).m
            assert abs(m1 - m2) <= 1e-8

    def test_nevanlinna_positivity(self):
        for eps in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
            m = sp.solve_fixed_point(MP_ATOM, 1.0, complex(2.0, eps)).m
            assert m.imag > 0

    def test_single_atom_cold_start_is_exact(self, monkeypatch):
        # the mean-level Marchenko-Pastur start is the answer for one atom, so
        # the first sweep's Newton step is within rounding and the solve ends
        # at the start, on its one evaluation, before the refit.  At the upper
        # edge the step is 14 to 42 eps |m| (the edge amplifies rounding), so
        # it is evaluated and kept: two evaluations
        evals = count_evaluations(monkeypatch)
        for y in (0.5, 1.0, 3.0):
            edge = (1.0 + math.sqrt(y)) ** 2
            for z in (1j, 2.0 + 0.1j, -0.5 + 0.03j, complex(edge, 1e-3), complex(0.5 * edge, 1e-3)):
                evals[0] = 0
                sol = sp.solve_fixed_point(MP_ATOM, y, z)
                assert abs(sol.m - sp.mp_stieltjes(y, z)) <= 1e-12
                assert sol.iterations <= 2
                assert evals[0] == (2 if z.real == edge else 1), (y, z)

    @pytest.mark.parametrize("lsd", [MP_ATOM, ARMA11_SZEGO], ids=["mp", "arma11"])
    def test_warm_start_at_the_solution_ends_in_one_sweep(self, lsd, monkeypatch):
        # at the fixed point the Newton step is within rounding, so the solve
        # ends at the start, in one sweep, on its one evaluation there
        evals = count_evaluations(monkeypatch)
        for y in (0.5, 1.0, 3.0):
            for z in (1j, 2.0 + 0.1j, -0.5 + 0.03j, 3.0 + 0.3j):
                exact = sp.solve_fixed_point(lsd, y, z).m
                evals[0] = 0
                sol = sp.solve_fixed_point(lsd, y, z, initial=exact)
                assert sol.iterations == 1, (y, z)
                assert evals[0] == 1, (y, z)
                assert abs(sol.m - exact) <= 1e-12 * abs(exact)

    def test_cold_arma_solve_evaluates_once_a_sweep(self, monkeypatch):
        # one evaluation at the start and one a sweep, the refit of the start
        # included; a solve whose last Newton step is within rounding ends
        # before evaluating it, and one whose last step is only below the
        # stopping tolerance evaluates and keeps it (one more).  The sweep and
        # evaluation counts are pinned so that a change shows.
        lsd = ARMA11_SZEGO
        sweeps = {
            0.5: (4, 5, 4, 4),
            1.0: (5, 5, 5, 5),
            3.0: (5, 6, 5, 5),
        }
        evaluations = {
            0.5: (4, 5, 4, 5),
            1.0: (5, 5, 5, 5),
            3.0: (5, 6, 5, 6),
        }
        evals = count_evaluations(monkeypatch)
        for y, counts in sweeps.items():
            for z, iterations, n in zip((1j, 2.0 + 0.1j, -0.5 + 0.03j, 3.0 + 0.3j), counts, evaluations[y]):
                evals[0] = 0
                sol = sp.solve_fixed_point(lsd, y, z)
                assert sol.iterations == iterations, (y, z, sol.iterations)
                assert evals[0] == n, (y, z, evals[0])

    def test_transform_lattice_evaluations(self, monkeypatch):
        # cold solves at the benchmark's transform points (seed 1, cycles 0-3),
        # counted without timing: ARMA(1,1) on its exact law takes 15,070
        # evaluations in 14,379 sweeps (5.39 a solve), MP 2,798 in 2,796
        # (1.0007 a solve).  Pinned so that a change shows
        laws = {"arma": sp.gamma_lsd(ARMA11), "mp": sp.gamma_lsd(sp.ARMAModel())}
        evals = [0]
        for cls in (sp.ExactARMALSD, sp.Rule):

            def counted(lsd, m, terms=cls.terms):
                evals[0] += 1
                return terms(lsd, m)

            monkeypatch.setattr(cls, "terms", counted)
        totals = {law: [0, 0] for law in laws}
        for law, y, z in transform_lattice(1, 4):
            before = evals[0]
            sol = sp.solve_fixed_point(laws[law], y, z)
            totals[law][0] += evals[0] - before
            totals[law][1] += sol.iterations
        assert totals == {"arma": [15070, 14379], "mp": [2798, 2796]}

    def test_szego_lattice_sweeps(self, monkeypatch):
        # cold solves on the Szegő laws of the sharp and the peaked AR(2) at
        # the benchmark's ARMA(1,1) transform points (seed 1, cycle 0), 699
        # each.  Their start sits at the nodes' plain mean, 52.5 and 20.1,
        # against the laws' means 3063.6 and 35.8, and the first sweep refits
        # it.  Pinned so that a change to the start's level shows
        evals = count_evaluations(monkeypatch)
        totals = {}
        for name, model in (("sharp", SHARP_AR2), ("peaked", PEAKED_AR2)):
            law, evals[0], sweeps = sp.gamma_lsd(model), 0, 0
            assert law.kind == "szego"
            for which, y, z in transform_lattice(1, 1):
                if which == "arma":
                    sweeps += sp.solve_fixed_point(law, y, z).iterations
            totals[name] = [evals[0], sweeps]
        assert totals == {"sharp": [3891, 3653], "peaked": [3649, 3345]}

    def test_szego_solve_near_the_axis_evaluates_once_a_sweep(self, monkeypatch):
        # ARMA(2,3) at y = 0.5, z = 1 + 1e-4i solves on its one Szegő rule:
        # one evaluation at the start and one a sweep, the refit's included,
        # its last step below the stopping tolerance but not within rounding.
        # A solve that climbed the sine-graded rules took 7 sweeps here,
        # ending on the 1024-node rule's check
        evals = count_evaluations(monkeypatch)
        z = 1.0 + 1e-4j
        sol = sp.solve_fixed_point(sp.gamma_lsd(ARMA23), 0.5, z)
        assert sol.iterations == 5 and evals[0] == sol.iterations + 1
        assert abs(exact_defect(ARMA23, 0.5, z, sol.m)) <= 1e-14

    def test_rejected_newton_step_falls_back_to_the_damped_step(self, monkeypatch):
        # from m = 10i (MP, y = 1, z = i) the full Newton candidate lies in the
        # upper half-plane but raises the hyperbolic merit, so the sweep takes
        # the damped step (m + G(m))/2 instead: two evaluations, one at each
        y, z, m0 = 1.0, 1j, 10j
        terms = MP_ATOM.terms
        points = []

        def counted(m):
            points.append(m)
            return terms(m)

        def merit(m):
            g = 1.0 / (-z + y * terms(m)[0])
            return abs(g - m) ** 2 / (m.imag * g.imag), g

        t, tp = terms(m0)
        newton = m0 - (1.0 + m0 * z - y * m0 * t) / (z - y * (t + m0 * tp))
        assert newton.imag > 0.0 and merit(newton)[0] > merit(m0)[0]
        damped = 0.5 * (m0 + merit(m0)[1])
        monkeypatch.setattr(sp.stieltjes, "MAX_ITER", 1)
        with pytest.raises(sp.ConvergenceError, match="no convergence") as err:
            sp.stieltjes._iterate(counted, y, z, m0)
        assert points == [m0, newton, damped]
        assert err.value.m == damped and err.value.iterations == 1

    def test_merit_is_the_displacement_of_g_at_every_scale(self):
        # |M|^2 / (Im m (-Im e)) from e = y T - z and M = 1 + m z - y m T
        # is |G - m|^2 / (Im m Im G) with G = 1/e, for seeded (m, T, y, z)
        # with z and T of size s and m of size 1/s, s from 1e-150 to 1e150
        rng = random.Random(7)
        worst = 0.0
        for _ in range(2000):
            s = 10.0 ** rng.uniform(-150.0, 150.0)
            y = 10.0 ** rng.uniform(-1.0, 1.0)
            z = s * complex(rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-3.0, 1.0))
            t = s * complex(rng.uniform(-2.0, 2.0), -(10.0 ** rng.uniform(-3.0, 1.0)))
            m = complex(rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-3.0, 1.0)) / s
            e = y * t - z
            g = 1.0 / e
            merit = sp.stieltjes._merit(m, 1.0 + m * z - y * m * t, e)
            # in this order the reference neither overflows nor underflows here
            expected = abs(g - m) / m.imag * (abs(g - m) / g.imag)
            worst = max(worst, abs(merit - expected) / expected)
        assert worst <= 1e-13

    def test_merit_is_inf_where_its_terms_overflow_or_underflow(self):
        merit = sp.stieltjes._merit
        # the squares of M overflow, where abs(M) ** 2 raises
        big = 1e200 + 1e200j
        with pytest.raises(OverflowError):
            abs(big) ** 2
        assert merit(1j, big, -1j) == math.inf
        # the product Im m (-Im e) underflows to 0, where dividing by it raises
        m, e = 1e-200j, 1e-10 - 1e-200j
        with pytest.raises(ZeroDivisionError):
            1.0 / (m.imag * -e.imag)
        assert merit(m, 1.0 + 0j, e) == math.inf
        # G = 1/e not in the upper half-plane, or e not finite
        for e in (1j, 1.0 + 0j, complex(math.inf, -1.0), complex(math.nan, -1.0), complex(0.0, -math.inf)):
            assert merit(1j, 1.0 + 0j, e) == math.inf

    def test_rejected_candidate_takes_the_damped_point(self, monkeypatch):
        # a fake evaluator whose T at the Newton candidate puts G = 1/(y T - z)
        # in the lower half-plane: the merit rejects it (inf), and the sweep
        # evaluates the damped point (m + 1/(y T(m) - z))/2 instead
        y, z, m0 = 1.0, 1j, 1j
        t0, tp0 = -0.5j, 0.1 + 0j
        newton = m0 - (1.0 + m0 * z - y * m0 * t0) / (z - y * (t0 + m0 * tp0))
        points = []

        def fake(m):
            points.append(m)
            return (2j, 0j) if m == newton else (t0, tp0)

        monkeypatch.setattr(sp.stieltjes, "MAX_ITER", 1)
        with pytest.raises(sp.ConvergenceError, match="no convergence") as err:
            sp.stieltjes._iterate(fake, y, z, m0)
        assert points == [m0, newton, 0.5 * (m0 + 1.0 / (y * t0 - z))]
        assert err.value.m == points[-1] and err.value.iterations == 1

    def test_iterate_that_leaves_the_upper_half_plane_raises(self):
        # an evaluator whose T has Im T > 0 sends G(m) = 1/(-z + y T) to the
        # lower half-plane, so no candidate has a finite merit and the damped
        # step has no G(m) to move towards
        y, z, m0 = 1.0, 1.0 + 1j, 1j
        t = 10j
        with pytest.raises(sp.ConvergenceError, match="left the upper half-plane") as err:
            sp.stieltjes._iterate(lambda m: (t, 0j), y, z, m0)
        assert err.value.m == m0 and err.value.iterations == 1
        assert err.value.residual == abs(1.0 + m0 * z - y * m0 * t)

    def test_convergence_error_carries_the_defect(self, monkeypatch):
        # the cold ARMA(1,1) solve at y = 1, z = 2 + 0.1i takes 5 sweeps on
        # its exact law; stopped after 2, the error reports the residual
        # |1 + m z - y m T(m)| of the last m on that law, not the merit
        lsd = sp.gamma_lsd(sp.ARMAModel.arma11(0.5, 1.0))
        y, z = 1.0, 2.0 + 0.1j
        monkeypatch.setattr(sp.stieltjes, "MAX_ITER", 2)
        with pytest.raises(sp.ConvergenceError) as err:
            sp.solve_fixed_point(lsd, y, z)
        m = err.value.m
        defect = abs(1.0 + m * z - y * m * lsd.terms(m)[0])
        assert err.value.iterations == 2
        assert err.value.residual == defect > 0.0
        assert f"residual={defect:.3e}" in str(err.value)

    @pytest.mark.parametrize(
        "y, z, max_sweeps",
        [
            # 100,000 sweeps without convergence when each rejected Newton
            # step was halved up to ten times; 1,618 sweeps without halving
            (10.350728171047368, 176.41658541967558 + 2.909653964312705e-10j, 4000),
            # 16,088 sweeps with halving; 42 without
            (2.2829472777998516, 59.15490809418232 + 2.946892743097823e-10j, 200),
        ],
    )
    def test_cold_arma23_solves_near_the_axis(self, y, z, max_sweeps):
        # against the 50-digit partial-fraction oracle the exact residual is
        # 4.5e-16 and 5.3e-17 of |z| + |1/m|
        sol = sp.solve_fixed_point(sp.gamma_lsd(ARMA23), y, z)
        assert sol.iterations <= max_sweeps
        assert abs(exact_defect(ARMA23, y, z, sol.m)) <= 1e-11 * (abs(z) + abs(1.0 / sol.m))

    @pytest.mark.parametrize("y", [0.5, 3.0])
    def test_stop_is_relative_to_m(self, y):
        # far out |m| is about 1/|z| = 1e-7, so the first Newton step from a
        # start 1e-6 off is about 1e-13: below 1e-12 in absolute terms, which
        # ended the solve there, but 1e-6 of |m|, so the relative stop takes a
        # second sweep, whose step is at the rounding floor
        lsd, z = sp.gamma_lsd(ARMA11), 1e7 * (1.0 + 0.1j)
        m = sp.solve_fixed_point(lsd, y, z).m
        sol = sp.solve_fixed_point(lsd, y, z, initial=m * (1.0 + 1e-6))
        assert sol.iterations == 2
        assert abs(sp.arma11_residual(0.5, 1.0, y, z, sol.m)) <= 1e-15 * abs(z)

    # ARMA laws of K <= 2 (exact for K = 1, Szegő for K = 2) with AR parts
    # from reflection coefficients |k| <= 0.97, and atoms, at z = edge (x + i
    # eta) with x in [-1, 2] and eta in [1e-8, 1e3]: the one-atom refit of the
    # cold start, whatever (T, T') it fits, must leave a solve that ends in
    # the upper half-plane, on its law
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        law=st.one_of(
            st.tuples(st.lists(st.floats(-0.97, 0.97), max_size=2), st.lists(st.floats(-1.5, 1.5), max_size=2)),
            st.lists(st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 1.0)), min_size=1, max_size=3),
        ),
        log_y=st.floats(-1.0, 1.0),
        x=st.floats(-1.0, 2.0),
        log_eta=st.floats(-8.0, 3.0),
    )
    def test_refit_cold_start_ends_on_the_law(self, law, log_y, x, log_eta):
        if isinstance(law, tuple):
            refl, ma = law
            ar = np.array([1.0])
            for k in refl:
                ar = np.append(ar, 0.0) + k * np.append(ar, 0.0)[::-1]
            lsd = sp.gamma_lsd(sp.ARMAModel(ar=ar[1:], ma=ma))
        else:
            levels = np.unique([level for level, _ in law])
            assume(np.all(np.diff(levels) > 1e-6 * levels[-1]))
            weights = np.array([w for _, w in law])[: levels.size]
            lsd = sp.AtomicLSD(levels, weights / weights.sum())
        assert isinstance(lsd, (sp.ExactARMALSD, sp.AbsContinuousLSD, sp.AtomicLSD))
        y = 10.0**log_y
        z = sp.estimate_support_upper(lsd, y) * complex(x, 10.0**log_eta)
        m = sp.solve_fixed_point(lsd, y, z).m
        assert m.imag > 0.0
        defect = abs(1.0 / m + z - y * lsd.terms(m)[0])
        assert defect <= 1e-10 * (abs(z) + abs(1.0 / m))

    @pytest.mark.parametrize(
        "terms",
        [(1.0, 1j), (1.0 + 0j, 0j), (complex(math.nan, 0.0), 1j), (1e300 + 1e300j, -1e-300j)],
        ids=["t-plus-m-tp-zero", "b-zero", "nan", "overflow"],
    )
    def test_refit_without_a_one_atom_law_keeps_the_start(self, terms, monkeypatch):
        # T + m T' = 0 at m = i for the first; T' = 0 makes b = 0; the last
        # overflows: each refit raises nothing, and the cold first sweep
        # evaluates and ends where the warm one does, from the same start
        monkeypatch.setattr(sp.stieltjes, "MAX_ITER", 1)

        def first_sweep(refit):
            points = []

            def fake(m):
                points.append(m)
                return terms

            try:
                out = sp.stieltjes._iterate(fake, 1.0, 2.0 + 1j, 1j, refit)
            except sp.ConvergenceError as err:
                out = (str(err), err.m, err.iterations)
            return repr((points, out))

        assert first_sweep(True) == first_sweep(False)

    @pytest.mark.parametrize("atoms", [8, 9])
    def test_scalar_and_array_sums_agree_across_the_crossover(self, atoms, monkeypatch):
        # a rule of up to SCALAR_NODES = 8 nodes is summed in Python scalars and
        # a larger one in NumPy; the same law built with the crossover moved
        # to its other side takes the other path
        assert sp.toeplitz_lsd.SCALAR_NODES == 8
        levels = np.linspace(0.5, 4.0, atoms)
        weights = np.arange(1.0, atoms + 1.0) / (atoms * (atoms + 1) / 2)
        weights[-1] = 1.0 - weights[:-1].sum()
        default = sp.AtomicLSD(levels, weights)
        monkeypatch.setattr(sp.toeplitz_lsd, "SCALAR_NODES", 0 if atoms <= 8 else atoms)
        other = sp.AtomicLSD(levels, weights)
        # evaluations of each solve below: one at the start and one a sweep,
        # one more where the last step was only below the stopping tolerance
        evaluations = iter([4, 4, 4, 4, 5, 4, 4, 4, 4, 5, 4, 5, 4, 4, 4])
        evals = count_evaluations(monkeypatch)
        for m in (0.3 + 0.6j, -60.0 + 80.0j, 100j):
            for lsd in (default, other):
                t, tp = lsd.terms(m)
                t_ref = np.sum(weights * levels / (1.0 + levels * m))
                tp_ref = -np.sum(weights * levels**2 / (1.0 + levels * m) ** 2)
                assert abs(t - t_ref) <= 1e-13 * abs(t_ref) and abs(tp - tp_ref) <= 1e-13 * abs(tp_ref)
        for y in (0.5, 1.0, 3.0):
            for z in (1j, 2.0 + 0.1j, -0.5 + 0.03j, 3.0 + 0.3j, 8.0 + 1e-3j):
                sols, n = [], next(evaluations)
                for lsd in (default, other):
                    evals[0] = 0
                    sols.append(sp.solve_fixed_point(lsd, y, z))
                    assert evals[0] == n, (y, z, evals[0])
                assert sols[0].iterations == sols[1].iterations
                assert abs(sols[0].m - sols[1].m) <= 1e-13 * abs(sols[0].m), (y, z)

    @pytest.mark.parametrize(
        "lsd",
        [sp.AtomicLSD(np.array([1.0, 2.0]), np.array([0.5, 0.5])), sp.gamma_lsd(sp.ARMAModel.arma11(0.5, 1.0))],
        ids=["atoms", "arma11"],
    )
    def test_results_are_python_scalars(self, lsd):
        for z in (1j, 2.0 + 1e-3j):
            sol = sp.solve_fixed_point(lsd, 0.5, z)
            assert type(sol.m) is complex and type(sol.residual) is float
        assert type(sp.estimate_support_upper(lsd, 0.5)) is float

    @pytest.mark.parametrize(
        "lsd, y, z",
        [
            (MP_ATOM, 1.0, 2.0 + 1e-3j),
            (ARMA11_SZEGO, 0.5, 1j),
            (ARMA11_SZEGO, 0.5, 1e-6 + 1e-8j),
            (ARMA11_SZEGO, 1.0, 1e-7 + 4e-8j),
            (sp.gamma_lsd(ARMA11), 0.5, 1e-6 + 1e-8j),
        ],
        ids=["atom", "arma11-far", "arma11-near-zero", "arma11-hard-edge", "arma11-exact"],
    )
    def test_residual_is_the_defect_on_the_law(self, lsd, y, z):
        # every law solves on itself, and the residual is the defect of m
        # there times m; worst seen 1.7e-16.  The Szegő law's m also meets the
        # ARMA(1,1) quartic, to 3.9e-16 of |1/m| near zero, where the
        # sine-graded rules had to climb to 8192 nodes
        sol = sp.solve_fixed_point(lsd, y, z)
        t, _ = lsd.terms(sol.m)
        assert sol.residual == abs(1.0 + sol.m * z - y * sol.m * t) <= 1e-15
        if lsd is not MP_ATOM:
            assert abs(sp.arma11_residual(0.5, 1.0, y, z, sol.m)) <= 2e-15 * abs(1.0 / sol.m)

    @pytest.mark.parametrize(
        "lsd",
        [sp.AtomicLSD(np.array([1.0, 2.0]), np.array([0.5, 0.5])), sp.gamma_lsd(ARMA11), sp.gamma_lsd(ARMA23)],
        ids=["atoms", "exact", "szego"],
    )
    def test_residual_is_the_defect_at_the_returned_m(self, lsd):
        # every returned m was evaluated, and the residual is its defect
        # from that T, bit for bit, whether the solve starts cold, warm from
        # a nearby m, or at the solution itself
        for y in (0.5, 1.0, 3.0):
            edge = sp.estimate_support_upper(lsd, y)
            for x, eta in ((0.3, 1e-3), (0.7, 0.1), (1.1, 1e-6), (-0.2, 1.0)):
                z = edge * complex(x, eta)
                cold = sp.solve_fixed_point(lsd, y, z)
                for sol in (
                    cold,
                    sp.solve_fixed_point(lsd, y, z, initial=cold.m * (1.0 + 1e-3j)),
                    sp.solve_fixed_point(lsd, y, z, initial=cold.m),
                ):
                    assert sol.residual == abs(1.0 + sol.m * z - y * sol.m * lsd.terms(sol.m)[0]), (y, z)

    def test_evaluator_does_not_outlive_its_rule(self, monkeypatch):
        evals = count_evaluations(monkeypatch)
        lsd = sp.AbsContinuousLSD(sp.SpectralDensity(ARMA11))
        sp.solve_fixed_point(lsd, 1.0, 1.0 + 1.0j)
        first, evals[0] = evals[0], 0
        # a second solve reuses the rule's evaluator, and every evaluation counts
        sp.solve_fixed_point(lsd, 1.0, 1.0 + 1.0j)
        assert evals[0] == first > 0
        nodes = weakref.ref(lsd.nodes)
        del lsd
        gc.collect()
        assert nodes() is None

    def test_laws_sharing_nodes_keep_their_weights(self):
        levels = np.array([1.0, 2.0])
        laws = [sp.AtomicLSD(levels, np.array([w, 1.0 - w])) for w in (0.5, 0.25)]
        assert levels.flags.writeable
        assert not any(np.shares_memory(lsd.levels, levels) for lsd in laws)
        z = 1.0 + 1.0j
        for _ in range(2):
            for lsd in laws:
                # 1/m = -z + w1/(1 + m) + 2 w2/(1 + 2m) at y = 1
                m = sp.solve_fixed_point(lsd, 1.0, z).m
                w1, w2 = lsd.weights
                assert abs(1.0 / m + z - w1 / (1.0 + m) - 2.0 * w2 / (1.0 + 2.0 * m)) <= 1e-12

    def test_threads_share_one_law(self):
        # four threads, switching often, solve on one law whose rules and
        # evaluators they build concurrently; each m is bit-identical to the
        # serial solve on another law
        rng = np.random.default_rng(3)
        points = [
            (float(y), complex(x, 10.0**e))
            for y, x, e in zip(rng.choice([0.5, 1.0, 3.0], 48), rng.uniform(-1.0, 30.0, 48), rng.uniform(-3.0, 1.0, 48))
        ]
        f = sp.SpectralDensity(ARMA11)
        serial = sp.AbsContinuousLSD(f)
        expect = [sp.solve_fixed_point(serial, y, z).m for y, z in points]
        shared = sp.AbsContinuousLSD(f)
        orders = [rng.permutation(len(points)) for _ in range(4)]
        solve = lambda order: {i: sp.solve_fixed_point(shared, *points[i]).m for i in order}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                for found in pool.map(solve, orders, timeout=120):
                    assert [found[i] for i in range(len(points))] == expect
        finally:
            sys.setswitchinterval(interval)

    def test_atomic_specialization_equals_mp(self):
        for y in (0.5, 1.0, 3.0):
            for z in (1j, 2.0 + 0.1j, -0.5 + 0.03j, 5.0 + 1j):
                m = sp.solve_fixed_point(MP_ATOM, y, z).m
                assert abs(m - sp.mp_stieltjes(y, z)) <= 1e-10

    @pytest.mark.parametrize("level", [1e-200, 1e154, 1e200])
    @pytest.mark.parametrize("y", [0.5, 1.0, 3.0])
    def test_cold_start_is_the_same_at_every_level(self, level, y):
        # one atom at level L has m(L z) = m_MP(z) / L; the cold start takes z
        # unscaled, so its squares and products must not leave the float range
        law = sp.AtomicLSD(levels=np.array([level]), weights=np.array([1.0]))
        for zeta in (0.01 + 1e-8j, 0.5 + 1e-8j, 1.5 + 0.5j, 5.0 + 1e-8j, -3.0 + 2.0j):
            m = sp.solve_fixed_point(law, y, level * zeta).m
            ref = sp.mp_stieltjes(y, zeta) / level
            assert abs(m - ref) <= 1e-13 * abs(ref), (zeta, m, ref)


class TestContinuousLaws:
    def test_farima_with_ar_part(self):
        lsd = sp.gamma_lsd(sp.ARMAModel(ar=(-0.3,), d=-0.25))
        y, z = 2.0, 1.0 + 0.1j
        m = sp.solve_fixed_point(lsd, y, z).m
        # residual on a graded trapezoid rule of 8192 nodes, independent of the law's
        rule = szego_rule(lsd.f, 16384)
        lam, W = rule.nodes, rule.weights
        assert abs(1.0 / m + z - y * np.sum(W * lam / (1.0 + lam * m))) <= 1e-8

    @pytest.mark.parametrize(
        "d, x, delta, density",
        [
            (-0.25, 0.0010056576567681007, 3.5802668390586135e-08, 1.28984357131671e-3),
            (-0.25, 0.0029748939808199176, 3.5802668390586135e-08, 3.87157822195429e-3),
            (-0.25, 0.00992724007057845, 3.5802668390586135e-08, 1.3670501599197e-2),
            (-0.4, 0.0010352025851138107, 4.157442798014889e-08, 8.55820558818187e-2),
            (-0.4, 0.003062292539273575, 4.157442798014889e-08, 1.13966888471539e-1),
            (-0.4, 0.010218889614120418, 4.157442798014889e-08, 1.6216284095743e-1),
        ],
    )
    def test_farima_small_x_density_matches_a_30_digit_solve(self, d, x, delta, density):
        # FARIMA(0, d, 0) at y = 0.5, z = x + i delta (the default grid's
        # points and offset): (1/pi) Im(m + 0.5/z) from one cold solve against
        # a 30-digit mpmath solve whose T is mpmath's quad over w in [0, pi],
        # split at the real root of f = Re(-1/m).  Worst seen 3.7e-14; the
        # climbing sine-graded rules were up to 99 % off here
        z = complex(x, delta)
        m = sp.solve_fixed_point(sp.gamma_lsd(sp.ARMAModel(d=d)), 0.5, z).m
        assert abs((m + 0.5 / z).imag / math.pi / density - 1.0) <= 1e-10

    def test_large_m_relative_accuracy(self):
        # near x = 0 at y = 1, |m| is about 100 and an error in the integral
        # term is amplified in m by y |m|^2: the Szegő rule's, and the exact
        # law's rounding (worst seen 2.1e-16 there)
        for lsd in (sp.gamma_lsd(ARMA11), ARMA11_SZEGO):
            for z in (3.91e-4 + 6.25e-4j, 7.24e-5 + 6.25e-4j):
                m = sp.solve_fixed_point(lsd, 1.0, z).m
                assert abs(m) > 50.0
                assert abs(m * sp.arma11_residual(0.5, 1.0, 1.0, z, m)) <= 1e-12

    def test_no_warnings(self):
        models = (sp.ARMAModel.arma11(0.5, 1.0), sp.ARMAModel(ar=(-0.3,), d=-0.25))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model in models:
                lsd = sp.gamma_lsd(model)
                for z in (1.0 + 0.1j, 16.0 + 1e-3j, 40.0 + 1e-3j):
                    sp.solve_fixed_point(lsd, 3.0, z)


class TestMPClosedForm:
    def test_root_of_quadratic(self):
        for y in (0.5, 1.0, 3.0):
            for z in (1j, 0.5 + 0.01j, 4.0 + 0.2j):
                m = sp.mp_stieltjes(y, z)
                assert abs(z * m * m + (z + 1.0 - y) * m + 1.0) <= 1e-12
                assert m.imag > 0

    @pytest.mark.parametrize(
        "y, z",
        [(y, r * cmath.exp(1j * phase)) for y in (0.5, 1.0, 3.0) for r in (1e6, 1e8, 1e12) for phase in (0.1, 2.5)]
        + [(3.0, 1e-6j), (3.0, 1e-10j), (3.0, 1e-20j)],
    )
    def test_root_meets_the_quadratic_at_extreme_scales(self, y, z):
        # the root pair is taken free of cancellation, so the defect is at
        # rounding relative to the quadratic's terms where |z| is large, and at
        # y > 1 where z is small and m nears 1/(y - 1) with Im m ~ |z|
        m = sp.mp_stieltjes(y, z)
        terms = (z * m * m, (z + 1.0 - y) * m, 1.0)
        assert m.imag > 0.0
        assert abs(sum(terms)) <= 1e-15 * sum(abs(t) for t in terms)

    def test_recovers_mp_density(self):
        # Stieltjes-Perron at tiny offset reproduces the closed-form density
        for x in (0.5, 1.0, 2.0, 3.5):
            approx = sp.mp_stieltjes(1.0, complex(x, 1e-8)).imag / math.pi
            assert abs(approx - mp_pdf(1.0, x)) <= 1e-4

    @pytest.mark.parametrize("y", [0.0, -1.0, math.inf, math.nan])
    def test_support_rejects_bad_y(self, y):
        with pytest.raises(ValueError):
            sp.mp_support(y)
        with pytest.raises(ValueError, match="aspect ratio"):
            sp.estimate_support_upper(MP_ATOM, y)

    def test_density_helper_matches(self):
        xs = np.linspace(0.05, 4.5, 50)
        np.testing.assert_allclose(
            sp.mp_density(1.0, xs), [mp_pdf(1.0, float(x)) for x in xs], atol=1e-14
        )


class TestARMA11Residual:
    def test_solver_zeroes_quartic(self):
        lsd = sp.gamma_lsd(sp.ARMAModel.arma11(0.5, 1.0))
        z = 1.0 + 0.1j
        m = sp.solve_fixed_point(lsd, 3.0, z).m
        assert abs(sp.arma11_residual(0.5, 1.0, 3.0, z, m)) <= 1e-6

    def test_mp_specialization(self):
        z = 1.0 + 1j
        m = sp.mp_stieltjes(1.0, z)
        assert abs(sp.arma11_residual(0.0, 0.0, 1.0, z, m)) <= 1e-12

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        phi=st.floats(-0.9, 0.9),
        theta=st.floats(-0.9, 0.9),
        y=st.floats(0.2, 5.0),
        re=st.floats(-0.1, 1.2),
        log_im=st.floats(-3.0, 1.0),
    )
    def test_random_models_stay_upper_and_zero_quartic(self, phi, theta, y, re, log_im):
        assume(abs(phi + theta) >= 0.05)
        lsd = sp.gamma_lsd(sp.ARMAModel.arma11(phi, theta))
        # Re z spans the limit law's support, with a margin on both sides
        z = complex(re * sp.support_bounds(lsd.f)[1] * (1.0 + math.sqrt(y)) ** 2, 10.0**log_im)
        m = sp.solve_fixed_point(lsd, y, z).m
        assert m.imag > 0.0
        assert abs(sp.arma11_residual(phi, theta, y, z, m)) <= 1e-6

    def test_rejects_non_solution(self):
        rng = np.random.default_rng(2)
        z = 1.0 + 0.5j
        for _ in range(20):
            m = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3.0))
            if abs(sp.arma11_residual(0.5, 1.0, 3.0, z, m)) <= 1e-3:
                m_true = sp.solve_fixed_point(sp.gamma_lsd(sp.ARMAModel.arma11(0.5, 1.0)), 3.0, z).m
                assert abs(m - m_true) < 1e-2
                continue
            assert abs(sp.arma11_residual(0.5, 1.0, 3.0, z, m)) > 1e-3


class TestARMAResidual:
    def test_sign_convention_is_pinned(self):
        # phi(zeta) = 1 + sum ar_k zeta^k, as in ARMAModel: X_t = 0.5 X_{t-1}
        # + Z_t + Z_{t-1} is ar = (-0.5,).  The other sign fails every ARMA
        # model; an AR-only model cannot tell, as f(w) -> f(w + pi) keeps H
        model = sp.ARMAModel.arma11(0.5, 1.0)
        flipped = sp.ARMAModel(ar=(0.5,), ma=(1.0,))
        lsd, ar1 = sp.gamma_lsd(model), sp.gamma_lsd(sp.ARMAModel(ar=(-0.5,)))
        for y, z in ((0.5, 2.0 + 1j), (3.0, 1.0 + 0.01j), (1.0, 0.3 + 0.1j)):
            m = sp.solve_fixed_point(lsd, y, z).m
            assert abs(exact_defect(model, y, z, m)) <= 1e-13
            assert abs(exact_defect(model, y, z, m) - sp.arma11_residual(0.5, 1.0, y, z, m)) <= 1e-13
            assert abs(exact_defect(flipped, y, z, m)) >= 0.1
            m1 = sp.solve_fixed_point(ar1, y, z).m
            assert abs(exact_defect(sp.ARMAModel(ar=(0.5,)), y, z, m1)) <= 1e-13

    # Stationary AR parts from reflection coefficients |k| <= 0.8 (Schur-Cohn),
    # and z = edge (x + i eta) with x in [-0.2, 1.2] and eta in [0.1, 10], where
    # edge is the top of the support.  K = 1 solves on the exact law and K = 2
    # and 3 on the Szegő law; worst relative residual seen 3.5e-14 against the
    # 50-digit partial-fraction oracle (a residue oracle on float roots, whose
    # floor this was, gave 3.3e-11), and 6.7e-10 on that oracle with AR roots
    # closer to the circle (|k| up to 0.99), where capped climbs had left
    # errors up to 1e-5.
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        refl=st.lists(coefficient(0.8), max_size=3),
        ma=st.lists(coefficient(1.5), max_size=3),
        log_y=st.floats(-1.0, 1.0),
        x=st.floats(-0.2, 1.2),
        log_eta=st.floats(-1.0, 1.0),
    )
    def test_random_models_meet_the_exact_equation(self, refl, ma, log_y, x, log_eta):
        ar = np.array([1.0])
        for k in refl:
            ar = np.append(ar, 0.0) + k * np.append(ar, 0.0)[::-1]
        model = sp.ARMAModel(ar=ar[1:], ma=ma)
        lsd, y = sp.gamma_lsd(model), 10.0**log_y
        z = sp.estimate_support_upper(lsd, y) * complex(x, 10.0**log_eta)
        m = sp.solve_fixed_point(lsd, y, z).m
        assert abs(exact_defect(model, y, z, m)) <= 1e-9 * (abs(z) + abs(1.0 / m))

    @pytest.mark.parametrize(
        "model",
        [
            sp.ARMAModel(ar=(0.6, -0.3)),
            sp.ARMAModel(ma=(1.0, 0.5)),
            sp.ARMAModel(ar=(0.6, -0.3), ma=(0.4, 0.2)),
            ARMA11,
            sp.ARMAModel.arma11(0.5, -1.0),
            SHARP_AR2,
        ],
        ids=["ar2", "ma2", "arma22", "arma11", "arma11-theta-negative", "sharp-ar2"],
    )
    def test_exact_law_solves_meet_the_residue_oracle(self, model):
        # z = edge (x + i eta) across the support and past it, on the exact law
        # (K = 1) and the Szegő law (K = 2), against the 50-digit
        # partial-fraction oracle.  Worst relative defect seen: 4.6e-16 (AR(2)),
        # and 1.2e-13 for the sharp AR(2), at eta = 1e-3
        law = sp.gamma_lsd(model)
        assert isinstance(law, sp.ExactARMALSD if len(model.ar) < 2 and len(model.ma) < 2 else sp.AbsContinuousLSD)
        for y in (0.5, 1.0, 3.0):
            edge = sp.estimate_support_upper(law, y)
            for x in (-0.1, 0.01, 0.3, 0.7, 1.0, 1.1):
                for eta in (1e-3, 0.1, 1.0):
                    z = edge * complex(x, eta)
                    m = sp.solve_fixed_point(law, y, z).m
                    assert abs(exact_defect(model, y, z, m)) <= 2e-13 * (abs(z) + abs(1.0 / m)), (y, x, eta)


class TestInversion:
    def test_mp_interior_point(self):
        dens = sp.invert_to_density(MP_ATOM, 1.0, grid=np.array([0.5, 1.0, 2.0, 3.0, 3.9]))
        assert abs(dens.values[2] - 1.0 / (2.0 * math.pi)) <= 1e-4

    def test_outside_support_vanishes(self):
        dens = sp.invert_to_density(MP_ATOM, 1.0, grid=np.array([4.5, 5.0, 6.0]))
        assert dens.values.max() <= 1e-4

    def test_mass_at_zero(self):
        dens = sp.invert_to_density(MP_ATOM, 0.5, grid=np.linspace(0.01, 3.5, 64))
        assert dens.mass_at_zero == 0.5

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sp.invert_to_density(MP_ATOM, 1.0, grid=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            sp.invert_to_density(MP_ATOM, 1.0, grid=np.array([2.0, 1.0]))
        # a point that is not finite is refused as input; these raised
        # ConvergenceError, ArithmeticError and "z must lie in the upper half-plane"
        for grid in ([1.0, math.nan, 3.0], [1.0, math.inf], [1.0, 2.0, math.nan], [math.nan]):
            with pytest.raises(ValueError, match="finite"):
                sp.invert_to_density(MP_ATOM, 1.0, grid=np.array(grid))

    @pytest.mark.parametrize("model", MOMENT_MODELS[:4], ids=MOMENT_IDS[:4])
    @pytest.mark.parametrize("y", [0.5, 3.0])
    def test_one_point_grid_matches_the_table(self, model, y):
        # a table's last point solved alone, at the same offset: it differs
        # only by its cold start and the rule the potential runs on.  Worst
        # seen 4.4e-16 relative in the density (ARMA(1,1), y = 0.5) and
        # 4.4e-14 in F (FARIMA, y = 0.5)
        lsd = sp.gamma_lsd(model)
        grid = sp.default_grid(lsd, y)[:300]
        table, alone = sp.invert_to_density(lsd, y, grid=grid), sp.invert_to_density(lsd, y, grid=grid[-1:])
        assert alone.grid.tolist() == [grid[-1]] and alone.offset == table.offset
        assert abs(alone.values[0] / table.values[-1] - 1.0) <= 1e-13
        assert abs(alone.cdf[0] - table.cdf[-1]) <= 1e-12

    @pytest.mark.parametrize("model", SZEGO_MODELS.values(), ids=SZEGO_MODELS.keys())
    def test_farima_tables_match_one_fine_rule(self, model, monkeypatch):
        # the default-grid tables of each Szegő law against the same law on a
        # rule of 16x the nodes.  Worst seen 6.2e-11 of the peak in the density
        # (FARIMA d = -0.4, y = 0.5) and 2.0e-13 in F (the sharp AR(3), y = 3),
        # but at the first points of the y = 0.5 FARIMA tables.  There |m| is
        # about a/|z| ~ 1e7, and Im(m + a/z) keeps only ulp(a/|z|)/pi, up to
        # 6.6e-10 of the peak; the two rules' tables sit up to 4.5 such quanta
        # apart, so the density bound adds 8.  The climbing rules left the
        # y = 1 FARIMA tables 7.8e-9 and 3.6e-8 of the peak off a 2^16-node rule
        law = sp.gamma_lsd(model)
        monkeypatch.setattr(sp.toeplitz_lsd, "RULE_STEPS", 16 * sp.toeplitz_lsd.RULE_STEPS)
        fine = sp.AbsContinuousLSD(law.f)
        for y in (0.5, 1.0, 3.0):
            table = sp.invert_to_density(law, y)
            ref = sp.invert_to_density(fine, y, grid=table.grid)
            quanta = 8.0 * np.spacing(table.mass_at_zero / np.abs(table.grid + 1j * table.offset)) / math.pi
            assert np.all(np.abs(table.values - ref.values) <= 1e-9 * ref.values.max() + quanta), y
            assert np.max(np.abs(table.cdf - ref.cdf)) <= 1e-10, y

    def test_caller_arrays_stay_writable_and_unaliased(self):
        levels, weights, grid = np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.linspace(0.1, 6.0, 32)
        lsd = sp.AtomicLSD(levels, weights)
        density = sp.invert_to_density(lsd, 1.0, grid=grid)
        for mine, kept in ((levels, lsd.levels), (weights, lsd.weights), (grid, density.grid)):
            assert mine.flags.writeable and not kept.flags.writeable
            assert not np.shares_memory(mine, kept)
        levels[0], grid[0] = 3.0, 0.05
        assert lsd.levels[0] == 1.0 and density.grid[0] == 0.1

    def test_nonconvergence_reports_offending_x(self, monkeypatch):
        monkeypatch.setattr(sp.stieltjes, "MAX_ITER", 2)
        with pytest.raises(sp.ConvergenceError) as err:
            sp.invert_to_density(MP_ATOM, 1.0, grid=np.array([1.0, 2.0]))
        assert "x=" in str(err.value)

    def test_one_solve_per_grid_point(self, monkeypatch):
        calls = []
        solve = sp.stieltjes.solve_fixed_point

        def counted(lsd, y, z, *args, **kwargs):
            calls.append(z)
            return solve(lsd, y, z, *args, **kwargs)

        monkeypatch.setattr(sp.stieltjes, "solve_fixed_point", counted)
        grid = sp.default_grid(MP_ATOM, 1.0)
        dens = sp.invert_to_density(MP_ATOM, 1.0, grid=grid)
        assert len(calls) == grid.size == 512
        assert dens.offset == sp.stieltjes.OFFSET * grid[-1]
        assert all(z.imag == dens.offset for z in calls)

    def test_table_solves_evaluate_at_most_twice_a_sweep(self, monkeypatch):
        # ARMA(2,3) at y = 0.5 on its Szegő law: every solve makes at most two
        # evaluations a sweep, plus one at the start.
        # Halving each rejected Newton step took 4,090 evaluations in 710
        # sweeps at x = 54.19.
        lsd = sp.gamma_lsd(ARMA23)
        grid = sp.default_grid(lsd, 0.5)
        evals = count_evaluations(monkeypatch)
        solve = sp.stieltjes.solve_fixed_point
        counts = []

        def counted(*args, **kwargs):
            before = evals[0]
            sol = solve(*args, **kwargs)
            counts.append((sol.z, evals[0] - before, sol.iterations))
            return sol

        monkeypatch.setattr(sp.stieltjes, "solve_fixed_point", counted)
        sp.invert_to_density(lsd, 0.5, grid=grid)
        assert len(counts) == grid.size
        for z, n, sweeps in counts:
            assert n <= 2 * sweeps + 1, (z, n, sweeps)

    def test_exact_arma11_table_evaluations(self, monkeypatch):
        # the default ARMA(1,1) table at y = 1 on the exact law: 2,402
        # evaluations in 2,188 sweeps, the grid's edge search included.
        # Evaluating each returned m again for the residual, with no stop at a
        # step within rounding, made 2,766
        evals = [0]
        terms = sp.ExactARMALSD.terms

        def counted(law, m):
            evals[0] += 1
            return terms(law, m)

        monkeypatch.setattr(sp.ExactARMALSD, "terms", counted)
        sp.invert_to_density(sp.gamma_lsd(ARMA11), 1.0)
        assert evals[0] <= 2450

    @pytest.mark.parametrize("y", [0.5, 1.0, 3.0])
    def test_mp_closed_form_on_default_grid(self, y):
        dens = sp.invert_to_density(MP_ATOM, y)
        g, lo, hi = dens.grid, *sp.mp_support(y)
        exact = sp.mp_density(y, g)
        # away from the few points within a few offsets of a hard edge at 0,
        # and from the square-root edges, where the offset smooths the most
        keep = (g >= 1e-6 * g[-1]) & (g >= lo * (1.0 + 1e-3)) & (g <= hi * (1.0 - 1e-3))
        assert keep.sum() > 200
        assert np.max(np.abs(dens.values[keep] / exact[keep] - 1.0)) <= 1e-4
        if y == 1.0:
            # x = 4 sin^2 t turns the y = 1 density into (4/pi) cos^2 t dt.  Worst
            # seen 1.29e-5 at the first point, on the hard edge, and 3.7e-6 past
            # the first 8
            t = np.arcsin(np.sqrt(np.minimum(g, 4.0)) / 2.0)
            oracle = 2.0 / math.pi * (t + np.sin(t) * np.cos(t))
            assert np.max(np.abs(dens.cdf - oracle)) <= 2e-5
            assert np.max(np.abs(dens.cdf[8:] - oracle[8:])) <= 1e-5

    def test_split_support(self):
        # levels 1 and 2 at y = 0.01: two bulks, around 1 and around 2
        lsd = sp.AtomicLSD(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        dens = sp.invert_to_density(lsd, 0.01)
        assert np.all(np.isfinite(dens.values)) and np.all(dens.values >= 0.0)
        # worst seen 1.4e-10 below 1
        assert abs(dens.cdf[-1] - 1.0) <= 1e-9
        gap = (dens.grid > 1.45) & (dens.grid < 1.55)
        assert gap.any()
        assert dens.values[gap].max() <= 1e-6

    @pytest.mark.parametrize("y, bound", [(0.5, 1e-10), (1.0, 5e-13), (3.0, 1e-14)])
    def test_arma11_table_meets_the_quartic(self, y, bound):
        # the default-grid table of ARMA(1,1) phi = 0.5, theta = 1 against Newton
        # on the quartic (arma11_residual) at each of its points.  Worst seen,
        # relative to the peak: 3.1e-11 at y = 0.5 (at x = 3e-7, where m + a/z
        # cancels |m| = 1.7e6 down to 251), 1.2e-13 at y = 1 and 3.0e-15 at
        # y = 3; each bound is about 3x that.  The Szegő law of the same f
        # gives the y = 0.5 table to 4.3e-13 of the peak; the climbing rules
        # were 0.74 of the peak off.
        lsd = sp.gamma_lsd(ARMA11)
        dens = sp.invert_to_density(lsd, y)
        atom = max(0.0, 1.0 - y)
        exact = []
        for x in dens.grid:
            z = complex(x, dens.offset)
            m = sp.solve_fixed_point(lsd, y, z).m
            residual = lambda m: sp.arma11_residual(0.5, 1.0, y, z, m)
            for _ in range(50):
                h = 1e-7 * abs(m)
                step = residual(m) * 2.0 * h / (residual(m + h) - residual(m - h))
                m -= step
                if abs(step) <= 1e-15 * abs(m):
                    break
            exact.append(max((m + atom / z).imag / math.pi, 0.0))
        exact = np.array(exact)
        assert np.max(np.abs(dens.values - exact)) <= bound * exact.max()

    @pytest.mark.parametrize("y", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("phi, theta", [(0.995, 0.0), (0.999, 0.5), (0.9999, 0.0), (-0.999, 0.3)])
    def test_near_unit_root_tables_meet_the_quartic(self, phi, theta, y, monkeypatch):
        # ARMA(1,1) near a unit root, where A(s) = r0 + r1 s cancels: the exact
        # law reads E at s = +-2, so each default-grid solve stops, and its m
        # meets the quartic.  Worst seen 2.2e-15 of |1/m| over the 117 tables of
        # phi in {+-0.5, 0.9, 0.99, 0.995, 0.999, 0.9999, -0.999} and theta in
        # {0, 0.5, +-1, -0.3} at these y; taking E's root from A(s) = r0 + r1 s
        # failed 40 of them after MAX_ITER sweeps
        solve, solved = sp.stieltjes.solve_fixed_point, []

        def recorded(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(sp.stieltjes, "solve_fixed_point", recorded)
        dens = sp.invert_to_density(sp.gamma_lsd(sp.ARMAModel.arma11(phi, theta)), y)
        assert len(solved) == 512
        # the residual |1 + m z - y m T(m)| is free of the law's scale: worst
        # seen 1.3e-15, where the defect |1/m + z - y T(m)| it replaced read 9.1e-8
        assert dens.max_residual <= 1e-10
        for sol in solved:
            assert abs(sp.arma11_residual(phi, theta, y, sol.z, sol.m)) <= 1e-14 * abs(1.0 / sol.m), sol.z

    @pytest.mark.parametrize(
        "model, y",
        [
            (sp.ARMAModel(ar=NEAR_AR2), 0.5),
            (sp.ARMAModel(ar=NEAR_AR2, ma=(0.5967440816252622, -0.2629364312363114)), 0.5),
            (sp.ARMAModel(ar=NEAR_AR2, ma=(0.5967440816252622, -0.2629364312363114)), 2.0),
            (sp.ARMAModel(ar=(-1.3798974981022096, 0.9989612336996773)), 0.5),
            (SHARP_AR2, 0.5),
            (SHARP_AR2, 1.0),
            (SHARP_AR2, 4.0),
        ],
        ids=["ar2", "arma22-y0.5", "arma22-y2", "ar2-1.38", "sharp-ar2-y0.5", "sharp-ar2-y1", "sharp-ar2-y4"],
    )
    def test_near_unit_root_szego_tables_meet_the_oracle(self, model, y, monkeypatch):
        # K = 2 tables on the Szegő law beside a peak of f from AR zeros within
        # 3e-3 of the unit circle: each default-grid solve stops, and its m
        # meets the 50-digit partial-fraction oracle.  Worst seen 7.0e-12 of
        # |1/m| (the AR(2), y = 0.5).  With f, L' and the poles' residues 1/L'
        # from cosine sums, each of these tables raised ConvergenceError
        solve, solved = sp.stieltjes.solve_fixed_point, []

        def recorded(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(sp.stieltjes, "solve_fixed_point", recorded)
        dens = sp.invert_to_density(sp.gamma_lsd(model), y)
        assert len(solved) == 512
        # worst seen 9.6e-12 (the AR(2), y = 0.5); the defect |1/m + z - y T(m)|
        # it replaced read 4.3e-8 to 4.7e-6 here, with the law's scale
        assert dens.max_residual <= 1e-10
        for sol in solved:
            residual = exact_defect(model, y, sol.z, sol.m)
            assert abs(residual) <= 1e-9 * abs(1.0 / sol.m), sol.z

    @pytest.mark.parametrize("y", [0.01, 3.0], ids=["split", "y3"])
    def test_two_levels_match_exact_roots(self, y):
        # levels (1, 2), weights (1/2, 1/2) against the roots of the cubic in m
        # on the axis.  Worst seen: 1.48e-6 (y = 0.01) and 9.5e-7 (y = 3)
        # relative where p > 1e-3 of the peak, 1.47e-6 of the peak anywhere;
        # bounds 2x those
        dens = sp.invert_to_density(sp.AtomicLSD(np.array([1.0, 2.0]), np.array([0.5, 0.5])), y)
        # one level is Marchenko-Pastur, a check on the oracle itself
        mp = atomic_lsd_density([1.0], [1.0], y, dens.grid)
        np.testing.assert_allclose(mp, sp.mp_density(y, dens.grid), rtol=0, atol=1e-12)
        exact = atomic_lsd_density([1.0, 2.0], [0.5, 0.5], y, dens.grid)
        peak = exact.max()
        inside = exact > 1e-3 * peak
        assert inside.sum() >= 100
        assert np.max(np.abs(dens.values[inside] / exact[inside] - 1.0)) <= 3e-6
        assert np.max(np.abs(dens.values - exact)) <= 3e-6 * peak


def _quad_moment(model, j):
    # (1/pi) integral over [0, pi] of f^j, f written out from the model's coefficients
    P = np.polynomial.polynomial

    def f(w):
        e = cmath.exp(1j * w)
        ratio = abs(P.polyval(e, [1.0, *model.ma])) ** 2 / abs(P.polyval(e, [1.0, *model.ar])) ** 2
        return (ratio * (2.0 - 2.0 * math.cos(w)) ** (-model.d)) ** j

    return quad(f, 0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)[0] / math.pi


class TestMoments:
    """Moments 0..4 of each density table against the exact moments of the limit law."""

    def test_toeplitz_moments_match_closed_forms(self):
        assert toeplitz_moments(sp.ARMAModel()) == (1.0, 1.0, 1.0, 1.0)
        # FARIMA(0, d, 0): H_j is the variance of FARIMA(0, j d, 0) (Hosking 1981)
        d = FARIMA.d
        for j, h in enumerate(toeplitz_moments(FARIMA), start=1):
            assert abs(h / (math.gamma(1.0 - 2.0 * j * d) / math.gamma(1.0 - j * d) ** 2) - 1.0) <= 1e-14, j

    @pytest.mark.parametrize(
        "model",
        [sp.ARMAModel.arma11(0.5, 1.0), ARMA23, sp.ARMAModel(ar=(-0.3,), d=-0.25), sp.ARMAModel(ma=(0.3,), d=-0.2)],
        ids=["arma11", "arma23", "farima-ar", "farima-ma"],
    )
    def test_toeplitz_moments_match_quadrature(self, model):
        # the trapezoid rule (d = 0) and Hosking's series (d != 0) against adaptive
        # quadrature; worst seen 2.0e-15
        for j, h in enumerate(toeplitz_moments(model), start=1):
            assert abs(h / _quad_moment(model, j) - 1.0) <= 1e-13, j

    @pytest.mark.parametrize("y", [0.5, 1.0, 3.0])
    def test_marchenko_pastur_moments(self, y):
        exact = (1.0, y, y + y**2, y + 3.0 * y**2 + y**3, y + 6.0 * y**2 + 6.0 * y**3 + y**4)
        np.testing.assert_allclose(lsd_moments(sp.ARMAModel(), y), exact, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("y", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("model", MOMENT_MODELS, ids=MOMENT_IDS)
    def test_table_moments(self, model, y):
        # k = 0 is the mass F(top) of the table, the zero atom included; the atom
        # adds nothing to x^k for k >= 1.  Worst seen, each bound about 3x
        # (k = 0) and 2x (k >= 1) above it: k = 0 6.7e-9 (white noise, y = 3,
        # the offset's bias), k = 1 2.7e-4 (ARMA(2,3), y = 0.5), k = 2 1.1e-4,
        # k = 3 1.7e-4 and k = 4 2.2e-4 (ARMA(2,3), y = 0.5)
        dens = sp.invert_to_density(sp.gamma_lsd(model), y)
        exact = lsd_moments(model, y)
        assert dens.max_residual <= 1e-10
        assert abs(dens.cdf[-1] - exact[0]) <= 2e-8
        for k in range(1, 5):
            table = trapezoid(dens.grid**k * dens.values, dens.grid)
            assert abs(table / exact[k] - 1.0) <= 5e-4, k


class TestDefaultGrid:
    @pytest.mark.parametrize("size", [16, 31, 32, 39, 64])
    def test_size_points_ending_past_the_edge(self, size):
        grid = sp.default_grid(MP_ATOM, 1.0, size=size)
        assert grid.size == size
        assert grid[0] > 0.0 and np.all(np.diff(grid) > 0.0)
        assert grid[-1] == 1.05 * sp.estimate_support_upper(MP_ATOM, 1.0)

    @pytest.mark.parametrize("size", [64, 100, 512])
    def test_large_sizes_keep_their_layout(self, size):
        # a geometric head of max(32, size // 4) points, then a linear run
        grid = sp.default_grid(MP_ATOM, 1.0, size=size)
        hi, n_geo = grid[-1], max(32, size // 4)
        head = np.geomspace(1e-8 * hi, 0.05 * hi, n_geo, endpoint=False)
        assert np.array_equal(grid, np.concatenate([head, np.linspace(0.05 * hi, hi, size - n_geo)]))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            sp.default_grid(MP_ATOM, 1.0, size=sp.stieltjes.GRID_MIN_SIZE - 1)


class TestLsdCDF:
    def test_zero_point_is_atom_mass(self):
        for y in (0.5, 1.0):
            dens = sp.invert_to_density(MP_ATOM, y)
            assert sp.lsd_cdf(dens, 0.0) == max(0.0, 1.0 - y)

    def test_zero_below_zero(self):
        dens = sp.invert_to_density(MP_ATOM, 0.5, grid=np.linspace(0.01, 3.5, 64))
        assert sp.lsd_cdf(dens, -1.0) == 0.0
        assert np.array_equal(sp.lsd_cdf(dens, np.array([-1.0, -1e-300, 0.0])), [0.0, 0.0, 0.5])

    def test_mp_unit_mass_and_interior_value(self):
        # linear between table points: worst seen 8.0e-6 at the top edge x = 4,
        # and 1.4e-6 at x = 1
        dens = sp.invert_to_density(MP_ATOM, 1.0)
        assert abs(sp.lsd_cdf(dens, 4.0) - 1.0) <= 2e-5
        oracle = quad(lambda t: mp_pdf(1.0, t), 0.0, 1.0, points=[0.0], limit=200)[0]
        assert abs(oracle - 0.60900) <= 2e-5
        assert abs(sp.lsd_cdf(dens, 1.0) - oracle) <= 3.5e-6

    def test_monotone(self):
        dens = sp.invert_to_density(MP_ATOM, 1.0)
        xs = np.linspace(0.0, dens.grid[-1], 200)
        vals = sp.lsd_cdf(dens, xs)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_mass_conservation_shipped_models(self):
        # worst seen 6.7e-9 below 1 (y = 3)
        for y in (0.5, 1.0, 3.0):
            dens = sp.invert_to_density(MP_ATOM, y)
            total = sp.lsd_cdf(dens, dens.grid[-1])
            assert 1.0 - 2e-8 <= total <= 1.0

    @pytest.mark.parametrize("y", [0.5, 3.0])
    def test_mp_matches_quadrature(self, y):
        # F on the default grid against adaptive quadrature of the closed-form
        # density, piece by piece between grid points.  Worst seen 2.1e-8
        # (y = 0.5) and 3.3e-8 (y = 3); y = 1, with its hard edge, is checked
        # against its closed form in TestInversion
        dens = sp.invert_to_density(MP_ATOM, y)
        lo, hi = sp.mp_support(y)
        cuts = np.clip(np.concatenate(([0.0], dens.grid)), lo, hi)
        pieces = [quad(lambda t: mp_pdf(y, t), a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0] if b > a else 0.0
                  for a, b in zip(cuts[:-1], cuts[1:])]
        oracle = max(0.0, 1.0 - y) + np.cumsum(pieces)
        assert np.max(np.abs(dens.cdf - oracle)) <= 1e-7

    def test_interpolates_the_table(self):
        # zero below zero, the atom at zero, linear from there through the table
        # and flat past its top
        dens = sp.LimitingDensity(
            grid=[1.0, 2.0, 4.0], values=[0.1, 0.2, 0.0], cdf=[0.5, 0.75, 1.0], mass_at_zero=0.25, y=0.75
        )
        xs = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0])
        assert np.array_equal(sp.lsd_cdf(dens, xs), [0.0, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0, 1.0])

    @pytest.mark.parametrize("y", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("model", MOMENT_MODELS, ids=MOMENT_IDS)
    def test_monotone_and_at_most_one(self, model, y):
        # nondecreasing to rounding, where F is flat too; F(top) worst seen
        # 1 - 6.7e-9 (white noise, y = 3), and never above 1
        dens = sp.invert_to_density(sp.gamma_lsd(model), y)
        assert np.all(np.diff(dens.cdf) >= -1e-15)
        assert 1.0 - 2e-8 <= dens.cdf[-1] <= 1.0


class TestSupportEstimate:
    def test_mp_edge_detected(self):
        hi = sp.estimate_support_upper(MP_ATOM, 1.0)
        assert 3.9 <= hi <= 4.6

    @pytest.mark.parametrize("y", [0.2, 1.0, 3.0, 10.0])
    def test_mp_edge_exact(self, y):
        hi = sp.estimate_support_upper(MP_ATOM, y)
        assert abs(hi / (1.0 + math.sqrt(y)) ** 2 - 1.0) <= 1e-12

    @pytest.mark.parametrize("y", [0.2, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("phi, theta", [(0.5, 1.0), (-0.4, 0.8), (0.8, -0.4)])
    def test_arma11_edge_matches_quartic(self, phi, theta, y):
        # on real m the quartic's closed form gives x(m) = -1/m + y T(m), whose
        # minimum on (-1/lam_max, 0) is the edge (Silverstein & Choi 1995)
        lam_max = arma11_support(phi, theta)[1]
        x = lambda m: -sp.arma11_residual(phi, theta, y, 0.0, m).real
        oracle = minimize_scalar(x, bounds=(-1.0 / lam_max, 0.0), method="bounded", options={"xatol": 1e-12})
        hi = sp.estimate_support_upper(sp.gamma_lsd(sp.ARMAModel.arma11(phi, theta)), y)
        assert abs(hi / oracle.fun - 1.0) <= 1e-12
