import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

import specmp as sp

MP_ATOM = sp.AtomicLSD(levels=np.array([1.0]), weights=np.array([1.0]))


def quadratic_mp_root(y, z):
    # independent oracle: upper-half-plane root of z m^2 + (z + 1 - y) m + 1
    roots = np.roots([z, z + 1.0 - y, 1.0])
    upper = roots[roots.imag > 0]
    assert upper.size == 1
    return complex(upper[0])


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
        with pytest.raises(ValueError):
            sp.solve_fixed_point(MP_ATOM, -1.0, 1j)

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

    def test_single_atom_cold_start_is_exact(self):
        # the mean-level Marchenko-Pastur start is the answer for one atom
        for y in (0.5, 1.0, 3.0):
            edge = (1.0 + math.sqrt(y)) ** 2
            for z in (1j, 2.0 + 0.1j, -0.5 + 0.03j, complex(edge, 1e-3), complex(0.5 * edge, 1e-3)):
                sol = sp.solve_fixed_point(MP_ATOM, y, z)
                assert abs(sol.m - sp.mp_stieltjes(y, z)) <= 1e-12
                assert sol.iterations <= 2

    def test_atomic_specialization_equals_mp(self):
        for y in (0.5, 1.0, 3.0):
            for z in (1j, 2.0 + 0.1j, -0.5 + 0.03j, 5.0 + 1j):
                m = sp.solve_fixed_point(MP_ATOM, y, z).m
                assert abs(m - sp.mp_stieltjes(y, z)) <= 1e-10


class TestContinuousLaws:
    def test_farima_with_ar_part(self):
        lsd = sp.gamma_lsd(sp.FARIMAModel(sp.ARMAModel(ar=(-0.3,)), -0.25))
        y, z = 2.0, 1.0 + 0.1j
        m = sp.solve_fixed_point(lsd, y, z).m
        # residual on a rule far finer than any the solver builds
        lam, W = lsd.rule(16384)
        assert abs(1.0 / m + z - y * np.sum(W * lam / (1.0 + lam * m))) <= 1e-8

    def test_large_m_relative_accuracy(self):
        # near x = 0 at y = 1, |m| is about 100 and the rule's error in the
        # integral term is amplified in m by y |m|^2
        lsd = sp.gamma_lsd(sp.ARMAModel.arma11(0.5, 1.0))
        for z in (3.91e-4 + 6.25e-4j, 7.24e-5 + 6.25e-4j):
            m = sp.solve_fixed_point(lsd, 1.0, z).m
            assert abs(m) > 50.0
            assert abs(m * sp.arma11_residual(0.5, 1.0, 1.0, z, m)) <= 1e-12

    def test_no_warnings(self):
        models = (sp.ARMAModel.arma11(0.5, 1.0), sp.FARIMAModel(sp.ARMAModel(ar=(-0.3,)), -0.25))
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

    def test_recovers_mp_density(self):
        # Stieltjes-Perron at tiny offset reproduces the closed-form density
        for x in (0.5, 1.0, 2.0, 3.5):
            approx = sp.mp_stieltjes(1.0, complex(x, 1e-8)).imag / math.pi
            assert abs(approx - mp_pdf(1.0, x)) <= 1e-4

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
        z = complex(re * lsd.support[1] * (1.0 + math.sqrt(y)) ** 2, 10.0**log_im)
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
        with pytest.raises(ValueError):
            sp.invert_to_density(MP_ATOM, 1.0, grid=np.array([1.0, 2.0]), eps_schedule=())

    def test_nonconvergence_reports_offending_x(self):
        cfg = sp.SolverConfig(max_iter=2)
        with pytest.raises(sp.ConvergenceError) as err:
            sp.invert_to_density(MP_ATOM, 1.0, grid=np.array([1.0, 2.0]), cfg=cfg)
        assert "x=" in str(err.value)


class TestLsdCDF:
    def test_zero_point_is_atom_mass(self):
        for y in (0.5, 1.0):
            dens = sp.invert_to_density(MP_ATOM, y)
            assert sp.lsd_cdf(dens, 0.0) == max(0.0, 1.0 - y)

    def test_mp_unit_mass_and_interior_value(self):
        dens = sp.invert_to_density(MP_ATOM, 1.0)
        assert abs(sp.lsd_cdf(dens, 4.0) - 1.0) <= 2e-3
        oracle = quad(lambda t: mp_pdf(1.0, t), 0.0, 1.0, points=[0.0], limit=200)[0]
        assert abs(oracle - 0.60900) <= 2e-5
        assert abs(sp.lsd_cdf(dens, 1.0) - oracle) <= 2e-3

    def test_monotone(self):
        dens = sp.invert_to_density(MP_ATOM, 1.0)
        xs = np.linspace(0.0, dens.grid[-1], 200)
        vals = sp.lsd_cdf(dens, xs)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_mass_conservation_shipped_models(self):
        for y in (0.5, 1.0, 3.0):
            dens = sp.invert_to_density(MP_ATOM, y)
            total = sp.lsd_cdf(dens, dens.grid[-1])
            assert 0.997 <= total <= 1.003


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
        lam_max = sp.arma11_support(phi, theta)[1]
        x = lambda m: -sp.arma11_residual(phi, theta, y, 0.0, m).real
        oracle = minimize_scalar(x, bounds=(-1.0 / lam_max, 0.0), method="bounded", options={"xatol": 1e-12})
        hi = sp.estimate_support_upper(sp.gamma_lsd(sp.ARMAModel.arma11(phi, theta)), y)
        assert abs(hi / oracle.fun - 1.0) <= 1e-12
