import math

import numpy as np
import pytest
from scipy.integrate import quad

import specmp as sp

TWO_PI = 2.0 * math.pi


class TestSupportBounds:
    def test_arma11_closed_form(self):
        f = sp.spectral_density(sp.ARMAModel.arma11(0.5, 1.0))
        lo, hi = sp.support_bounds(f)
        assert abs(lo - 0.0) <= 1e-10
        assert abs(hi - 16.0) <= 1e-8

    def test_ar1_closed_form(self):
        f = sp.spectral_density(sp.ARMAModel.arma11(0.5, 0.0))
        lo, hi = sp.support_bounds(f)
        assert abs(lo - 4.0 / 9.0) <= 1e-10
        assert abs(hi - 4.0) <= 1e-10

    def test_white_noise_routes_to_atoms(self):
        lsd = sp.gamma_lsd(sp.ARMAModel())
        assert isinstance(lsd, sp.AtomicLSD)
        assert lsd.atoms == [(1.0, 1.0)]

    def test_farima_support_touches_zero(self):
        f = sp.spectral_density(sp.FARIMAModel(sp.ARMAModel(), -0.25))
        lo, hi = sp.support_bounds(f)
        assert lo == 0.0
        assert abs(hi - 2.0 ** 0.5) <= 1e-10


class TestLevelSetRoots:
    def test_ma1_interior_level(self):
        f = sp.spectral_density(sp.ARMAModel(ma=[1.0]))  # f = 2 + 2 cos w
        ls = sp.level_set_roots(f, 2.0)
        np.testing.assert_allclose(ls.roots, [math.pi / 2.0, 3.0 * math.pi / 2.0], atol=1e-10)
        assert not ls.any_tangential

    def test_ma1_boundary_extremum(self):
        f = sp.spectral_density(sp.ARMAModel(ma=[1.0]))
        ls = sp.level_set_roots(f, 4.0)
        np.testing.assert_allclose(ls.roots, [0.0], atol=1e-10)
        assert list(ls.tangential) == [True]

    def test_ar1_arccos_oracle(self):
        f = sp.spectral_density(sp.ARMAModel.arma11(0.5, 0.0))
        # f(w) = 1 at cos w = 1/4
        ls = sp.level_set_roots(f, 1.0)
        w0 = math.acos(0.25)
        np.testing.assert_allclose(ls.roots, [w0, TWO_PI - w0], atol=1e-10)

    def test_roots_satisfy_level_equation(self):
        f = sp.spectral_density(sp.ARMAModel.arma11(0.5, 1.0))
        for lam in (0.5, 2.0, 9.0, 15.0):
            ls = sp.level_set_roots(f, lam)
            assert ls.roots.size > 0
            assert np.max(np.abs(f(ls.roots) - lam)) <= 1e-9


class TestGammaDensity:
    def test_ma1_closed_value(self):
        f = sp.spectral_density(sp.ARMAModel(ma=[1.0]))
        assert abs(sp.gamma_density(f, 2.0) - 1.0 / TWO_PI) <= 1e-12

    def test_ar1_matches_closed_form(self):
        f = sp.spectral_density(sp.ARMAModel.arma11(0.5, 0.0))
        assert abs(sp.gamma_density(f, 1.0) - sp.arma11_gamma_density(0.5, 0.0, 1.0)) <= 1e-10

    def test_degenerate_rejected(self):
        f = sp.spectral_density(sp.ARMAModel())
        with pytest.raises(ValueError):
            sp.gamma_density(f, 1.0)

    def test_edge_level_rejected(self):
        f = sp.spectral_density(sp.ARMAModel(ma=[1.0]))
        with pytest.raises(ValueError):
            sp.gamma_density(f, 4.0)  # at the band edge, not strictly inside

    def test_tangential_level_flagged(self):
        # f = |1 + e^{iw} + 0.5 e^{2iw}|^2 has an interior local maximum 0.25
        # at w = pi; the density there mixes a tangential root with two
        # regular ones and is flagged
        f = sp.spectral_density(sp.ARMAModel(ma=[1.0, 0.5]))
        lo, hi = sp.support_bounds(f)
        assert lo < 0.25 < hi
        with pytest.warns(sp.TangentialRootWarning):
            val = sp.gamma_density(f, 0.25)
        assert 0.0 < val < math.inf

    def test_closed_form_agreement_random_models(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 20:
            phi, theta = rng.uniform(-0.8, 0.8, 2)
            if abs(phi + theta) < 0.05:
                continue
            lsd = sp.gamma_lsd(sp.ARMAModel.arma11(phi, theta))
            lo, hi = lsd.support
            lam = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 11)
            closed = np.array([sp.arma11_gamma_density(phi, theta, L) for L in lam])
            assert np.max(np.abs(lsd.density(lam) - closed)) <= 1e-8
            checked += 1

    def test_band_edge_inverse_square_root(self):
        # near the upper edge the density grows like (edge - lam)^(-1/2)
        scaled = [
            sp.arma11_gamma_density(0.5, 1.0, 16.0 - d) * math.sqrt(d) for d in (1e-4, 1e-6)
        ]
        assert abs(scaled[0] / scaled[1] - 1.0) < 0.01


class TestGammaCDF:
    def test_ma1_half(self):
        f = sp.spectral_density(sp.ARMAModel(ma=[1.0]))
        assert abs(sp.gamma_cdf(f, 2.0) - 0.5) <= 1e-9

    def test_outside_support_exact(self):
        f = sp.spectral_density(sp.ARMAModel(ma=[1.0]))
        assert sp.gamma_cdf(f, 4.0) == 1.0
        assert sp.gamma_cdf(f, 5.0) == 1.0
        assert sp.gamma_cdf(f, 0.0) == 0.0

    def test_ar1_arccos_value_and_quadrature(self):
        f = sp.spectral_density(sp.ARMAModel.arma11(0.5, 0.0))
        got = sp.gamma_cdf(f, 1.0)
        assert abs(got - (TWO_PI - 2.0 * math.acos(0.25)) / TWO_PI) <= 1e-9
        # independent oracle: quadrature of the density up to 1, with the
        # edge singularity removed by lam = lo + s^2
        lo = 4.0 / 9.0
        oracle = quad(
            lambda s: sp.gamma_density(f, lo + s * s) * 2.0 * s,
            1e-8,
            math.sqrt(1.0 - lo),
            limit=200,
        )[0]
        assert abs(got - oracle) <= 1e-6

    def test_matches_density_derivative(self):
        f = sp.spectral_density(sp.ARMAModel.arma11(0.5, 1.0))
        lam = np.linspace(1.0, 15.0, 50)
        h = 1e-5
        for L in lam:
            fd = (sp.gamma_cdf(f, L + h) - sp.gamma_cdf(f, L - h)) / (2.0 * h)
            assert abs(fd - sp.gamma_density(f, L)) <= 1e-4

    def test_white_noise_step(self):
        f = sp.spectral_density(sp.ARMAModel())
        assert sp.gamma_cdf(f, 0.99) == 0.0
        assert sp.gamma_cdf(f, 1.0) == 1.0


class TestAtomicLSD:
    def test_single_piece(self):
        pw = sp.PiecewiseSpectralDensity(((0.0, TWO_PI, 1.0),))
        lsd = sp.atomic_lsd(pw)
        assert lsd.atoms == [(1.0, 1.0)]

    def test_two_halves(self):
        pw = sp.PiecewiseSpectralDensity(((0.0, math.pi, 1.0), (math.pi, TWO_PI, 2.0)))
        lsd = sp.atomic_lsd(pw)
        assert lsd.atoms == [(1.0, 0.5), (2.0, 0.5)]
        assert lsd.weights.sum() == 1.0

    def test_equal_levels_merged(self):
        pw = sp.PiecewiseSpectralDensity(
            (
                (0.0, math.pi / 2.0, 3.0),
                (math.pi / 2.0, math.pi, 1.0),
                (math.pi, 1.5 * math.pi, 3.0),
                (1.5 * math.pi, TWO_PI, 1.0),
            )
        )
        lsd = sp.atomic_lsd(pw)
        assert lsd.atoms == [(1.0, 0.5), (3.0, 0.5)]
        assert lsd.weights.sum() == 1.0

    def test_gamma_lsd_dispatch(self):
        pw = sp.PiecewiseSpectralDensity(((0.0, math.pi, 1.0), (math.pi, TWO_PI, 2.0)))
        assert isinstance(sp.gamma_lsd(pw), sp.AtomicLSD)
        assert isinstance(sp.gamma_lsd(sp.ARMAModel.arma11(0.5, 1.0)), sp.AbsContinuousLSD)
        with pytest.warns(UserWarning):
            long_memory = sp.FARIMAModel(sp.ARMAModel(), 0.25)
        with pytest.raises(sp.ModelSpecError):
            sp.gamma_lsd(long_memory)


class TestNormalizationAndSzego:
    def test_total_mass_sample(self):
        for phi, theta in ((0.5, 1.0), (-0.4, 0.8), (0.8, -0.4)):
            lsd = sp.gamma_lsd(sp.ARMAModel.arma11(phi, theta))
            assert abs(lsd.total_mass() - 1.0) <= 1e-6

    def test_rule_moments_match_autocovariances(self):
        # Szegő: sum W lam^k = (1/2pi) int f^k dw, which is 1, gamma(0) and
        # sum_h gamma(h)^2 for k = 0, 1, 2
        for phi, theta in ((0.5, 1.0), (-0.8, 0.4)):
            model = sp.ARMAModel.arma11(phi, theta)
            lsd = sp.gamma_lsd(model)
            lam, W = lsd.rule(1024)
            gam = sp.autocovariances(sp.ma_coefficients(model, 1000), 400)
            assert abs(W.sum() - 1.0) <= 1e-10
            assert abs(W @ lam - gam[0]) <= 1e-10
            assert abs(W @ lam**2 - (gam[0] ** 2 + 2.0 * np.sum(gam[1:] ** 2))) <= 1e-10
            lo, hi = lsd.support
            assert lo <= lam.min() and lam.max() <= hi

    def test_szego_finite_size(self):
        model = sp.ARMAModel(ma=[0.5])
        coeffs = sp.ma_coefficients(model, 600)
        G = sp.autocovariance_toeplitz(coeffs, 512)
        eig = np.sort(np.linalg.eigvalsh(G))
        f = sp.spectral_density(model)
        theory = np.array([sp.gamma_cdf(f, lam) for lam in eig])
        k = np.arange(1, eig.size + 1) / eig.size
        ks = max(np.max(k - theory), np.max(theory - (k - 1.0 / eig.size)))
        assert ks <= 0.05
