import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import specmp as sp
from oracles import arma11_gamma_density, gamma_cdf, szego_quad, szego_rule, total_mass
from specmp import toeplitz_lsd
from specmp.toeplitz_lsd import _branch_roots

TWO_PI = 2.0 * math.pi

FARIMA_AR = sp.ARMAModel(ar=(-0.3,), d=-0.25)
MA2 = sp.ARMAModel(ma=(1.0, 0.5))
ARMA23 = sp.ARMAModel(ar=(0.6, -0.3), ma=(0.4, 0.2, -0.1))
# a sharp AR(2) peak: |phi|^2 falls to 1.3e-8 of its mean at w = 0.807
SHARP_AR2 = sp.ARMAModel(ar=(-1.3826202528951597, 0.9996872602874478))


def branch_roots(f, level):
    """Sorted roots of f(w) = level on the monotone branches that hold it."""
    roots = _branch_roots(f, level)
    return np.sort(roots[~np.isnan(roots)])


def cli_grid(lsd, n=512):
    """The midpoint grid of the ``gamma-density`` command."""
    lo, hi = sp.support_bounds(lsd.f)
    return lo + (hi - lo) * (np.arange(n) + 0.5) / n


class TestSupportBounds:
    def test_arma11_closed_form(self):
        f = sp.SpectralDensity(sp.ARMAModel.arma11(0.5, 1.0))
        lo, hi = sp.support_bounds(f)
        assert abs(lo - 0.0) <= 1e-10
        assert abs(hi - 16.0) <= 1e-8

    def test_ar1_closed_form(self):
        f = sp.SpectralDensity(sp.ARMAModel.arma11(0.5, 0.0))
        lo, hi = sp.support_bounds(f)
        assert abs(lo - 4.0 / 9.0) <= 1e-10
        assert abs(hi - 4.0) <= 1e-10

    def test_white_noise_routes_to_atoms(self):
        lsd = sp.gamma_lsd(sp.ARMAModel())
        assert isinstance(lsd, sp.AtomicLSD)
        assert (lsd.levels.tolist(), lsd.weights.tolist()) == ([1.0], [1.0])

    def test_farima_support_touches_zero(self):
        f = sp.SpectralDensity(sp.ARMAModel(d=-0.25))
        lo, hi = sp.support_bounds(f)
        assert lo == 0.0
        assert abs(hi - 2.0 ** 0.5) <= 1e-10

    def test_negative_minimum_refused_beyond_rounding(self):
        # |phi|^2 rounds below 0 at the peak of an AR root 1e-7 from the unit circle
        near_unit = sp.ARMAModel(
            ar=(0.9935212290463952, -0.9939139301270936, -0.9996072978804833),
            ma=(-0.23927213182136864, 0.9841467518903655),
        )
        assert sp.support_bounds(sp.SpectralDensity(near_unit))[0] < -1e15
        with pytest.raises(sp.ModelSpecError, match="negative"):
            sp.gamma_lsd(near_unit)
        # unit-circle MA zeros: f = 0 there, which rounds to about -7e-15
        zeros_on_circle = sp.ARMAModel(ma=(2.701267095229019, 2.701267095229019, 1.0))
        assert -1e-13 < sp.support_bounds(sp.SpectralDensity(zeros_on_circle))[0] < 0.0
        assert isinstance(sp.gamma_lsd(zeros_on_circle), sp.AbsContinuousLSD)


class TestLevelSetRoots:
    def test_sharp_ar2_breakpoints(self):
        # f = 1 / A(cos w) with A quadratic: one stationary point inside (0, pi)
        f = sp.SpectralDensity(SHARP_AR2)
        bps, vals = f.breakpoints, f.breakpoint_values
        assert bps.size == 5
        assert bps[0] == 0.0 and bps[2] == math.pi and bps[4] == TWO_PI
        assert bps[3] == TWO_PI - bps[1]
        assert min(vals[1], vals[3]) > 1e6 > max(vals[0], vals[2])

    def test_complex_roots_are_not_breakpoints(self):
        # Q has the real roots -0.1226 and 0.5544 and a complex pair with real
        # part -0.2159 in (-1, 1): f has an extremum at each breakpoint only
        f = sp.SpectralDensity(sp.ARMAModel(ar=(0.0, 0.5), ma=(0.0, 0.0, 0.5)))
        bps = f.breakpoints
        assert bps.size == 7
        inner = bps[1:-1]
        assert np.all(f.derivative(inner - 1e-6) * f.derivative(inner + 1e-6) < 0.0)

    # stationary AR parts from reflection coefficients |k| < 1 (Schur-Cohn)
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        refl=st.lists(st.floats(-0.99, 0.99), max_size=3),
        ma=st.lists(st.floats(-1.5, 1.5), max_size=3),
        d=st.one_of(st.just(0.0), st.floats(-0.45, -0.01)),
    )
    def test_derivative_keeps_sign_on_each_branch(self, refl, ma, d):
        ar = np.array([1.0])
        for k in refl:
            ar = np.append(ar, 0.0) + k * np.append(ar, 0.0)[::-1]
        f = sp.SpectralDensity(sp.ARMAModel(ar=ar[1:], ma=ma, d=d))
        # the property of the models gamma_lsd treats as continuous: where the
        # AR and MA factors cancel, f is constant to rounding and f' is noise
        lo, hi = sp.support_bounds(f)
        assume(hi - lo > toeplitz_lsd._level_atol(f))
        bps = f.breakpoints
        w = bps[:-1, None] + np.diff(bps)[:, None] * np.linspace(0.0, 1.0, 66)[1:-1]
        slope = f.derivative(w)
        tol = 1e-12 * np.max(np.abs(slope))
        assert np.all((slope.min(axis=1) >= -tol) | (slope.max(axis=1) <= tol))

    def test_ma1_interior_level(self):
        f = sp.SpectralDensity(sp.ARMAModel(ma=[1.0]))  # f = 2 + 2 cos w
        roots = branch_roots(f, 2.0)
        np.testing.assert_allclose(roots, [math.pi / 2.0, 3.0 * math.pi / 2.0], atol=1e-10)
        np.testing.assert_allclose(np.abs(f.derivative(roots)), [2.0, 2.0], rtol=1e-12)

    def test_ma1_boundary_extremum(self):
        # the maximum 4 is f at the breakpoint w = 0, a stationary point that
        # no branch holds in its open range
        f = sp.SpectralDensity(sp.ARMAModel(ma=[1.0]))
        bps, vals = f.breakpoints, f.breakpoint_values
        assert bps[0] == 0.0 and abs(vals[0] - 4.0) <= 1e-10
        assert f.derivative(0.0) == 0.0
        assert branch_roots(f, 4.0).size == 0
        assert gamma_cdf(f, 4.0) == 1.0

    def test_ar1_arccos_oracle(self):
        f = sp.SpectralDensity(sp.ARMAModel.arma11(0.5, 0.0))
        # f(w) = 1 at cos w = 1/4
        w0 = math.acos(0.25)
        np.testing.assert_allclose(branch_roots(f, 1.0), [w0, TWO_PI - w0], atol=1e-10)

    def test_roots_satisfy_level_equation(self):
        f = sp.SpectralDensity(sp.ARMAModel.arma11(0.5, 1.0))
        for lam in (0.5, 2.0, 9.0, 15.0):
            roots = branch_roots(f, lam)
            assert roots.size > 0
            assert np.max(np.abs(f(roots) - lam)) <= 1e-9


class TestGammaDensity:
    def test_ma1_closed_value(self):
        f = sp.SpectralDensity(sp.ARMAModel(ma=[1.0]))
        assert abs(sp.gamma_density(f, 2.0) - 1.0 / TWO_PI) <= 1e-12

    def test_ar1_matches_closed_form(self):
        f = sp.SpectralDensity(sp.ARMAModel.arma11(0.5, 0.0))
        assert abs(sp.gamma_density(f, 1.0) - arma11_gamma_density(0.5, 0.0, 1.0)) <= 1e-10

    def test_degenerate_rejected(self):
        f = sp.SpectralDensity(sp.ARMAModel())
        with pytest.raises(ValueError, match="the limit law is atomic"):
            sp.gamma_density(f, 1.0)
        # an AR root this near the unit circle makes max f overflow to inf
        f = sp.SpectralDensity(sp.ARMAModel(ar=[-0.8946377354927975, -0.895280022166188, 0.999357707428716]))
        assert sp.support_bounds(f)[1] == math.inf
        with pytest.raises(ValueError, match="spectral density not finite: max f = inf"):
            sp.gamma_density(f, 1.0)

    def test_edge_level_rejected(self):
        f = sp.SpectralDensity(sp.ARMAModel(ma=[1.0]))
        with pytest.raises(ValueError):
            sp.gamma_density(f, 4.0)  # at the band edge, not strictly inside

    def test_tangential_level_flagged(self):
        # f = |1 + e^{iw} + 0.5 e^{2iw}|^2 has an interior local maximum 0.25
        # at w = pi; the density there mixes a tangential root with two
        # regular ones and is flagged
        f = sp.SpectralDensity(sp.ARMAModel(ma=[1.0, 0.5]))
        lo, hi = sp.support_bounds(f)
        assert lo < 0.25 < hi
        with pytest.warns(sp.TangentialRootWarning):
            val = sp.gamma_density(f, 0.25)
        assert 0.0 < val < math.inf

    def test_one_tangential_warning_per_call(self):
        lsd = sp.gamma_lsd(MA2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = sp.gamma_density(lsd.f, [0.25, 0.25, 0.5])
        tangential = [w for w in caught if issubclass(w.category, sp.TangentialRootWarning)]
        assert len(tangential) == 1
        assert "2 of 3 levels" in str(tangential[0].message)
        assert values[0] == values[1] and np.all(np.isfinite(values))
        # f = 1.25 + 3 cos w + 2 cos^2 w: the stationary point w = pi is left
        # out of the sum, and the regular roots 2pi/3, 4pi/3 have |f'| = sqrt(3)/2
        expected = 2.0 / (math.pi * math.sqrt(3.0))
        assert abs(values[0] / expected - 1.0) <= 1e-12
        # the minimum sits at an interior stationary point, but levels next to
        # the outer support edges are ordinary band-edge levels
        lo, hi = sp.support_bounds(lsd.f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sp.gamma_density(lsd.f, [lo * (1.0 + 1e-13), hi * (1.0 - 1e-13)])

    def test_array_levels_match_scalar_calls(self):
        f = sp.SpectralDensity(ARMA23)
        lo, hi = sp.support_bounds(f)
        lam = np.linspace(lo, hi, 14)[1:-1].reshape(3, 4)
        dens, cdf = sp.gamma_density(f, lam), gamma_cdf(f, lam)
        assert dens.shape == cdf.shape == (3, 4)
        assert np.array_equal(dens.ravel(), [sp.gamma_density(f, x) for x in lam.ravel()])
        assert np.array_equal(cdf.ravel(), [gamma_cdf(f, x) for x in lam.ravel()])
        assert isinstance(sp.gamma_density(f, lam[0, 0]), float)
        assert isinstance(gamma_cdf(f, lam[0, 0]), float)

    def test_cli_grid_relative_accuracy(self):
        for phi, theta in ((0.5, 1.0), (-0.4, 0.8), (0.8, -0.4)):
            lsd = sp.gamma_lsd(sp.ARMAModel.arma11(phi, theta))
            lam = cli_grid(lsd)
            closed = np.array([arma11_gamma_density(phi, theta, L) for L in lam])
            assert np.max(np.abs(sp.gamma_density(lsd.f, lam) / closed - 1.0)) <= 1e-12

    def test_farima_closed_form(self):
        # pure FARIMA d = -0.25: f = sqrt(2 |sin(w/2)|), so H(lam) is
        # (2/pi) asin(lam^2/2) and g(lam) = 2 lam / (pi sqrt(1 - lam^4/4))
        lsd = sp.gamma_lsd(sp.ARMAModel(d=-0.25))
        lam = cli_grid(lsd)
        exact = 2.0 * lam / (math.pi * np.sqrt(1.0 - lam**4 / 4.0))
        assert np.max(np.abs(sp.gamma_density(lsd.f, lam) / exact - 1.0)) <= 1e-9

    def test_closed_form_agreement_random_models(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 20:
            phi, theta = rng.uniform(-0.8, 0.8, 2)
            if abs(phi + theta) < 0.05:
                continue
            lsd = sp.gamma_lsd(sp.ARMAModel.arma11(phi, theta))
            lo, hi = sp.support_bounds(lsd.f)
            lam = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 11)
            closed = np.array([arma11_gamma_density(phi, theta, L) for L in lam])
            assert np.max(np.abs(sp.gamma_density(lsd.f, lam) - closed)) <= 1e-8
            checked += 1

    def test_band_edge_inverse_square_root(self):
        # near the upper edge the density grows like (edge - lam)^(-1/2)
        scaled = [
            arma11_gamma_density(0.5, 1.0, 16.0 - d) * math.sqrt(d) for d in (1e-4, 1e-6)
        ]
        assert abs(scaled[0] / scaled[1] - 1.0) < 0.01


class TestGammaCDF:
    def test_ma1_half(self):
        f = sp.SpectralDensity(sp.ARMAModel(ma=[1.0]))
        assert abs(gamma_cdf(f, 2.0) - 0.5) <= 1e-9

    def test_outside_support_exact(self):
        f = sp.SpectralDensity(sp.ARMAModel(ma=[1.0]))
        assert gamma_cdf(f, 4.0) == 1.0
        assert gamma_cdf(f, 5.0) == 1.0
        assert gamma_cdf(f, 0.0) == 0.0

    def test_ar1_arccos_value_and_quadrature(self):
        f = sp.SpectralDensity(sp.ARMAModel.arma11(0.5, 0.0))
        got = gamma_cdf(f, 1.0)
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
        f = sp.SpectralDensity(sp.ARMAModel.arma11(0.5, 1.0))
        lam = np.linspace(1.0, 15.0, 50)
        h = 1e-5
        for L in lam:
            fd = (gamma_cdf(f, L + h) - gamma_cdf(f, L - h)) / (2.0 * h)
            assert abs(fd - sp.gamma_density(f, L)) <= 1e-4

    def test_white_noise_step(self):
        f = sp.SpectralDensity(sp.ARMAModel())
        assert gamma_cdf(f, 0.99) == 0.0
        assert gamma_cdf(f, 1.0) == 1.0


class TestAtomicLSD:
    def test_single_piece(self):
        pw = sp.PiecewiseSpectralDensity(((0.0, TWO_PI, 1.0),))
        lsd = sp.atomic_lsd(pw)
        assert (lsd.levels.tolist(), lsd.weights.tolist()) == ([1.0], [1.0])

    def test_refuses_a_continuous_density(self):
        with pytest.raises(TypeError, match="PiecewiseSpectralDensity"):
            sp.atomic_lsd(sp.SpectralDensity(sp.ARMAModel()))

    def test_two_halves(self):
        pw = sp.PiecewiseSpectralDensity(((0.0, math.pi, 1.0), (math.pi, TWO_PI, 2.0)))
        lsd = sp.atomic_lsd(pw)
        assert (lsd.levels.tolist(), lsd.weights.tolist()) == ([1.0, 2.0], [0.5, 0.5])
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
        assert (lsd.levels.tolist(), lsd.weights.tolist()) == ([1.0, 3.0], [0.5, 0.5])
        assert lsd.weights.sum() == 1.0

    def test_float_closure_goes_to_the_largest_weight(self):
        pw = sp.PiecewiseSpectralDensity(((0.0, 0.7, 1.0), (0.7, TWO_PI, 2.0)))
        lengths = np.array([0.7, TWO_PI - 0.7])
        normalised = lengths / lengths.sum()
        assert normalised.sum() != 1.0
        lsd = sp.atomic_lsd(pw)
        assert lsd.weights.sum() == 1.0
        assert lsd.weights[0] == normalised[0]
        assert lsd.weights[1] == normalised[1] + (1.0 - normalised.sum())

    @pytest.mark.parametrize(
        "levels, weights",
        [
            ([1.0, 2.0], [1.0]),
            ([], []),
            ([2.0, 1.0], [0.5, 0.5]),
            ([1.0, 1.0], [0.5, 0.5]),
            ([1.0, 2.0], [0.5, 0.6]),
            ([1.0, 2.0], [1.5, -0.5]),
            ([0.0], [1.0]),
            ([-1.0], [1.0]),
            ([-0.5, 2.0], [0.5, 0.5]),
            ([math.nan], [1.0]),
            ([1.0, math.nan], [0.5, 0.5]),
            ([math.inf], [1.0]),
            ([1.0], [math.nan]),
            ([1.0, 2.0], [math.inf, 0.5]),
        ],
        ids=[
            "size-mismatch", "empty", "decreasing", "repeated", "sum-above-one", "negative-weight", "zero-level",
            "negative-level", "negative-first-level", "nan-level", "nan-last-level", "inf-level", "nan-weight",
            "inf-weight",
        ],
    )
    def test_invalid_atoms_refused(self, levels, weights):
        # left to the solver, a zero level divides by zero, a negative one is
        # solved or refused as a bad z, and a NaN level hangs the edge bisection
        with pytest.raises(ValueError):
            sp.AtomicLSD(np.array(levels), np.array(weights))

    def test_gamma_lsd_dispatch(self):
        pw = sp.PiecewiseSpectralDensity(((0.0, math.pi, 1.0), (math.pi, TWO_PI, 2.0)))
        assert isinstance(sp.gamma_lsd(pw), sp.AtomicLSD)
        # d = 0 with K = max(p, q) <= 2 is exact; K = 3 and d != 0 take the Szegő rule
        for model in (sp.ARMAModel.arma11(0.5, 1.0), MA2, SHARP_AR2, sp.ARMAModel(ma=(0.5, 0.0, 0.0))):
            assert isinstance(sp.gamma_lsd(model), sp.ExactARMALSD), model
        for model in (ARMA23, FARIMA_AR, sp.ARMAModel(ar=(-0.5,), d=-0.1)):
            assert isinstance(sp.gamma_lsd(model), sp.AbsContinuousLSD), model
        # long memory is built silently; gamma_lsd is the one to refuse it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            long_memory = sp.ARMAModel(d=0.25)
        with pytest.raises(sp.ModelSpecError, match=r"^d > 0 \(long memory"):
            sp.gamma_lsd(long_memory)


class TestNormalizationAndSzego:
    def test_total_mass_sample(self):
        arma11 = [sp.ARMAModel.arma11(*pair) for pair in ((0.5, 1.0), (-0.4, 0.8), (0.8, -0.4))]
        for model in arma11 + [FARIMA_AR, MA2, ARMA23, SHARP_AR2]:
            lsd = sp.gamma_lsd(model)
            assert abs(total_mass(lsd) - 1.0) <= 1e-6

    def test_total_mass_farima_does_not_warn(self):
        for model in (FARIMA_AR, sp.ARMAModel(d=-0.25)):
            lsd = sp.gamma_lsd(model)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                total_mass(lsd)
            assert caught == []

    def test_rule_moments_match_autocovariances(self):
        # Szegő: sum W lam^k = (1/2pi) int f^k dw, which is 1, gamma(0) and
        # sum_h gamma(h)^2 for k = 0, 1, 2
        for phi, theta in ((0.5, 1.0), (-0.8, 0.4)):
            model = sp.ARMAModel.arma11(phi, theta)
            lsd = sp.AbsContinuousLSD(sp.SpectralDensity(model))
            lam, W = lsd.nodes, lsd.weights
            gam = sp.autocovariances(sp.ma_coefficients(model, 1000), 400)
            assert abs(W.sum() - 1.0) <= 1e-10
            assert abs(W @ lam - gam[0]) <= 1e-10
            assert abs(W @ lam**2 - (gam[0] ** 2 + 2.0 * np.sum(gam[1:] ** 2))) <= 1e-10
            lo, hi = sp.support_bounds(lsd.f)
            assert lo <= lam.min() and lam.max() <= hi


ATOMS = sp.AtomicLSD(np.array([0.5, 1.0, 2.0]), np.array([0.25, 0.25, 0.5]))
# gamma_lsd gives ARMA(1,1) its exact law; the rule tests build its Szegő law.
# The folded-rule tests check the graded trapezoid rule that is the tests' reference
ARMA11_LAW = sp.AbsContinuousLSD(sp.SpectralDensity(sp.ARMAModel.arma11(0.5, 1.0)))
FOLD_LAWS = {
    "arma11": ARMA11_LAW,
    "arma23": sp.gamma_lsd(ARMA23),
    "farima": sp.gamma_lsd(sp.ARMAModel(d=-0.25)),
    "farima-ar": sp.gamma_lsd(FARIMA_AR),
}
RULE_MS = pytest.mark.parametrize("m", [0.3 + 0.6j, -60.0 + 80.0j, 100j], ids=["m-small", "m-100-oblique", "m-100i"])


def assert_terms_match_direct_sums(rule, m, ref=None):
    # the sums over the rule's own nodes, or over those of a finer reference rule
    lam, W = (ref or rule).nodes, (ref or rule).weights
    t, tp = rule.terms(m)
    assert type(t) is complex and type(tp) is complex
    t_ref = np.sum(W * lam / (1.0 + lam * m))
    tp_ref = -np.sum(W * lam**2 / (1.0 + lam * m) ** 2)
    assert abs(t - t_ref) <= 1e-13 * abs(t_ref)
    assert abs(tp - tp_ref) <= 1e-13 * abs(tp_ref)


class TestRule:
    @pytest.mark.parametrize(
        "rule, ref",
        [(ATOMS, None), (ARMA11_LAW, szego_rule(ARMA11_LAW.f, 2**14))],
        ids=["atoms", "arma11"],
    )
    @RULE_MS
    def test_terms_match_direct_sums(self, rule, ref, m):
        # the Szegő law subtracts the poles near f = 0 at w = pi (m-100i and
        # m-100-oblique), where its own plain sums are off by up to 1e-13
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        assert_terms_match_direct_sums(rule, m, ref)

    @pytest.mark.parametrize("scalar_nodes", [toeplitz_lsd.SCALAR_NODES, 0], ids=["scalar", "array"])
    @RULE_MS
    def test_nodes_without_a_finite_reciprocal(self, scalar_nodes, m, monkeypatch):
        # 0 adds nothing; 1/1e-310 overflows; -1e-17 is negative by rounding and kept
        monkeypatch.setattr(toeplitz_lsd, "SCALAR_NODES", scalar_nodes)
        rule = sp.Rule(np.array([0.0, -1e-17, 1e-310, 1.0, 2.0]), np.array([0.1, 0.2, 0.3, 0.15, 0.25]))
        assert_terms_match_direct_sums(rule, m)
        assert rule.mean == pytest.approx(0.65, rel=1e-15)
        assert_terms_match_direct_sums(sp.Rule(np.array([-1e-17]), np.array([1.0])), m)

    @pytest.mark.parametrize("size", [256, 1024, 8192])
    @RULE_MS
    def test_theta_one_node_at_pi(self, size, m):
        # at even N the trapezoid grid holds w = pi, where theta = 1 makes f vanish
        rule = szego_rule(ARMA11_LAW.f, size)
        assert rule.nodes[size // 2 - 1] == 0.0
        assert_terms_match_direct_sums(rule, m)

    def test_laws_with_nodes_are_rules(self):
        # the atoms and the Szegő law are Rules; the exact law has no nodes
        exact = sp.gamma_lsd(sp.ARMAModel.arma11(0.5, 1.0))
        assert isinstance(exact, sp.ExactARMALSD) and not isinstance(exact, sp.Rule)
        assert isinstance(ATOMS, sp.Rule) and isinstance(ARMA11_LAW, sp.Rule)

    def test_continuous_law_is_its_own_rule(self):
        # one tanh-sinh rule of 2 RULE_STEPS + 1 nodes on [0, pi], built with the law;
        # its weights sum to 1 to rounding, and its nodes lie in the range of f
        lsd = sp.AbsContinuousLSD(sp.SpectralDensity(sp.ARMAModel.arma11(0.5, 1.0)))
        assert lsd.nodes.size == 2 * toeplitz_lsd.RULE_STEPS + 1
        assert abs(lsd.weights.sum() - 1.0) <= 1e-15
        lo, hi = sp.support_bounds(lsd.f)
        assert lo <= lsd.nodes.min() and lsd.nodes.max() <= hi == lsd.top

    @pytest.mark.parametrize("law", FOLD_LAWS.values(), ids=FOLD_LAWS.keys())
    @pytest.mark.parametrize("size", [256, 1024, 8192])
    @RULE_MS
    def test_folded_rule_matches_the_full_grid(self, law, size, m):
        # the full grid of size - 1 nodes, its upper half at the mirrors
        # 2*pi - w of the lower half: folding about pi leaves (T, T') as it was
        u = TWO_PI * np.arange(1, size) / size
        half = u[: size // 2] - np.sin(u[: size // 2])
        w = np.concatenate([half, TWO_PI - half[: (size - 1) // 2][::-1]])
        lam, W = law.f(w), (1.0 - np.cos(u)) / size
        t, tp = szego_rule(law.f, size).terms(m)
        t_ref = np.sum(W * lam / (1.0 + lam * m))
        tp_ref = -np.sum(W * lam**2 / (1.0 + lam * m) ** 2)
        assert abs(t - t_ref) <= 1e-13 * abs(t_ref)
        assert abs(tp - tp_ref) <= 1e-13 * abs(tp_ref)

    @pytest.mark.parametrize("law", FOLD_LAWS.values(), ids=FOLD_LAWS.keys())
    @pytest.mark.parametrize("size", [255, 256, 1024, 4096, 8192])
    def test_folded_weights_sum_to_one_and_rules_nest(self, law, size):
        rule = szego_rule(law.f, size)
        assert rule.nodes.size == size // 2
        assert abs(rule.weights.sum() - 1.0) <= 1e-15
        assert np.array_equal(rule.nodes, szego_rule(law.f, 2 * size).nodes[1::2])

    def test_refuses_a_density_that_is_not_even(self):
        # the fold needs f(2*pi - w) = f(w), which these two levels break
        f = sp.PiecewiseSpectralDensity(((0.0, math.pi, 1.0), (math.pi, TWO_PI, 2.0)))
        with pytest.raises(TypeError, match="SpectralDensity"):
            sp.AbsContinuousLSD(f=f)


class TestSzegoLaw:
    """The tanh-sinh rule with each near pole of f / (f - lam), lam = -1/m, subtracted."""

    FARIMA = sp.gamma_lsd(sp.ARMAModel(d=-0.25))

    @pytest.mark.parametrize("phase", [0.9, 2.0, 3.0])
    def test_drops_the_root_off_the_principal_sheet(self, phase):
        # f = u^(1/4) in u = 2 - 2 cos w, so f = lam has its root lam^4 on the
        # principal sheet only for |arg lam| < pi/4; beyond, lam^4 is no pole,
        # and subtracting it broke the y >= 1 tables.  At |lam| = 1e-6 and
        # arg lam in (pi/2, 3pi/4) the search reaches such a root, off the
        # sheet, on the branch's side of the axis.  Worst seen against adaptive
        # quadrature 9.1e-16 in T and 6.7e-16 in the potential, at |lam| = 1e-3
        assert self.FARIMA._poles(1e-6 * cmath.exp(1j * (1.7 + 0.25 * phase))) == []
        lam = 1e-3 * cmath.exp(1j * phase)
        assert self.FARIMA._poles(lam) == []
        t, potential = szego_quad(self.FARIMA.f, -1.0 / lam)
        assert abs(self.FARIMA.terms(-1.0 / lam)[0] / t - 1.0) <= 1e-14
        assert abs(self.FARIMA.potential(-1.0 / lam) - potential) <= 1e-14
        # inside the sheet the root is found, to rounding
        (pole,) = self.FARIMA._poles(1e-3 * cmath.exp(0.7j))
        assert abs(pole[2] / (1e-3 * cmath.exp(0.7j)) ** 4 - 1.0) <= 1e-14

    @pytest.mark.parametrize("phase", [0.1, 0.5])
    def test_root_near_s_2_keeps_its_digits(self, phase, monkeypatch):
        # at lam = 1e-4 the root sits at u = lam^4 ~ 1e-16 and at lam = 1e-8 at
        # 1e-32, where s = 2 - u keeps none of u's digits and rounds to 2; the
        # law works in u.  T from sqrt(s^2 - 4) was 1.9e-8 off at 1e-4, against
        # 1.6e-15 from u; at 1e-8, against the law on 16x the nodes, 2.2e-16
        lam = 1e-4 * cmath.exp(1j * phase)
        (pole,) = self.FARIMA._poles(lam)
        assert abs(pole[2] / lam**4 - 1.0) <= 1e-14
        assert abs(self.FARIMA.terms(-1.0 / lam)[0] / szego_quad(self.FARIMA.f, -1.0 / lam)[0] - 1.0) <= 1e-14
        lam = 1e-8 * cmath.exp(1j * phase)
        (pole,) = self.FARIMA._poles(lam)
        assert pole[1].real == 2.0 and abs(pole[2] / lam**4 - 1.0) <= 1e-14
        t, tp = self.FARIMA.terms(-1.0 / lam)
        monkeypatch.setattr(toeplitz_lsd, "RULE_STEPS", 16 * toeplitz_lsd.RULE_STEPS)
        t_ref, tp_ref = sp.AbsContinuousLSD(self.FARIMA.f).terms(-1.0 / lam)
        assert abs(t / t_ref - 1.0) <= 1e-14 and abs(tp / tp_ref - 1.0) <= 1e-14

    @pytest.mark.parametrize(
        "lam, t_ref",
        [
            (0.8368127671687756 + 8.368127588006481e-10j, -613.048417176073 - 12291.72347394709j),
            (0.8368127614468823 + 8.368127588006481e-11j, -346.6799563541194 - 21931.328175152452j),
        ],
        ids=["8e-9-above", "3e-9-above"],
    )
    def test_keeps_the_pole_at_a_fold_end(self, lam, t_ref):
        # f(pi) = 0.8368127588006481 is a local minimum of f; just above it the
        # pole sits at v = 2 + s ~ 8.7e-8, where f - lam is at rounding before
        # Newton's relative step falls to 1e-8.  Rejecting that root left T 68 %
        # and 84 % off.  The references are 30-digit mpmath quad over [0, pi],
        # split at f's breakpoints and at the real roots of f = Re lam, with
        # extra points at 1e-1 to 1e-13 on either side of each root and below
        # pi; scipy's quad (oracles.szego_quad) is 46-48 % off here.  f(pi)
        # rounds to about 1e-16 and lam - f(pi) is about 1e-8 f(pi): 1e-6
        law = sp.gamma_lsd(FARIMA_AR)
        assert law.f(math.pi) == 0.8368127588006481
        assert abs(law.terms(-1.0 / lam)[0] / t_ref - 1.0) <= 1e-6

    @pytest.mark.parametrize(
        "d, x, delta",
        [(-0.25, 0.00992724007057845, 3.5802668390586135e-08), (-0.4, 0.010218889614120418, 4.157442798014889e-08)],
    )
    def test_potential_subtracts_the_log_of_each_pole(self, d, x, delta):
        # y = 0.5 near zero, where the pole of 1/(1 + f m) is narrower than
        # the nodes: the plain mean of arg(1 + f m) on the law's nodes is off
        # by 1.9e-5 and 1.9e-4, the law's potential by at most 2.2e-15
        law = sp.gamma_lsd(sp.ARMAModel(d=d))
        m = sp.solve_fixed_point(law, 0.5, complex(x, delta)).m
        assert len(law._poles(-1.0 / m)) == 1
        t, potential = szego_quad(law.f, m)
        assert abs(law.terms(m)[0] / t - 1.0) <= 1e-14
        assert abs(law.potential(m) - potential) <= 1e-14
        assert abs(float(np.angle(1.0 + law.nodes * m).dot(law.weights)) - potential) >= 1e-5


def _cos_poly(coeffs):
    """Coefficients of z^K c(z) c(1/z), K = len(coeffs) - 1, lowest power first."""
    c = np.asarray(coeffs, dtype=float)
    return np.convolve(c, c[::-1])


class TestExactARMALevelSets:
    """Level sets of f = |theta(e^iw)|^2 / |phi(e^iw)|^2 are the arguments of the
    unit-circle roots of z^K (theta(z) theta(1/z) - lam phi(z) phi(1/z)), with
    phi(z) = 1 + sum ar_k z^k and theta(z) = 1 + sum ma_k z^k."""

    # coefficients stay off 0 so that the polynomial's degree, and with it the
    # conditioning of its roots, is that of the model
    coef = st.floats(-0.9, 0.9).filter(lambda c: abs(c) >= 0.05)

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(ar=st.lists(coef, max_size=2), ma=st.lists(coef, max_size=2), t=st.floats(0.02, 0.98))
    def test_roots_and_cdf_match_polynomial(self, ar, ma, t):
        try:
            model = sp.ARMAModel(ar=ar, ma=ma)
        except sp.ModelSpecError:
            assume(False)
        f = sp.SpectralDensity(model)
        phi, theta = np.array([1.0, *ar]), np.array([1.0, *ma])
        # the sign convention: f is |theta/phi|^2 with phi(z) = 1 + sum ar_k z^k
        w = np.linspace(0.0, TWO_PI, 4097)
        z = np.exp(1j * w)
        ratio = np.abs(np.polyval(theta[::-1], z) / np.polyval(phi[::-1], z)) ** 2
        np.testing.assert_allclose(f(w), ratio, rtol=1e-9, atol=1e-12 * ratio.max())
        lo, hi = ratio.min(), ratio.max()
        assume(hi - lo > 0.05 * hi)
        lam = lo + t * (hi - lo)
        # keep away from the values of f at its stationary points (0, pi and
        # the local extrema of the sampled f)
        interior = (ratio[1:-1] - ratio[:-2]) * (ratio[2:] - ratio[1:-1]) <= 0.0
        stationary = np.concatenate([ratio[[0, 2048]], ratio[1:-1][interior]])
        assume(np.min(np.abs(stationary - lam)) > 0.02 * (hi - lo))

        size = max(len(ar), len(ma)) + 1
        pad = lambda c: np.pad(_cos_poly(c), size - c.size)
        poly = pad(theta) - lam * pad(phi)
        zeros = np.polynomial.polynomial.polyroots(poly)
        on_circle = zeros[np.abs(np.abs(zeros) - 1.0) < 1e-6]
        exact = np.sort(np.mod(np.angle(on_circle), TWO_PI))

        roots = branch_roots(f, lam)
        assert roots.size == exact.size > 0
        np.testing.assert_allclose(roots, exact, rtol=0.0, atol=1e-9)
        cuts = np.concatenate([[0.0], exact, [TWO_PI]])
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        measure = np.sum(np.diff(cuts)[f(mids) <= lam]) / TWO_PI
        assert abs(gamma_cdf(f, lam) - measure) <= 1e-10


EXACT_MODELS = {
    "ar1": sp.ARMAModel(ar=(-0.5,)),
    "ma1": sp.ARMAModel(ma=(1.0,)),
    "ma1-negative": sp.ARMAModel(ma=(-1.0,)),
    "arma11": sp.ARMAModel.arma11(0.5, 1.0),
    "ar2": sp.ARMAModel(ar=(0.6, -0.3)),
    "ma2": MA2,
    "arma22": sp.ARMAModel(ar=(0.6, -0.3), ma=(0.4, 0.2)),
    "sharp-ar2": SHARP_AR2,
    # the trailing zero leaves B of degree 1, and the law K = 1
    "ma-trailing-zero": sp.ARMAModel(ma=(0.5, 0.0)),
}
SMOOTH_EXACT_MODELS = {name: model for name, model in EXACT_MODELS.items() if model is not SHARP_AR2}


class TestExactLaw:
    """The closed-form law of a d = 0 model with K = max(p, q) <= 2 against the Szegő rule."""

    @pytest.mark.parametrize("model", EXACT_MODELS.values(), ids=EXACT_MODELS.keys())
    def test_terms_and_potential_match_a_fine_szego_rule(self, model):
        # away from the axis, where the 2^18-node rule is exact to rounding;
        # worst seen 1.5e-15 in T, 5.4e-15 in T' and 1.3e-15 in the potential.
        # The means agree to 1e-13, but for the sharp AR(2), where |phi|^2 at
        # its peak keeps few digits: there the law's mean is 1.5e-9 below the
        # closed-form variance 3063.61106999, and the rule's 2.8e-9 below it
        f = sp.SpectralDensity(model)
        law, rule = sp.gamma_lsd(model), szego_rule(f, 2**18)
        assert isinstance(law, sp.ExactARMALSD)
        assert len(law._b) == (2 if model.ma == (0.5, 0.0) else max(len(model.ar), len(model.ma)) + 1)
        assert law.top == sp.support_bounds(f)[1]
        assert abs(law.mean / rule.mean - 1.0) <= (2e-9 if model is SHARP_AR2 else 1e-13)
        for m in (0.3 + 0.6j, -60.0 + 80.0j, 100j, -0.2 + 0.05j, 2.0 + 0.01j):
            (t, tp), (t_ref, tp_ref) = law.terms(m), rule.terms(m)
            assert type(t) is complex and type(tp) is complex
            assert abs(t - t_ref) <= 1e-14 * abs(t_ref) and abs(tp - tp_ref) <= 5e-14 * abs(tp_ref), m
            assert abs(law.potential(m) - rule.potential(m)) <= 1e-14, m

    @pytest.mark.parametrize(
        "model, m, t_ref, tp_ref",
        [
            (sp.ARMAModel(ar=(-0.995,)), -2.5510468543936e-05 + 1.0338063271711933e-06j,
             246.41239938960858 - 396.48755485788033j, 201483290.77515149 + 19689716.325068315j),
            (sp.ARMAModel(ar=(-0.9999,)), -9.8e-09 + 2e-11j,
             35225.476695728578 - 1756.8925295864537j, -86756899616152.1 + 13067921285504.542j),
            (sp.ARMAModel(ar=(-0.999,), ma=(0.5,)), -4.4e-07 + 1e-09j,
             11049.018715481034 - 1227.7243520704252j, -1153593464534.6415 + 397677519718.53756j),
        ],
        ids=["ar-0.995", "ar-0.9999", "arma-0.999-0.5"],
    )
    def test_k1_terms_near_a_unit_root(self, model, m, t_ref, tp_ref):
        # (T, T') from a 50-digit closed form, which 30-digit mpmath.quad over w
        # meets to 2e-17.  A(s) = r0 + r1 s cancels near a unit root (A(2) =
        # 1.990025 - 1.99 at phi = 0.995), and the form that took E's root from
        # it was 2.5e-11 to 1.2e-7 off here; E at s = +-2 takes A(+-2) = (1 +- a)^2
        t, tp = sp.gamma_lsd(model).terms(m)
        assert abs(t / t_ref - 1.0) <= 1e-13 and abs(tp / tp_ref - 1.0) <= 1e-13

    @pytest.mark.parametrize(
        "model",
        [sp.ARMAModel(ar=(-0.995,)), sp.ARMAModel(ar=(0.999,), ma=(0.3,)), sp.ARMAModel.arma11(0.5, -1.0)],
        ids=["ar-0.995", "arma-0.999", "arma11-theta-minus-1"],
    )
    def test_k1_top_is_the_pole_of_its_law(self, model):
        # max f of K = 1 is B/A at s = +-2, each factor (1 +- c)^2 in the exact
        # coefficients, so -1/top is T's own pole; max f from cosine sums is
        # 6.5e-12 low at phi = 0.995, which puts the edge bracket past it
        law = sp.gamma_lsd(model)
        a, b = law._a[1], law._b[1]
        assert law.top == max((1.0 + b) ** 2 / (1.0 + a) ** 2, (1.0 - b) ** 2 / (1.0 - a) ** 2)
        t, tp = law.terms(-(1.0 - 2.0**-50) / law.top)
        assert math.isfinite(t.real) and math.isfinite(tp.real) and tp.real < 0.0

    def test_terms_stay_finite_where_the_leading_coefficient_vanishes(self):
        # ARMA(1,1) phi = 0.5, theta = -1: E = A + m B = (1.25 + 2m) - (0.5 + m) s
        # loses its degree at m = -0.5, inside the edge bracket (-1/top, 0) =
        # (-0.5625, 0), where its root runs off to infinity.  Worst seen against
        # the rule 2.7e-15 in T and 5.9e-15 in T'
        model = sp.ARMAModel.arma11(0.5, -1.0)
        law, rule = sp.gamma_lsd(model), szego_rule(sp.SpectralDensity(model), 2**18)
        assert -1.0 / law.top == -0.5625
        near = [-0.5, np.nextafter(-0.5, 0.0), np.nextafter(-0.5, -1.0), -0.5 + 1e-15, -0.5 - 1e-12, -0.5 + 1e-9]
        for m in near + [-0.5 - 1e-6, -0.45, -0.55]:
            (t, tp), (t_ref, tp_ref) = law.terms(float(m)), rule.terms(float(m))
            assert math.isfinite(t.real) and math.isfinite(tp.real), m
            assert abs(t.real - t_ref.real) <= 1e-14 * abs(t_ref) and abs(tp.real - tp_ref.real) <= 2e-14 * abs(tp_ref), m
        for y in (0.2, 1.0, 3.0, 10.0):
            edge = sp.estimate_support_upper(law, y)
            assert abs(edge / sp.estimate_support_upper(sp.AbsContinuousLSD(law.f), y) - 1.0) <= 1e-11

    def test_refuses_what_it_does_not_solve(self):
        # K = 3, d != 0, and K = 0 (white noise, one atom in gamma_lsd)
        for model in (ARMA23, sp.ARMAModel(d=-0.25), sp.ARMAModel()):
            with pytest.raises(ValueError, match="the exact law needs d = 0") as refused:
                sp.ExactARMALSD(sp.SpectralDensity(model))
            assert refused.type is ValueError, model
        # trailing zero coefficients trim away: ma = (0.5, 0, 0) has K = 1
        law = sp.ExactARMALSD(sp.SpectralDensity(sp.ARMAModel(ma=(0.5, 0.0, 0.0))))
        assert len(law._a) == len(law._b) == 2

    @pytest.mark.parametrize("y", [0.2, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("model", SMOOTH_EXACT_MODELS.values(), ids=SMOOTH_EXACT_MODELS.keys())
    def test_edge_matches_the_szego_edge(self, model, y):
        # the bisection on the exact T' against the same bisection on the
        # Szegő law's; worst seen 4.7e-14.  The sharp AR(2), left out here,
        # gives 3.4e-9, where the sine-graded rule's edge was 3.3-3.5x too low
        law = sp.gamma_lsd(model)
        edge = sp.estimate_support_upper(law, y)
        assert abs(edge / sp.estimate_support_upper(sp.AbsContinuousLSD(law.f), y) - 1.0) <= 1e-11
