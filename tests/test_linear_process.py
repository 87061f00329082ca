import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

import specmp as sp
from oracles import autocovariance_toeplitz, autocovariances

TWO_PI = 2.0 * math.pi


def poly_div_series(num, den, order):
    # long division of num(z)/den(z) around zero, oracle for the MA expansion
    out = np.zeros(order + 1)
    num = list(num) + [0.0] * (order + 1 - len(num))
    for j in range(order + 1):
        acc = num[j]
        for k in range(1, j + 1):
            if k < len(den):
                acc -= den[k] * out[j - k]
        out[j] = acc / den[0]
    return out


class TestMACoefficients:
    def test_white_noise_identity(self):
        c = sp.ma_coefficients(sp.ARMAModel(), 3)
        np.testing.assert_array_equal(c, [1.0, 0.0, 0.0, 0.0])
        assert not c.flags.writeable

    def test_arma11_long_division(self):
        c = sp.ma_coefficients(sp.ARMAModel.arma11(0.5, 1.0), 3)
        oracle = poly_div_series([1.0, 1.0], [1.0, -0.5], 3)
        np.testing.assert_allclose(c, oracle, rtol=0, atol=1e-15)
        np.testing.assert_allclose(c, [1.0, 1.5, 0.75, 0.375], rtol=0, atol=1e-15)

    def test_fractional_product_formula(self):
        d = -0.25
        c = sp.ma_coefficients(sp.ARMAModel(d=d), 2)
        np.testing.assert_allclose(c, [1.0, d, d * (d + 1.0) / 2.0], rtol=0, atol=1e-16)

    def test_farima_envelope(self):
        # psi_j = Gamma(j + d) / (Gamma(d) Gamma(j + 1)), negative for j >= 1
        # when d < 0, and psi_j Gamma(d) j^(1-d) = 1 + d(d-1)/(2j) + O(j^-2)
        j = np.arange(1, 10_001)
        for d in (-0.45, -0.25, -0.05):
            psi = sp.ma_coefficients(sp.ARMAModel(d=d), 10_000)
            exact = -np.exp([math.lgamma(k + d) - math.lgamma(d) - math.lgamma(k + 1.0) for k in j])
            assert psi[0] == 1.0
            np.testing.assert_allclose(psi[1:], exact, rtol=1e-9, atol=0.0)
            ratio = psi[1:] * math.gamma(d) * j ** (1.0 - d)
            assert np.all(np.abs(ratio - 1.0) <= abs(d * (d - 1.0)) / j)

    def test_farima_convolves_arma_part(self):
        d = -0.3
        model = dataclasses.replace(sp.ARMAModel.arma11(0.4, 0.2), d=d)
        c = sp.ma_coefficients(model, 6)
        arma = sp.ma_coefficients(dataclasses.replace(model, d=0.0), 6)
        frac = np.ones(7)
        for j in range(1, 7):
            frac[j] = frac[j - 1] * (j - 1 + d) / j
        np.testing.assert_allclose(c, np.convolve(arma, frac)[:7], atol=1e-15)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            sp.ma_coefficients(sp.ARMAModel(), 0)
        with pytest.raises(TypeError, match="unsupported model type"):
            sp.ma_coefficients(sp.PiecewiseSpectralDensity(((0.0, TWO_PI, 1.0),)), 4)

    def test_root_condition_enforced(self):
        with pytest.raises(sp.ModelSpecError):
            sp.ARMAModel(ar=[-1.0])  # unit root
        with pytest.raises(sp.ModelSpecError):
            sp.ARMAModel(ar=[-1.5])  # explosive
        sp.ARMAModel(ar=[-0.99])
        sp.ARMAModel(ar=[-5e-324])  # subnormal: its root -1/a overflows

    def test_fractional_order_domain(self):
        with pytest.raises(sp.ModelSpecError):
            sp.ARMAModel(d=-0.5)
        with pytest.raises(sp.ModelSpecError):
            sp.ARMAModel(d=0.7)
        # long memory is built, silently, by the constructor and from a spec
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sp.ARMAModel(d=0.25).d == 0.25
            assert sp.model_from_spec('{"type":"farima","d":0.25}') == sp.ARMAModel(d=0.25)


class TestAutocovariance:
    def test_ma1_by_hand(self):
        c = sp.ma_coefficients(sp.ARMAModel(ma=[1.0]), 5)
        np.testing.assert_array_equal(autocovariances(c, 2), [2.0, 1.0, 0.0])

    def test_ar1_geometric_series(self):
        # gamma(h) = phi^h / (1 - phi^2) for phi = 1/2
        c = sp.ma_coefficients(sp.ARMAModel.arma11(0.5, 0.0), 200)
        expected = 0.5 ** np.arange(11) * 4.0 / 3.0
        np.testing.assert_allclose(autocovariances(c, 10), expected, rtol=0, atol=1e-12)

    def test_white_noise_variance(self):
        c = sp.ma_coefficients(sp.ARMAModel(), 3)
        np.testing.assert_array_equal(autocovariances(c, 3), [1.0, 0.0, 0.0, 0.0])

    def test_lag_beyond_horizon(self):
        c = sp.ma_coefficients(sp.ARMAModel(), 3)
        with pytest.raises(ValueError):
            autocovariances(c, 4)
        with pytest.raises(ValueError):
            autocovariance_toeplitz(c, 5)

    def test_positive_semidefinite_toeplitz(self):
        for model in (sp.ARMAModel(ma=[1.0]), sp.ARMAModel.arma11(0.5, 1.0)):
            c = sp.ma_coefficients(model, 400)
            G = autocovariance_toeplitz(c, 20)
            assert np.linalg.eigvalsh(G).min() >= -1e-10

    def test_toeplitz_matches_scipy_bitwise(self):
        for model in (sp.ARMAModel(), sp.ARMAModel.arma11(0.5, 1.0), sp.ARMAModel(ar=[-0.3], d=-0.25)):
            c = sp.ma_coefficients(model, 400)
            for size in (1, 2, 7, 300):
                G = autocovariance_toeplitz(c, size)
                assert np.array_equal(G, toeplitz(autocovariances(c, size - 1)))


class TestSpectralDensity:
    def test_white_noise_flat(self):
        f = sp.SpectralDensity(sp.ARMAModel())
        w = np.linspace(0, TWO_PI, 17)
        np.testing.assert_array_equal(f(w), np.ones(17))
        np.testing.assert_array_equal(f.derivative(w), np.zeros(17))

    def test_ma1_value(self):
        f = sp.SpectralDensity(sp.ARMAModel(ma=[1.0]))
        assert abs(f(math.pi / 2.0) - 2.0) < 1e-14

    def test_arma11_matches_closed_form(self):
        phi, theta = 0.5, 1.0
        f = sp.SpectralDensity(sp.ARMAModel.arma11(phi, theta))
        w = np.linspace(0.1, TWO_PI - 0.1, 50)
        expected = (1 + theta**2 + 2 * theta * np.cos(w)) / (1 + phi**2 - 2 * phi * np.cos(w))
        np.testing.assert_allclose(f(w), expected, atol=1e-13)

    def test_farima_value_and_origin_limit(self):
        f = sp.SpectralDensity(sp.ARMAModel(d=-0.25))
        assert abs(f(math.pi) - math.sqrt(2.0)) < 1e-14
        assert f(0.0) == 0.0
        assert f.derivative(0.0) == math.inf

    def test_evenness(self):
        rng = np.random.default_rng(7)
        models = [
            sp.ARMAModel(ma=[1.0]),
            sp.ARMAModel.arma11(0.6, -0.3),
            sp.ARMAModel(ar=[-0.5, 0.2], ma=[0.4]),
            dataclasses.replace(sp.ARMAModel.arma11(0.3, 0.4), d=-0.2),
        ]
        w = rng.uniform(0.0, TWO_PI, 1000)
        for model in models:
            f = sp.SpectralDensity(model)
            assert np.max(np.abs(f(w) - f(TWO_PI - w))) <= 1e-12

    def test_fourier_consistency(self):
        # f equals the Fourier series of the autocovariances; the geometric
        # tail beyond |h| = 200 is below 1e-8 for coefficients up to 0.85
        rng = np.random.default_rng(21)
        w = rng.uniform(0.0, TWO_PI, 40)
        h = np.arange(1, 201)
        for _ in range(6):
            phi, theta = rng.uniform(-0.85, 0.85, 2)
            model = sp.ARMAModel.arma11(phi, theta)
            f = sp.SpectralDensity(model)
            gam = autocovariances(sp.ma_coefficients(model, 2500), 200)
            series = gam[0] + 2.0 * np.cos(np.outer(w, h)) @ gam[1:]
            assert np.max(np.abs(f(w) - series)) <= 1e-8

    def test_fourier_consistency_converges_at_corner(self):
        model = sp.ARMAModel.arma11(0.9, 0.9)
        f = sp.SpectralDensity(model)
        gam = autocovariances(sp.ma_coefficients(model, 4000), 400)
        w = np.linspace(0.0, TWO_PI, 33)
        errs = []
        for H in (100, 200, 400):
            h = np.arange(1, H + 1)
            series = gam[0] + 2.0 * np.cos(np.outer(w, h)) @ gam[1 : H + 1]
            errs.append(np.max(np.abs(f(w) - series)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-8

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        models = [
            sp.ARMAModel.arma11(0.5, 1.0),
            sp.ARMAModel(ar=[-0.5, 0.2], ma=[0.4]),
            sp.ARMAModel(d=-0.25),
            sp.ARMAModel(ar=[-0.5], d=-0.25),
        ]
        w = rng.uniform(0.1, TWO_PI - 0.1, 100)
        hstep = 1e-6
        for model in models:
            f = sp.SpectralDensity(model)
            fd = (f(w + hstep) - f(w - hstep)) / (2.0 * hstep)
            assert np.max(np.abs(f.derivative(w) - fd)) <= 1e-5

    def test_shape_contract(self):
        # a 0-d input gives a float and an array its own shape, with the
        # values of the flattened call
        w = np.linspace(0.0, TWO_PI, 12).reshape(3, 4)
        for model in (
            sp.ARMAModel(),
            sp.ARMAModel(ar=[-0.5, 0.2], ma=[0.4, -0.3, 0.25]),
            sp.ARMAModel(d=-0.25),
            sp.ARMAModel(ar=[-0.5], d=-0.25),
        ):
            f = sp.SpectralDensity(model)
            for fun in (f, f.derivative):
                assert type(fun(1.0)) is float and type(fun(np.float64(0.0))) is float
                assert fun(w).shape == (3, 4)
                np.testing.assert_allclose(fun(w).ravel(), fun(w.ravel()), rtol=1e-15, atol=0.0)
                np.testing.assert_allclose(fun(w[1, 2]), fun(w)[1, 2], rtol=1e-15, atol=0.0)

    def test_farima_with_ar_edge_slopes(self):
        f = sp.SpectralDensity(sp.ARMAModel(ar=[-0.5], d=-0.25))
        assert f.d == -0.25
        assert f(0.0) == 0.0 and f(TWO_PI) == 0.0
        assert f.derivative(0.0) == math.inf
        assert f.derivative(TWO_PI) == -math.inf
        assert np.all(np.isfinite(f.derivative(np.linspace(1e-3, TWO_PI - 1e-3, 101))))

    def test_rejects_non_models(self):
        with pytest.raises(TypeError):
            sp.SpectralDensity(sp.PiecewiseSpectralDensity(((0.0, TWO_PI, 1.0),)))
        assert sp.SpectralDensity(sp.ARMAModel()).d == 0.0

    def test_public_reciprocal_zeros(self):
        # theta(z) = 1 + z = 1 - (-1) z and phi(z) = 1 - 0.5 z; phi(z) = 1 + 0.5 z^2
        # has its zeros at +-i sqrt(2), so rho = -+i / sqrt(2), and trailing
        # zero coefficients give rho = 0 exactly
        f = sp.SpectralDensity(dataclasses.replace(sp.ARMAModel.arma11(0.5, 1.0), d=-0.25))
        assert f.ma_roots.tolist() == [-1.0] and f.ar_roots.tolist() == [0.5]
        assert f.d == -0.25
        for roots in (f.ma_roots, f.ar_roots):
            with pytest.raises(ValueError):
                roots[0] = 0.0
        f = sp.SpectralDensity(sp.ARMAModel(ar=(0.0, 0.5), ma=(0.5, 0.0, 0.0)))
        assert sorted(f.ma_roots.tolist(), key=abs) == [0.0, 0.0, -0.5]
        np.testing.assert_allclose(sorted(f.ar_roots.tolist(), key=lambda r: r.imag), [-(0.5**0.5) * 1j, 0.5**0.5 * 1j])


class TestPiecewiseSpectralDensity:
    # given out of order: the constructor sorts the pieces by their left edge
    f = sp.PiecewiseSpectralDensity(((math.pi, TWO_PI, 2.0), (0.0, 1.0, 3.0), (1.0, math.pi, 0.5)))

    def test_level_on_each_piece(self):
        assert [self.f(w) for w in (0.5, 2.0, 4.0)] == [3.0, 0.5, 2.0]
        assert isinstance(self.f(0.5), float)

    def test_half_open_edges(self):
        # [lo, hi): an edge belongs to the piece that it opens
        assert self.f(0.0) == 3.0
        assert self.f(1.0) == 0.5 and self.f(np.nextafter(1.0, 0.0)) == 3.0
        assert self.f(math.pi) == 2.0 and self.f(np.nextafter(math.pi, 0.0)) == 0.5

    def test_last_piece_covers_two_pi(self):
        assert self.f(TWO_PI) == 2.0

    def test_array_keeps_shape(self):
        w = np.array([[0.0, 1.0, 2.0], [math.pi, 5.0, TWO_PI]])
        out = self.f(w)
        assert out.shape == (2, 3)
        assert out.tolist() == [[3.0, 0.5, 0.5], [2.0, 2.0, 2.0]]
        assert self.f(w[:, :, None]).shape == (2, 3, 1)


class TestModelSpecJSON:
    def test_round_trips(self):
        models = [
            sp.ARMAModel.arma11(0.5, 1.0),
            sp.ARMAModel(ma=[0.3], d=-0.2),
            sp.PiecewiseSpectralDensity(((0.0, math.pi, 1.0), (math.pi, TWO_PI, 2.0))),
        ]
        for model in models:
            again = sp.model_from_spec(sp.model_to_spec(model))
            assert sp.model_to_spec(again) == sp.model_to_spec(model)

    def test_json_string_accepted(self):
        model = sp.model_from_spec('{"type":"arma","ar":[-0.5],"ma":[1]}')
        assert model.ar == (-0.5,) and model.ma == (1.0,)

    def test_invalid_specs_rejected(self):
        # each spec with the check that refuses it
        for bad, reason in (
            ('{"type":"arma","ar":[-0.5', "invalid model JSON"),
            ('{"type":"mystery"}', "unknown model type"),
            ('{"type":["arma"]}', "unknown model type"),
            ('{"type":"farima"}', "requires 'd'"),
            ('{"type":"piecewise","pieces":[{"lo":0,"hi":1,"alpha":1}]}', "cover"),
            ("[1,2,3]", "JSON object"),
            ('{"type":"arma","ar":"0.5"}', "ar must be numeric"),
            ('{"type":"farima","d":"x"}', "d must be numeric"),
            ('{"type":"arma","ma":"12"}', "ma must be numeric"),
            ('{"type":"arma","ma":[null]}', "ma must be numeric"),
            ('{"type":"farima","d":1' + "0" * 400 + "}", "d must be numeric"),
            # booleans are not numbers: these built theta = 1, d = 0 and level 2
            ('{"type":"arma","ma":[true]}', "ma must be numeric"),
            ('{"type":"farima","d":false}', "d must be numeric"),
            ('{"type":"piecewise","pieces":[{"lo":0,"hi":6.283185307179586,"alpha":"2"}]}', "pieces must be numeric"),
            ('{"type":"piecewise","pieces":[{"lo":false,"hi":6.283185307179586,"alpha":1}]}', "pieces must be numeric"),
            # keys that the type does not read
            ('{"type":"arma","ar":[-0.3],"d":-0.25}', r"not \['d'\]"),
            ('{"type":"piecewise","pieces":[{"lo":0,"hi":6.283185307179586,"alpha":1}],"ar":[0.5]}', r"not \['ar'\]"),
            ('{"type":"farima","d":-0.25,"pieces":[]}', r"not \['pieces'\]"),
            ('{"type":"piecewise"}', "requires a 'pieces' list"),
            ('{"type":"piecewise","pieces":{"lo":0}}', "requires a 'pieces' list"),
            ('{"type":"piecewise","pieces":[{"lo":0,"hi":6.3}]}', "malformed model spec"),
            ('{"type":"piecewise","pieces":[[0,6.3,1]]}', "malformed model spec"),
        ):
            with pytest.raises(sp.ModelSpecError, match=reason):
                sp.model_from_spec(bad)
        with pytest.raises(TypeError, match="unsupported model type"):
            sp.model_to_spec(sp.SpectralDensity(sp.ARMAModel()))

    def test_farima_spec_of_order_zero_is_arma(self):
        model = sp.model_from_spec('{"type":"farima","ar":[-0.3],"d":0}')
        assert model == sp.ARMAModel(ar=[-0.3])
        assert sp.model_to_spec(model) == {"type": "arma", "ar": [-0.3], "ma": []}

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        refl=st.lists(st.floats(-0.9, 0.9), max_size=3),
        ma=st.lists(st.floats(-0.9, 0.9), max_size=3),
        d=st.one_of(st.just(0.0), st.floats(-0.49, 0.49)),
        cuts=st.lists(st.floats(0.01, TWO_PI - 0.01), max_size=4, unique=True),
        levels=st.lists(st.floats(0.1, 10.0), min_size=5, max_size=5),
    )
    def test_specs_round_trip(self, refl, ma, d, cuts, levels):
        # stationary AR parts from reflection coefficients |k| < 1 (Schur-Cohn)
        ar = np.array([1.0])
        for k in refl:
            ar = np.append(ar, 0.0) + k * np.append(ar, 0.0)[::-1]
        edges = [0.0, *sorted(cuts), TWO_PI]
        pieces = tuple(zip(edges[:-1], edges[1:], levels))
        for model in (sp.ARMAModel(ar=ar[1:], ma=ma, d=d), sp.PiecewiseSpectralDensity(pieces)):
            spec = sp.model_to_spec(model)
            assert sp.model_from_spec(spec) == model
            assert sp.model_from_spec(json.dumps(spec)) == model

    def test_text_coefficients_rejected(self):
        # booleans too: float() reads True as 1
        for kwargs in (
            {"ar": "0.5"},
            {"ma": "12"},
            {"ma": b"12"},
            {"ma": [1.0, "2"]},
            {"ma": [True]},
            {"ar": [np.bool_(False)]},
            {"ma": np.array([True, False])},
            {"ma": [np.complex128(0.5 + 0.5j)]},  # float() would keep 0.5
        ):
            with pytest.raises(sp.ModelSpecError):
                sp.ARMAModel(**kwargs)
        for d in ("-0.25", b"x", None, False, np.bool_(False)):
            with pytest.raises(sp.ModelSpecError):
                sp.ARMAModel(d=d)
        for piece in ((0.0, TWO_PI, "2"), ("0", TWO_PI, 2.0), (0.0, TWO_PI, True), (np.bool_(False), TWO_PI, 1.0)):
            with pytest.raises(sp.ModelSpecError, match="pieces must be numeric"):
                sp.PiecewiseSpectralDensity((piece,))
        assert sp.ARMAModel(ma=(b for b in (1, 2))).ma == (1.0, 2.0)

    def test_coefficients_bounded(self):
        # (1 + sum |c_k|)^2 must be finite: it bounds |theta|^2, |phi|^2 and
        # every cosine coefficient of f
        for ma in ([1e200], [1e154, 1e154], [math.inf], [math.nan]):
            with pytest.raises(sp.ModelSpecError):
                sp.ARMAModel(ma=ma)
        with pytest.raises(sp.ModelSpecError):
            sp.ARMAModel(ar=[1e200])
        assert sp.ARMAModel(ma=[1e154]).ma == (1e154,)

    def test_piecewise_partition_enforced(self):
        with pytest.raises(sp.ModelSpecError, match="malformed pieces"):
            sp.PiecewiseSpectralDensity(((0.0, TWO_PI),))
        with pytest.raises(sp.ModelSpecError, match="nonempty"):
            sp.PiecewiseSpectralDensity(())
        with pytest.raises(sp.ModelSpecError, match="lo < hi"):
            sp.PiecewiseSpectralDensity(((0.0, 0.0, 1.0), (0.0, TWO_PI, 2.0)))
        with pytest.raises(sp.ModelSpecError):
            sp.PiecewiseSpectralDensity(((0.0, 1.0, 1.0), (2.0, TWO_PI, 2.0)))  # gap
        with pytest.raises(sp.ModelSpecError):
            sp.PiecewiseSpectralDensity(((0.0, 4.0, 1.0), (3.0, TWO_PI, 2.0)))  # overlap
        with pytest.raises(sp.ModelSpecError):
            sp.PiecewiseSpectralDensity(((0.0, TWO_PI, -1.0),))  # bad level
