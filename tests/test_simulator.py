import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specmp as sp


def two_sample_ks(a, b):
    grid = np.union1d(a.eigenvalues, b.eigenvalues)
    return float(np.max(np.abs(sp.ecdf(a, grid) - sp.ecdf(b, grid))))


class TestSimulateMatrix:
    def test_white_noise_equals_innovation_block(self):
        plan = sp.SimulationPlan(p=4, y=1.0, model=sp.ARMAModel(), seed=0)
        Z = np.random.default_rng(1).standard_normal((4, 8))
        X = sp.simulate_matrix(plan, innovations=Z)
        assert np.array_equal(X, Z[:, 4:])

    def test_forced_ones_ma1(self):
        plan = sp.SimulationPlan(p=3, y=1.0, model=sp.ARMAModel(ma=[1.0]), seed=0)
        X = sp.simulate_matrix(plan, innovations=np.ones((3, 2 * plan.n)))
        assert np.all(X == 2.0)

    def test_seed_determinism(self):
        plan = sp.SimulationPlan(p=4, y=1.0, model=sp.ARMAModel.arma11(0.5, 0.0), seed=123)
        assert np.array_equal(sp.simulate_matrix(plan), sp.simulate_matrix(plan))

    def test_replicates_differ(self):
        plan = sp.SimulationPlan(p=4, y=1.0, model=sp.ARMAModel(), seed=123, replicates=3)
        X0 = sp.simulate_matrix(plan, replicate=0)
        X1 = sp.simulate_matrix(plan, replicate=1)
        assert not np.array_equal(X0, X1)

    def test_mean_shift(self):
        plan = sp.SimulationPlan(p=2, y=1.0, model=sp.ARMAModel(), mu=5.0, seed=0)
        Z = np.zeros((2, 4))
        assert np.all(sp.simulate_matrix(plan, innovations=Z) == 5.0)

    def test_result_does_not_alias_innovations(self):
        # white noise with mu = 0 keeps the innovation block unchanged; the
        # result must still be a fresh array
        plan = sp.SimulationPlan(p=3, y=1.0, model=sp.ARMAModel(), seed=0)
        Z = np.random.default_rng(2).standard_normal((3, 6))
        before = Z.copy()
        X = sp.simulate_matrix(plan, innovations=Z)
        X[...] = 7.0
        assert np.array_equal(Z, before)

    def test_arma_recursion_equals_expansion_sum(self):
        # the recursion starts from zero state at time 1-n: column t carries
        # c_0..c_{t+n-1} of the full expansion
        model = sp.ARMAModel.arma11(0.5, 1.0)
        plan = sp.SimulationPlan(p=4, y=5.0, model=model, seed=0)
        n = plan.n
        Z = np.random.default_rng(3).standard_normal((4, 2 * n))
        c = sp.ma_coefficients(model, 2 * n - 1).coeffs
        direct = np.zeros((4, n))
        for t in range(n):
            for j in range(n + t + 1):
                direct[:, t] += c[j] * Z[:, n + t - j]
        np.testing.assert_allclose(sp.simulate_matrix(plan, innovations=Z), direct, rtol=0, atol=1e-12)

    def test_fft_and_direct_paths_agree(self):
        # the circular FFT of length 2n equals the direct c_0..c_n sum on the kept columns
        model = sp.FARIMAModel(sp.ARMAModel(), -0.25)
        plan = sp.SimulationPlan(p=3, y=2.0, model=model, seed=9)
        n = plan.n
        Z = np.random.default_rng(4).standard_normal((3, 2 * n))
        X = sp.simulate_matrix(plan, innovations=Z)
        kernel = sp.ma_coefficients(model, n).coeffs
        direct = np.zeros((3, n))
        for j in range(n + 1):
            direct += kernel[j] * Z[:, n - j : 2 * n - j]
        np.testing.assert_allclose(X, direct, rtol=0, atol=1e-10)

    def test_farima_with_ar_composes_recursion_and_kernel(self):
        # ARMA part over the whole 2n window, then (1-B)^{-d} truncated at lag n
        model = sp.FARIMAModel(sp.ARMAModel(ar=[-0.3]), -0.25)
        plan = sp.SimulationPlan(p=3, y=4.0, model=model, seed=0)
        n = plan.n
        Z = np.random.default_rng(5).standard_normal((3, 2 * n))
        a = sp.ma_coefficients(model.arma, 2 * n - 1).coeffs
        h = sp.ma_coefficients(sp.FARIMAModel(sp.ARMAModel(), model.d), n).coeffs
        W = np.zeros((3, 2 * n))
        for s in range(2 * n):
            for j in range(s + 1):
                W[:, s] += a[j] * Z[:, s - j]
        direct = np.zeros((3, n))
        for t in range(n):
            for k in range(n + 1):
                direct[:, t] += h[k] * W[:, n + t - k]
        np.testing.assert_allclose(sp.simulate_matrix(plan, innovations=Z), direct, rtol=0, atol=1e-10)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            sp.SimulationPlan(p=0, y=1.0, model=sp.ARMAModel())
        with pytest.raises(ValueError):
            sp.SimulationPlan(p=4, y=-1.0, model=sp.ARMAModel())
        with pytest.raises(ValueError):
            sp.SimulationPlan(p=4, y=1.0, model=sp.ARMAModel(), law="cauchy")
        with pytest.raises(ValueError):
            sp.SimulationPlan(p=4, y=1.0, model="not a model")


class TestInnovationLaws:
    def test_moments(self):
        n = 200_000
        for law in sp.INNOVATION_LAWS:
            plan = sp.SimulationPlan(p=1, y=float(n) / 2.0, model=sp.ARMAModel(), law=law, seed=5)
            from specmp.simulator import _row_innovations

            z = _row_innovations(5, 0, 0, n, law)
            se_mean = 1.0 / math.sqrt(n)
            assert abs(z.mean()) <= 3.0 * se_mean
            fourth = np.mean(z**4)
            se_var = math.sqrt(max(fourth - 1.0, 1e-12) / n)
            assert abs(np.mean(z**2) - 1.0) <= 3.0 * se_var + 1e-12
            assert np.isfinite(fourth)

    def test_rademacher_support(self):
        from specmp.simulator import _row_innovations

        z = _row_innovations(0, 0, 0, 1000, "rademacher")
        assert set(np.unique(z)) == {-1.0, 1.0}


class TestSampleCovEigenvalues:
    def test_identity(self):
        s = sp.sample_cov_eigenvalues(np.eye(2))
        np.testing.assert_array_equal(s.eigenvalues, [0.5, 0.5])

    def test_rank_one(self):
        s = sp.sample_cov_eigenvalues(np.array([[1.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(s.eigenvalues, [0.0, 2.0], atol=1e-14)

    def test_mp_edge_statistics(self):
        # largest eigenvalue concentrates near the Marchenko-Pastur edge 4
        for seed in range(5):
            plan = sp.SimulationPlan(p=1000, y=1.0, model=sp.ARMAModel(), seed=seed)
            s = sp.sample_cov_eigenvalues(sp.simulate_matrix(plan, replicate=seed))
            assert 3.5 < s.eigenvalues.max() < 4.5

    def test_trace_identity(self):
        plan = sp.SimulationPlan(p=300, y=1.5, model=sp.ARMAModel.arma11(0.5, 1.0), seed=8)
        X = sp.simulate_matrix(plan)
        s = sp.sample_cov_eigenvalues(X)
        trace = float(np.sum(X * X)) / plan.p
        assert abs(trace - s.eigenvalues.sum()) / trace <= 1e-6

    def test_rank_bound(self):
        # rank is at most min(p, n), or min(p, n - 1) centred; the null
        # eigenvalues are exact zeros, counted in integers
        for center in (False, True):
            plan = sp.SimulationPlan(p=300, y=0.5, model=sp.ARMAModel(), seed=2, center=center)
            s = sp.sample_cov_eigenvalues(sp.simulate_matrix(plan), center=center)
            rank = min(plan.n - center, plan.p)
            assert int((s.eigenvalues > 1e-9).sum()) <= rank
            assert round(sp.ecdf(s, 0.0) * plan.p) >= plan.p - rank

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        p=st.integers(1, 60),
        ratio=st.floats(0.01, 3.0),
        law=st.sampled_from(sp.INNOVATION_LAWS),
        center=st.booleans(),
        mu=st.sampled_from((0.0, 5.0)),
        phi=st.floats(-0.9, 0.9),
        theta=st.floats(-0.9, 0.9),
        d=st.one_of(st.none(), st.floats(-0.45, 0.0)),
        seed=st.integers(0, 2**31),
    )
    def test_random_plans_trace_identity_and_rank_bound(self, p, ratio, law, center, mu, phi, theta, d, seed):
        arma = sp.ARMAModel.arma11(phi, theta)
        model = arma if d is None else sp.FARIMAModel(arma, d)
        n = max(1, round(ratio * p))
        plan = sp.SimulationPlan(p=p, y=n / p, model=model, law=law, mu=mu, center=center, seed=seed)
        assert plan.n == n
        X = sp.simulate_matrix(plan)
        s = sp.sample_cov_eigenvalues(X, center=center)
        if center:
            X = X - X.mean(axis=1, keepdims=True)
        trace = float(np.sum(X * X)) / p
        assert abs(trace - s.eigenvalues.sum()) <= 1e-9 * trace
        assert int((s.eigenvalues == 0.0).sum()) >= p - min(p, n - center)

    def test_centering_small_scale(self):
        # same innovations: centering a shifted matrix is a rank-one update
        model = sp.ARMAModel(ma=[1.0])
        pa = sp.SimulationPlan(p=400, y=1.0, model=model, seed=3, mu=5.0, center=True)
        pb = sp.SimulationPlan(p=400, y=1.0, model=model, seed=3)
        sa = sp.sample_cov_eigenvalues(sp.simulate_matrix(pa), center=True)
        sb = sp.sample_cov_eigenvalues(sp.simulate_matrix(pb), center=False)
        assert two_sample_ks(sa, sb) <= 2.0 / 400 + 1e-12


class TestECDFAndKS:
    def test_ecdf_examples(self):
        s = sp.EmpiricalSpectrum(np.array([0.5, 0.5]))
        assert sp.ecdf(s, 0.5) == 1.0
        assert sp.ecdf(s, 0.49) == 0.0
        s2 = sp.EmpiricalSpectrum(np.array([0.0, 2.0]))
        assert sp.ecdf(s2, 1.0) == 0.5

    def test_ks_single_point_against_uniform(self):
        s = sp.EmpiricalSpectrum(np.array([0.5]))
        assert sp.ks_distance(s, lambda x: np.clip(x, 0.0, 1.0)) == 0.5

    def test_ks_quantile_construction(self):
        p = 200
        quantiles = (np.arange(1, p + 1) - 0.5) / p
        s = sp.EmpiricalSpectrum(quantiles)
        assert sp.ks_distance(s, lambda x: np.clip(x, 0.0, 1.0)) <= 0.5 / p + 1e-12

    def test_law_invariance(self):
        model = sp.ARMAModel(ma=[0.5])
        dens = sp.invert_to_density(sp.gamma_lsd(model), 1.0)
        cdf = lambda x: sp.lsd_cdf(dens, x)
        for law in sp.INNOVATION_LAWS:
            plan = sp.SimulationPlan(p=1000, y=1.0, model=model, law=law, seed=4)
            s = sp.sample_cov_eigenvalues(sp.simulate_matrix(plan))
            assert sp.ks_distance(s, cdf) <= 0.05


class TestHistogram:
    def test_single_bar(self):
        s = sp.EmpiricalSpectrum(np.ones(4))
        edges, dens, zero_mass = sp.histogram(s, 1, lo=0.5, hi=1.5)
        assert zero_mass == 0.0
        np.testing.assert_allclose(dens, [1.0])

    def test_two_equal_masses(self):
        s = sp.EmpiricalSpectrum(np.array([0.0, 2.0]))
        edges, dens, _ = sp.histogram(s, 2, lo=0.0, hi=2.0)
        # np.histogram puts the right edge of the last bin inclusively
        np.testing.assert_allclose(dens * np.diff(edges), [0.5, 0.5])

    def test_zero_atom_separated(self):
        s = sp.EmpiricalSpectrum(np.array([0.0, 0.0, 1.0, 2.0]))
        edges, dens, zero_mass = sp.histogram(s, 2, lo=0.5, hi=2.5, separate_zero_atom=True)
        assert zero_mass == 0.5
        assert abs((dens * np.diff(edges)).sum() - 0.5) <= 1e-12

    def test_areas_sum_to_one(self):
        plan = sp.SimulationPlan(p=200, y=1.0, model=sp.ARMAModel(), seed=0)
        s = sp.sample_cov_eigenvalues(sp.simulate_matrix(plan))
        edges, dens, _ = sp.histogram(s, 40)
        assert abs((dens * np.diff(edges)).sum() - 1.0) <= 1e-9

    def test_mp_histogram_matches_density(self):
        plan = sp.SimulationPlan(p=1000, y=1.0, model=sp.ARMAModel(), seed=1)
        s = sp.sample_cov_eigenvalues(sp.simulate_matrix(plan))
        edges, dens, _ = sp.histogram(s, 30, lo=0.2, hi=3.8)
        mids = 0.5 * (edges[:-1] + edges[1:])
        assert np.max(np.abs(dens - sp.mp_density(1.0, mids))) <= 0.05
