import math
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import specmp as sp
import specmp.simulator as simulator


def reference_row(seed, replicate, row, count, law):
    # row's draws straight from NumPy's SeedSequence, Philox and allocating forms
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(replicate, row))))
    if law == "normal":
        return rng.standard_normal(count)
    if law == "rademacher":
        return rng.integers(0, 2, size=count).astype(float) * 2.0 - 1.0
    return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=count)


def reference_key(seed, replicate, row):
    return np.random.SeedSequence(seed, spawn_key=(replicate, row)).generate_state(2, np.uint64)


def esd_cdf(spectrum, x):
    return np.searchsorted(spectrum.eigenvalues, x, side="right") / spectrum.p


def two_sample_ks(a, b):
    grid = np.union1d(a.eigenvalues, b.eigenvalues)
    return float(np.max(np.abs(esd_cdf(a, grid) - esd_cdf(b, grid))))


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
        # column t carries c_0..c_K: the cap K = n at n = 20, K = 53 < n at n = 120
        model = sp.ARMAModel.arma11(0.5, 1.0)
        for y in (5.0, 30.0):
            plan = sp.SimulationPlan(p=4, y=y, model=model, seed=0)
            n = plan.n
            Z = np.random.default_rng(3).standard_normal((4, 2 * n))
            c = sp.ma_coefficients(model, n)[: min(n, 53) + 1]
            direct = np.zeros((4, n))
            for t in range(n):
                for j in range(c.size):
                    direct[:, t] += c[j] * Z[:, n + t - j]
            np.testing.assert_allclose(sp.simulate_matrix(plan, innovations=Z), direct, rtol=0, atol=1e-12)

    def test_fft_and_direct_paths_agree(self):
        # the circular FFT equals the direct c_0..c_n sum on the kept columns
        model = sp.FARIMAModel(sp.ARMAModel(), -0.25)
        plan = sp.SimulationPlan(p=3, y=2.0, model=model, seed=9)
        n = plan.n
        Z = np.random.default_rng(4).standard_normal((3, 2 * n))
        X = sp.simulate_matrix(plan, innovations=Z)
        kernel = sp.ma_coefficients(model, n)
        direct = np.zeros((3, n))
        for j in range(n + 1):
            direct += kernel[j] * Z[:, n - j : 2 * n - j]
        np.testing.assert_allclose(X, direct, rtol=0, atol=1e-10)

    def test_farima_with_ar_composes_recursion_and_kernel(self):
        # the full expansion of the ARMA part times (1-B)^{-d}, cut at lag K = n
        model = sp.FARIMAModel(sp.ARMAModel(ar=[-0.3]), -0.25)
        plan = sp.SimulationPlan(p=3, y=4.0, model=model, seed=0)
        n = plan.n
        Z = np.random.default_rng(5).standard_normal((3, 2 * n))
        a = sp.ma_coefficients(model.arma, n)
        h = sp.ma_coefficients(sp.FARIMAModel(sp.ARMAModel(), model.d), n)
        c = np.array([sum(a[i] * h[j - i] for i in range(j + 1)) for j in range(n + 1)])
        direct = np.zeros((3, n))
        for t in range(n):
            for j in range(n + 1):
                direct[:, t] += c[j] * Z[:, n + t - j]
        np.testing.assert_allclose(sp.simulate_matrix(plan, innovations=Z), direct, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "model, lag",
        [
            (sp.ARMAModel(), 0),
            (sp.ARMAModel(ma=[1.0]), 1),
            (sp.ARMAModel.arma11(0.5, 1.0), 53),
            (sp.ARMAModel(ar=[0.6, -0.3], ma=[0.4, 0.2, -0.1]), 467),
            (sp.FARIMAModel(sp.ARMAModel(), -0.25), 1000),
            (sp.FARIMAModel(sp.ARMAModel(ar=[-0.3]), -0.25), 1000),
            (sp.ARMAModel.arma11(0.98, 0.0), 1000),
        ],
        ids=["white", "ma1", "arma11", "arma23", "farima", "farima-ar", "ar1-0.98"],
    )
    def test_truncation_lag(self, model, lag):
        # K is the smallest lag whose tail energy is at most u^2 of the total, capped at n
        c = simulator._truncated_kernel(model, 1000)
        assert c.size - 1 == lag
        full = sp.ma_coefficients(model, 1000)
        assert np.array_equal(c, full[: lag + 1])
        energy = np.sum(full**2)
        assert np.sum(full[lag + 1 :] ** 2) <= 2.0**-106 * energy
        if lag:
            assert np.sum(full[lag:] ** 2) > 2.0**-106 * energy

    def test_fft_length_is_smallest_5_smooth(self):
        smooth = sorted(2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(6))
        for length in range(1, 5000):
            assert simulator._fft_length(length) == next(s for s in smooth if s >= length)

    @pytest.mark.parametrize(
        "model",
        [sp.ARMAModel(), sp.ARMAModel(ma=[1.0]), sp.ARMAModel.arma11(0.5, 1.0), sp.FARIMAModel(sp.ARMAModel(), -0.25)],
        ids=["white", "ma1", "arma11", "farima"],
    )
    def test_each_row_draws_n_plus_k(self, model, monkeypatch):
        # rows are told apart by their Philox keys, taken from NumPy's SeedSequence
        counts = []
        original = simulator._draw_row

        def counting(rng, fresh, key, law, out):
            counts.append((tuple(int(word) for word in key), out.size))
            return original(rng, fresh, key, law, out)

        monkeypatch.setattr(simulator, "_draw_row", counting)
        plan = sp.SimulationPlan(p=5, y=40.0, model=model, seed=1)
        sp.simulate_matrix(plan)
        L = plan.n + simulator._truncated_kernel(model, plan.n).size - 1
        keys = [tuple(int(word) for word in reference_key(1, 0, row)) for row in range(5)]
        assert len(set(keys)) == 5
        assert sorted(counts) == sorted((key, L) for key in keys)

    @pytest.mark.parametrize(
        "model",
        [sp.ARMAModel(ma=[1.0]), sp.ARMAModel.arma11(0.5, 1.0), sp.ARMAModel(ar=[0.6, -0.3], ma=[0.4, 0.2, -0.1])],
        ids=["ma1", "arma11", "arma23"],
    )
    def test_equals_zero_state_recursion_when_n_exceeds_k(self, model):
        # the zero-state recursion over 2n samples carries lags up to t + n - 1;
        # the lags beyond K move no entry by more than rounding
        plan = sp.SimulationPlan(p=6, y=100.0, model=model, seed=0)
        n = plan.n
        assert n >= simulator._truncated_kernel(model, n).size - 1
        Z = np.random.default_rng(6).standard_normal((6, 2 * n))
        recursion = lfilter((1.0, *model.ma), (1.0, *model.ar), Z, axis=1)[:, n:]
        np.testing.assert_allclose(sp.simulate_matrix(plan, innovations=Z), recursion, rtol=0, atol=1e-12)

    def test_long_memory_model_warns_once(self):
        # the warning for d > 0 comes from building the model, not from simulating it
        with pytest.warns(UserWarning):
            model = sp.FARIMAModel(sp.ARMAModel(), 0.25)
        plan = sp.SimulationPlan(p=4, y=2.0, model=model, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sp.simulate_matrix(plan)
            sp.simulate_matrix(plan, replicate=1)
        assert not [w for w in caught if issubclass(w.category, UserWarning)]

    @staticmethod
    def serial_reference(plan, replicate):
        # row by row draws of n + K samples, then one FFT over the whole p x (n + K) array
        n = plan.n
        c = simulator._truncated_kernel(plan.model, n)
        K, L = c.size - 1, n + c.size - 1
        W = np.array([reference_row(plan.seed, replicate, i, L, plan.law) for i in range(plan.p)])
        if K:
            N = simulator._fft_length(L)
            W = np.fft.irfft(np.fft.rfft(W, N, axis=1) * np.fft.rfft(c, N), N, axis=1)
        return W[:, K:L] + plan.mu

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        p=st.integers(1, 40),
        ratio=st.floats(0.05, 3.0),
        block_rows=st.integers(1, 40),
        law=st.sampled_from(sp.INNOVATION_LAWS),
        replicate=st.integers(1, 5),
        mu=st.sampled_from((-2.5, 5.0)),
        phi=st.floats(-0.9, 0.9),
        theta=st.floats(-0.9, 0.9),
        d=st.one_of(st.none(), st.floats(-0.45, -0.01)),
        seed=st.integers(0, 2**31),
    )
    def test_worker_count_invariance(self, p, ratio, block_rows, law, replicate, mu, phi, theta, d, seed):
        # blocks of block_rows rows on 1, 2 or 3 threads give the serial matrix bit for bit
        arma = sp.ARMAModel.arma11(phi, theta)
        model = arma if d is None else sp.FARIMAModel(sp.ARMAModel(ar=[-phi]), d)
        n = max(1, round(ratio * p))
        plan = sp.SimulationPlan(p=p, y=n / p, model=model, law=law, mu=mu, seed=seed)
        expected = self.serial_reference(plan, replicate)
        row_length = n + simulator._truncated_kernel(model, n).size - 1
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulator, "_BLOCK_SAMPLES", block_rows * row_length)
                mp.setattr(simulator, "_row_workers", lambda row_length, law: workers)
                assert np.array_equal(sp.simulate_matrix(plan, replicate=replicate), expected)

    def test_row_worker_rule(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert simulator._row_workers(simulator._MIN_PARALLEL_ROW - 1, "normal") == 1
        assert simulator._row_workers(simulator._MIN_PARALLEL_ROW, "normal") == cpus
        for law in ("rademacher", "uniform"):
            assert simulator._row_workers(10 * simulator._MIN_PARALLEL_ROW, law) == 1
        # a call from another thread adds no threads of its own
        seen = []
        thread = threading.Thread(target=lambda: seen.append(simulator._row_workers(10**6, "normal")))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive() and seen == [1]

    def test_public_calls_stay_on_calling_thread(self, monkeypatch):
        # worker threads call nothing of specmp's public API: the kernel's
        # ma_coefficients runs once, on the caller's thread
        calls = []
        original = simulator.ma_coefficients

        def recording(*args):
            calls.append(threading.current_thread())
            return original(*args)

        monkeypatch.setattr(simulator, "ma_coefficients", recording)
        monkeypatch.setattr(simulator, "_BLOCK_SAMPLES", 2 * 64)
        monkeypatch.setattr(simulator, "_row_workers", lambda row_length, law: 2)
        plan = sp.SimulationPlan(p=16, y=2.0, model=sp.FARIMAModel(sp.ARMAModel(ar=[-0.3]), -0.25), seed=0)
        sp.simulate_matrix(plan)
        assert calls == [threading.current_thread()]

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            sp.SimulationPlan(p=0, y=1.0, model=sp.ARMAModel())
        with pytest.raises(ValueError):
            sp.SimulationPlan(p=4, y=-1.0, model=sp.ARMAModel())
        with pytest.raises(ValueError):
            sp.SimulationPlan(p=4, y=1.0, model=sp.ARMAModel(), law="cauchy")
        with pytest.raises(ValueError):
            sp.SimulationPlan(p=4, y=1.0, model="not a model")

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_plan_rejects_nonfinite_mu(self, mu):
        with pytest.raises(ValueError):
            sp.SimulationPlan(p=4, y=1.0, model=sp.ARMAModel(), mu=mu)


class TestInnovationLaws:
    def test_in_place_fill_matches_allocating_forms(self):
        # white-noise rows written in place by one reset generator per block
        # equal the draws of the allocating forms on a fresh generator bit for bit
        for law in sp.INNOVATION_LAWS:
            for count in (1, 2, 7, 1000, 4099):
                plan = sp.SimulationPlan(p=3, y=count / 3.0, model=sp.ARMAModel(), law=law, seed=11)
                block = sp.simulate_matrix(plan, replicate=2)
                for row in range(3):
                    assert np.array_equal(block[row], reference_row(11, 2, row, count, law))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**200), st.sampled_from((2**128 - 1, 2**128))),
        replicate=st.one_of(st.integers(0, 2**40), st.sampled_from((2**32 - 1, 2**32))),
        p=st.integers(1, 5000),
        fraction=st.floats(0.0, 1.0),
    )
    def test_row_keys_match_seed_sequence(self, seed, replicate, p, fraction):
        # the vectorised keys are SeedSequence(seed, spawn_key=(replicate, row)).generate_state(2, uint64)
        keys = simulator._row_keys(seed, replicate, p)
        assert keys.shape == (p, 2) and keys.dtype == np.uint64
        for row in {0, int(fraction * (p - 1)), p - 1}:
            assert np.array_equal(keys[row], reference_key(seed, replicate, row))

    def test_moments(self):
        n = 200_000
        for law in sp.INNOVATION_LAWS:
            plan = sp.SimulationPlan(p=1, y=float(n), model=sp.ARMAModel(), law=law, seed=5)
            z = sp.simulate_matrix(plan)[0]
            assert np.array_equal(z, reference_row(5, 0, 0, n, law))
            se_mean = 1.0 / math.sqrt(n)
            assert abs(z.mean()) <= 3.0 * se_mean
            fourth = np.mean(z**4)
            se_var = math.sqrt(max(fourth - 1.0, 1e-12) / n)
            assert abs(np.mean(z**2) - 1.0) <= 3.0 * se_var + 1e-12
            assert np.isfinite(fourth)

    def test_rademacher_support(self):
        plan = sp.SimulationPlan(p=1, y=1000.0, model=sp.ARMAModel(), law="rademacher", seed=0)
        z = sp.simulate_matrix(plan)[0]
        assert np.array_equal(z, reference_row(0, 0, 0, 1000, "rademacher"))
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
            assert round(esd_cdf(s, 0.0) * plan.p) >= plan.p - rank

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

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("y", [0.5, 1.0, 3.0])
    def test_gram_is_exactly_symmetric(self, y, center):
        # the spectrum is eigvalsh of the explicitly symmetrised Gram matrix,
        # bit for bit, for both orientations and for a non-contiguous view
        plan = sp.SimulationPlan(p=120, y=y, model=sp.ARMAModel.arma11(0.5, 1.0), seed=4, mu=1.0, center=center)
        X = sp.simulate_matrix(plan)
        for view in (X, np.asfortranarray(X), X[::2, ::3]):
            A = np.ascontiguousarray(view)
            A = simulator._helmert(A - A.mean(axis=1, keepdims=True)) if center else A
            S = A.T @ A if A.shape[1] < A.shape[0] else A @ A.T
            ref = np.clip(np.linalg.eigvalsh((S + S.T) / (2.0 * A.shape[0])), 0.0, None)
            vals = sp.sample_cov_eigenvalues(view, center=center).eigenvalues
            np.testing.assert_array_equal(vals[vals.size - ref.size :], ref)
            assert not vals[: vals.size - ref.size].any()

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
        assert esd_cdf(s, 0.5) == 1.0
        assert esd_cdf(s, 0.49) == 0.0
        s2 = sp.EmpiricalSpectrum(np.array([0.0, 2.0]))
        assert esd_cdf(s2, 1.0) == 0.5

    def test_ks_single_point_against_uniform(self):
        s = sp.EmpiricalSpectrum(np.array([0.5]))
        assert sp.ks_distance(s, lambda x: np.clip(x, 0.0, 1.0)) == 0.5

    def test_ks_quantile_construction(self):
        p = 200
        quantiles = (np.arange(1, p + 1) - 0.5) / p
        s = sp.EmpiricalSpectrum(quantiles)
        assert sp.ks_distance(s, lambda x: np.clip(x, 0.0, 1.0)) <= 0.5 / p + 1e-12

    def test_ks_atom_at_zero(self):
        # half the mass at an atom at zero, as the limit law has at y = 0.5: the
        # ESD jumps at the atom together with F, so the perfect sample of the
        # law scores the quantile floor, not the atom
        p = 1000
        sample = np.concatenate([np.zeros(p // 2), (np.arange(1, p // 2 + 1) - 0.5) / (p // 2)])
        s = sp.EmpiricalSpectrum(sample)
        cdf = lambda x: np.where(x < 0.0, 0.0, 0.5 + 0.5 * np.clip(x, 0.0, 1.0))
        assert sp.ks_distance(s, cdf) <= 0.5 / p + 1e-12

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
