import dataclasses
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import specmp as sp
import specmp.simulator as simulator


def reference_rows(seed, replicate, rows, count, law):
    # the replicate's first rows x count draws, straight from NumPy's
    # SeedSequence, default_rng and allocating forms, cut into consecutive rows
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replicate,)))
    if law == "normal":
        draws = rng.standard_normal(rows * count)
    elif law == "rademacher":
        draws = np.where(rng.random(rows * count) < 0.5, -1.0, 1.0)
    else:
        draws = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=rows * count)
    return draws.reshape(rows, count)


def reference_innovations(plan, replicate=0):
    # the p x (n + K) draws the rows of simulate_matrix(plan, replicate) filter
    L = plan.n + simulator._truncated_kernel(plan.model, plan.n).size - 1
    return reference_rows(plan.seed, replicate, plan.p, L, plan.law)


def esd_cdf(spectrum, x):
    return np.searchsorted(spectrum.eigenvalues, x, side="right") / spectrum.p


def two_sample_ks(a, b):
    grid = np.union1d(a.eigenvalues, b.eigenvalues)
    return float(np.max(np.abs(esd_cdf(a, grid) - esd_cdf(b, grid))))


class TestSimulateMatrix:
    def test_white_noise_equals_innovation_block(self):
        plan = sp.SimulationPlan(p=4, y=1.0, model=sp.ARMAModel(), seed=0)
        Z = reference_innovations(plan)
        assert Z.shape == (4, 4)
        assert np.array_equal(sp.simulate_matrix(plan), Z)

    def test_forced_ones_ma1(self):
        # theta = 1: column t is Z_t + Z_{t-1}, the row's draws at lags 0 and 1
        plan = sp.SimulationPlan(p=3, y=1.0, model=sp.ARMAModel(ma=[1.0]), seed=0)
        Z = reference_innovations(plan)
        assert Z.shape == (3, plan.n + 1)
        np.testing.assert_allclose(sp.simulate_matrix(plan), Z[:, 1:] + Z[:, :-1], rtol=0, atol=1e-14)

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
        assert np.array_equal(sp.simulate_matrix(plan), reference_innovations(plan) + 5.0)

    def test_arma_recursion_equals_expansion_sum(self):
        # column t carries c_0..c_K: the cap K = n at n = 20, K = 53 < n at n = 120
        model = sp.ARMAModel.arma11(0.5, 1.0)
        for y in (5.0, 30.0):
            plan = sp.SimulationPlan(p=4, y=y, model=model, seed=0)
            n = plan.n
            Z = reference_innovations(plan)
            c = sp.ma_coefficients(model, n)[: min(n, 53) + 1]
            K = c.size - 1
            assert Z.shape == (4, n + K)
            direct = np.zeros((4, n))
            for t in range(n):
                for j in range(c.size):
                    direct[:, t] += c[j] * Z[:, K + t - j]
            np.testing.assert_allclose(sp.simulate_matrix(plan), direct, rtol=0, atol=1e-12)

    def test_fft_and_direct_paths_agree(self):
        # the circular FFT equals the direct c_0..c_n sum on the kept columns
        model = sp.ARMAModel(d=-0.25)
        plan = sp.SimulationPlan(p=3, y=2.0, model=model, seed=9)
        n = plan.n
        Z = reference_innovations(plan)
        assert Z.shape == (3, 2 * n)
        X = sp.simulate_matrix(plan)
        kernel = sp.ma_coefficients(model, n)
        direct = np.zeros((3, n))
        for j in range(n + 1):
            direct += kernel[j] * Z[:, n - j : 2 * n - j]
        np.testing.assert_allclose(X, direct, rtol=0, atol=1e-10)

    def test_farima_with_ar_composes_recursion_and_kernel(self):
        # the full expansion of the ARMA part times (1-B)^{-d}, cut at lag K = n
        model = sp.ARMAModel(ar=[-0.3], d=-0.25)
        plan = sp.SimulationPlan(p=3, y=4.0, model=model, seed=0)
        n = plan.n
        Z = reference_innovations(plan)
        assert Z.shape == (3, 2 * n)
        a = sp.ma_coefficients(dataclasses.replace(model, d=0.0), n)
        h = sp.ma_coefficients(sp.ARMAModel(d=model.d), n)
        c = np.array([sum(a[i] * h[j - i] for i in range(j + 1)) for j in range(n + 1)])
        direct = np.zeros((3, n))
        for t in range(n):
            for j in range(n + 1):
                direct[:, t] += c[j] * Z[:, n + t - j]
        np.testing.assert_allclose(sp.simulate_matrix(plan), direct, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "model, lag",
        [
            (sp.ARMAModel(), 0),
            (sp.ARMAModel(ma=[1.0]), 1),
            (sp.ARMAModel.arma11(0.5, 1.0), 53),
            (sp.ARMAModel(ar=[0.6, -0.3], ma=[0.4, 0.2, -0.1]), 467),
            (sp.ARMAModel(d=-0.25), 1000),
            (sp.ARMAModel(ar=[-0.3], d=-0.25), 1000),
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
        [sp.ARMAModel(), sp.ARMAModel(ma=[1.0]), sp.ARMAModel.arma11(0.5, 1.0), sp.ARMAModel(d=-0.25)],
        ids=["white", "ma1", "arma11", "farima"],
    )
    def test_each_row_draws_n_plus_k(self, model, monkeypatch):
        # blocks of rows, each L = n + K wide, take the stream's draws in
        # order: stacked, they are every row of the reference exactly once
        blocks = []
        original = simulator._draw

        def recording(rng, law, out):
            original(rng, law, out)
            blocks.append(out.copy())

        monkeypatch.setattr(simulator, "_draw", recording)
        plan = sp.SimulationPlan(p=5, y=40.0, model=model, seed=1)
        monkeypatch.setattr(simulator, "_BLOCK_SAMPLES", 2 * plan.n)
        sp.simulate_matrix(plan)
        assert len(blocks) > 1
        assert np.array_equal(np.vstack(blocks), reference_innovations(plan))

    @pytest.mark.parametrize(
        "model",
        [sp.ARMAModel(ma=[1.0]), sp.ARMAModel.arma11(0.5, 1.0), sp.ARMAModel(ar=[0.6, -0.3], ma=[0.4, 0.2, -0.1])],
        ids=["ma1", "arma11", "arma23"],
    )
    def test_equals_zero_state_recursion_when_n_exceeds_k(self, model):
        # the zero-state recursion over n earlier samples and then the row's
        # n + K draws carries lags up to t + n + K - 1; the lags beyond K move
        # no entry by more than rounding
        plan = sp.SimulationPlan(p=6, y=100.0, model=model, seed=0)
        n = plan.n
        Z = reference_innovations(plan)
        assert n >= Z.shape[1] - n
        earlier = np.random.default_rng(6).standard_normal((6, n))
        recursion = lfilter((1.0, *model.ma), (1.0, *model.ar), np.hstack([earlier, Z]), axis=1)[:, -n:]
        np.testing.assert_allclose(sp.simulate_matrix(plan), recursion, rtol=0, atol=1e-12)

    def test_long_memory_model_builds_and_simulates_silently(self):
        # d > 0 is built, by the constructor or from a spec, and simulated
        # with no warning; only gamma_lsd refuses its law
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = sp.ARMAModel(d=0.25)
            assert sp.model_from_spec('{"type":"farima","d":0.25}') == model
            plan = sp.SimulationPlan(p=4, y=2.0, model=model, seed=0)
            for replicate in (0, 1):
                assert np.all(np.isfinite(sp.simulate_matrix(plan, replicate=replicate)))

    @staticmethod
    def serial_reference(plan, replicate):
        # the stream's p (n + K) draws as one array, then one FFT over all of it
        n = plan.n
        c = simulator._truncated_kernel(plan.model, n)
        K, L = c.size - 1, n + c.size - 1
        W = reference_innovations(plan, replicate)
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
    def test_block_size_invariance(self, p, ratio, block_rows, law, replicate, mu, phi, theta, d, seed):
        # blocks of block_rows rows give the serial matrix bit for bit
        arma = sp.ARMAModel.arma11(phi, theta)
        model = arma if d is None else sp.ARMAModel(ar=[-phi], d=d)
        n = max(1, round(ratio * p))
        plan = sp.SimulationPlan(p=p, y=n / p, model=model, law=law, mu=mu, seed=seed)
        expected = self.serial_reference(plan, replicate)
        row_length = n + simulator._truncated_kernel(model, n).size - 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_BLOCK_SAMPLES", block_rows * row_length)
            assert np.array_equal(sp.simulate_matrix(plan, replicate=replicate), expected)

    def test_public_calls_stay_on_calling_thread(self, monkeypatch):
        # the kernel's ma_coefficients runs once, and every block draw and FFT
        # runs, on the caller's thread
        calls, threads = [], set()

        def recording(fn, log):
            def wrapper(*args, **kwargs):
                log(threading.current_thread())
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(simulator, "ma_coefficients", recording(simulator.ma_coefficients, calls.append))
        monkeypatch.setattr(simulator, "_draw", recording(simulator._draw, threads.add))
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name), threads.add))
        monkeypatch.setattr(simulator, "_BLOCK_SAMPLES", 2 * 64)
        plan = sp.SimulationPlan(p=16, y=2.0, model=sp.ARMAModel(ar=[-0.3], d=-0.25), seed=0)
        sp.simulate_matrix(plan)
        assert calls == [threading.current_thread()]
        assert threads == {threading.current_thread()}

    def test_replicate_validation(self):
        plan = sp.SimulationPlan(p=4, y=1.0, model=sp.ARMAModel())
        for replicate in (1.5, True):
            with pytest.raises(ValueError, match="replicate must be an integer"):
                sp.simulate_matrix(plan, replicate=replicate)
        with pytest.raises(ValueError, match="replicate must be nonnegative"):
            sp.simulate_matrix(plan, replicate=-1)
        assert np.array_equal(sp.simulate_matrix(plan, replicate=np.int64(2)), sp.simulate_matrix(plan, replicate=2))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            sp.SimulationPlan(p=0, y=1.0, model=sp.ARMAModel())
        with pytest.raises(ValueError):
            sp.SimulationPlan(p=4, y=-1.0, model=sp.ARMAModel())
        with pytest.raises(ValueError):
            sp.SimulationPlan(p=4, y=1.0, model=sp.ARMAModel(), law="cauchy")
        with pytest.raises(ValueError):
            sp.SimulationPlan(p=4, y=1.0, model="not a model")
        with pytest.raises(ValueError, match="replicates must be at least 1"):
            sp.SimulationPlan(p=4, y=1.0, model=sp.ARMAModel(), replicates=0)
        # operator.index reads True as 1, so each boolean would build as p = 1, seed 1 or one replicate
        for field in ({"p": 4.5}, {"p": 4, "seed": 1.5}, {"p": 4, "replicates": 2.5},
                      {"p": True}, {"p": 4, "seed": True}, {"p": 4, "replicates": True}):
            with pytest.raises(ValueError, match="must be an integer"):
                sp.SimulationPlan(y=1.0, model=sp.ARMAModel(), **field)

    @pytest.mark.parametrize("center", ["no", "", 1, None])
    def test_plan_center_is_a_boolean(self, center):
        # "no" is truthy and would centre
        with pytest.raises(ValueError, match="center must be a boolean"):
            sp.SimulationPlan(p=4, y=1.0, model=sp.ARMAModel(), center=center)
        assert sp.SimulationPlan(p=4, y=1.0, model=sp.ARMAModel(), center=np.True_).center

    def test_plan_refuses_more_entries_than_numpy_can_index(self):
        # p * n against the largest np.intp: the refusal builds no array
        big = np.iinfo(np.intp).max
        with pytest.raises(ValueError, match="p \\* n exceeds"):
            sp.SimulationPlan(p=16, y=1e300, model=sp.ARMAModel())
        with pytest.raises(ValueError, match="p \\* n exceeds"):
            sp.SimulationPlan(p=2, y=float(big), model=sp.ARMAModel())
        assert sp.SimulationPlan(p=1, y=float(2**40), model=sp.ARMAModel()).n == 2**40

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_plan_rejects_nonfinite_mu(self, mu):
        with pytest.raises(ValueError):
            sp.SimulationPlan(p=4, y=1.0, model=sp.ARMAModel(), mu=mu)


class TestInnovationLaws:
    def test_in_place_fill_matches_allocating_forms(self):
        # white-noise rows written in place a block at a time equal
        # consecutive slices of the stream's allocating draws bit for bit
        for law in sp.INNOVATION_LAWS:
            for count in (1, 2, 7, 1000, 4099):
                plan = sp.SimulationPlan(p=3, y=count / 3.0, model=sp.ARMAModel(), law=law, seed=11)
                block = sp.simulate_matrix(plan, replicate=2)
                assert np.array_equal(block, reference_rows(11, 2, 3, count, law))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**200), st.sampled_from((2**128 - 1, 2**128))),
        replicate=st.one_of(st.integers(0, 2**40), st.sampled_from((2**32 - 1, 2**32))),
        p=st.integers(1, 5000),
        fraction=st.floats(0.0, 1.0),
        law=st.sampled_from(sp.INNOVATION_LAWS),
    )
    def test_rows_are_consecutive_slices_of_one_stream(self, seed, replicate, p, fraction, law):
        # row i of replicate r is draws 3i..3i+2 of
        # default_rng(SeedSequence(seed, spawn_key=(r,))), for seeds longer
        # than SeedSequence's pool and replicates of several words
        plan = sp.SimulationPlan(p=p, y=3.0 / p, model=sp.ARMAModel(), law=law, seed=seed)
        X = sp.simulate_matrix(plan, replicate=replicate)
        assert X.shape == (p, 3)
        reference = reference_rows(seed, replicate, p, 3, law)
        for row in {0, int(fraction * (p - 1)), p - 1}:
            assert np.array_equal(X[row], reference[row])

    def test_moments(self):
        n = 200_000
        for law in sp.INNOVATION_LAWS:
            plan = sp.SimulationPlan(p=1, y=float(n), model=sp.ARMAModel(), law=law, seed=5)
            z = sp.simulate_matrix(plan)[0]
            assert np.array_equal(z, reference_rows(5, 0, 1, n, law)[0])
            se_mean = 1.0 / math.sqrt(n)
            assert abs(z.mean()) <= 3.0 * se_mean
            fourth = np.mean(z**4)
            se_var = math.sqrt(max(fourth - 1.0, 1e-12) / n)
            assert abs(np.mean(z**2) - 1.0) <= 3.0 * se_var + 1e-12
            assert np.isfinite(fourth)

    def test_rademacher_support(self):
        plan = sp.SimulationPlan(p=1, y=1000.0, model=sp.ARMAModel(), law="rademacher", seed=0)
        z = sp.simulate_matrix(plan)[0]
        assert np.array_equal(z, reference_rows(0, 0, 1, 1000, "rademacher")[0])
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

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("y", [0.7, 2.0])
    def test_trace_is_vdot_of_the_reported_matrix(self, y, center):
        # the spectrum's trace is vdot(Xc, Xc) / p of the (centred) matrix to a
        # few ulps, summed row by row as the diagonal of Xc Xc^T / p bit for bit
        plan = sp.SimulationPlan(p=200, y=y, model=sp.ARMAModel.arma11(0.5, 1.0), seed=12, mu=2.0)
        X = sp.simulate_matrix(plan)
        Xc = X - X.mean(axis=1, keepdims=True) if center else X
        trace = sp.sample_cov_eigenvalues(X, center=center).trace
        assert abs(trace - np.vdot(Xc, Xc) / plan.p) <= 4 * np.finfo(float).eps * trace
        assert trace == (np.einsum("ij,ij->i", Xc, Xc) / plan.p).sum()
        assert sp.EmpiricalSpectrum(np.ones(3)).trace is None

    def test_trace_is_finite_where_the_gram_matrix_is(self):
        # each row's squares sum to about 2e307, so X X^T / p is finite, but
        # all p n squares together overflow before any division by p
        X = np.random.default_rng(3).choice([-1e153, 1e153], size=(20, 20))
        s = sp.sample_cov_eigenvalues(X)
        assert math.isfinite(s.trace)
        assert abs(s.trace - s.eigenvalues.sum()) <= 1e-12 * s.trace

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
        model = arma if d is None else dataclasses.replace(arma, d=d)
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

    @staticmethod
    def no_convergence(S):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    @pytest.mark.parametrize(
        "eigvalsh, reason",
        [(no_convergence, "eigensolver failed: p=2"), (lambda S: np.array([-1.0, 1.0]), "far below zero")],
        ids=["raises", "negative"],
    )
    def test_eigensolver_failure_is_typed(self, eigvalsh, reason, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        with pytest.raises(np.linalg.LinAlgError, match=reason):
            sp.sample_cov_eigenvalues(np.eye(2))

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

    @pytest.mark.parametrize("eigenvalues", [[], [0.5, math.nan], [0.5, math.inf], [-math.inf, 0.5]],
                             ids=["empty", "nan", "inf", "-inf"])
    def test_spectrum_refuses_empty_or_nonfinite(self, eigenvalues):
        # ks_distance of an empty spectrum failed inside NumPy's max, a NaN gave KS = nan and an inf 0.5
        with pytest.raises(ValueError, match="at least one eigenvalue, and every eigenvalue finite"):
            sp.EmpiricalSpectrum(np.array(eigenvalues))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["at", "below"])
    def test_ks_refuses_a_cdf_not_finite_at_the_eigenvalues(self, bad, side):
        # the CDF is read at each eigenvalue and one ulp below it; a NaN there gave KS = nan
        lam = np.array([0.25, 0.5, 0.75])
        spectrum = sp.EmpiricalSpectrum(lam)
        cdf = lambda x: np.where(x == (lam[1] if side == "at" else np.nextafter(lam[1], 0.0)), bad, x)
        with pytest.raises(ValueError, match="the CDF must be finite at the eigenvalues"):
            sp.ks_distance(spectrum, cdf)
        assert sp.ks_distance(spectrum, lambda x: x) == 0.25

    def test_law_invariance(self):
        model = sp.ARMAModel(ma=[0.5])
        dens = sp.invert_to_density(sp.gamma_lsd(model), 1.0)
        cdf = lambda x: sp.lsd_cdf(dens, x)
        for law in sp.INNOVATION_LAWS:
            plan = sp.SimulationPlan(p=1000, y=1.0, model=model, law=law, seed=4)
            s = sp.sample_cov_eigenvalues(sp.simulate_matrix(plan))
            assert sp.ks_distance(s, cdf) <= 0.05


class TestHistogram:
    def test_mp_histogram_matches_density(self):
        plan = sp.SimulationPlan(p=1000, y=1.0, model=sp.ARMAModel(), seed=1)
        s = sp.sample_cov_eigenvalues(sp.simulate_matrix(plan))
        counts, edges = np.histogram(s.eigenvalues, bins=30, range=(0.2, 3.8))
        dens = counts / (s.p * np.diff(edges))
        mids = 0.5 * (edges[:-1] + edges[1:])
        assert np.max(np.abs(dens - sp.mp_density(1.0, mids))) <= 0.05
