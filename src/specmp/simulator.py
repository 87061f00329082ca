"""Monte Carlo simulation of sample covariance spectra for linear-process rows.

Generates p x n data matrices whose rows are independent linear processes
X_{i,t} = sum_j c_j Z_{i,t-j} driven by innovations from time 1 - n on,
computes the eigenvalues of p^{-1} X X^T, and measures the distance between
the empirical spectral distribution and a theoretical CDF.

The ARMA part is filtered by its exact recursion from zero state at time
1 - n, so column t carries c_j up to lag t + n - 1.  It differs from the
infinite sum by sum_{j >= t+n} c_j Z_{i,t-j}, of order |r|^{-n} for the AR
root r nearest the unit circle.  A FARIMA model then applies its fractional
kernel (1 - B)^{-d} truncated at lag n.  Neither truncation changes the limit
law.

Rows are simulated in blocks of contiguous rows, on a thread pool sized from
the CPUs the process may use when the rows are long enough for threads to pay
(see ``simulate_matrix``).  Each row draws from its own (seed, replicate, row)
substream, so the matrix does not depend on the number of worker threads.

p^{-1} X X^T has rank at most min(p, n) (min(p, n - 1) after centring), so
when that bound is below p the smaller Gram matrix X^T X / p is eigensolved
and the structural null eigenvalues are reported as exact zeros: p - n of
them, or p - n + 1 when centred.  They are the atom of mass 1 - y at zero in
the limit law.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .linear_process import ARMAModel, FARIMAModel, ma_coefficients

__all__ = [
    "INNOVATION_LAWS",
    "SimulationPlan",
    "EmpiricalSpectrum",
    "simulate_matrix",
    "sample_cov_eigenvalues",
    "ecdf",
    "ks_distance",
    "histogram",
]

INNOVATION_LAWS = ("normal", "rademacher", "uniform")

_SQRT3 = math.sqrt(3.0)

# rows are simulated in blocks of about this many samples
_BLOCK_SAMPLES = 1 << 18
# rows with fewer samples than this are simulated on the calling thread
_MIN_PARALLEL_ROW = 2000

# eigenvalues of the (PSD up to roundoff) sample covariance below this are an
# eigensolver failure rather than roundoff
_EIG_CLAMP = -1e-9


@dataclass(frozen=True)
class SimulationPlan:
    """One simulation configuration; n = round(y * p) columns.

    Innovations have mean 0, unit variance and finite fourth moment under all
    three laws.  ``mu`` shifts every entry; ``center`` subtracts the empirical
    column mean before forming the covariance.  Replicates draw independent
    counter-based substreams, so results do not depend on execution order.
    """

    p: int
    y: float
    model: object
    law: str = "normal"
    mu: float = 0.0
    center: bool = False
    seed: int = 0
    replicates: int = 1

    def __post_init__(self):
        if not isinstance(self.model, (ARMAModel, FARIMAModel)):
            raise ValueError("plan model must be an ARMAModel or FARIMAModel")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if not (self.y > 0.0 and math.isfinite(self.y)):
            raise ValueError("y must be positive and finite")
        if self.law not in INNOVATION_LAWS:
            raise ValueError(f"law must be one of {INNOVATION_LAWS}")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.n < 1:
            raise ValueError("y * p rounds below one column")

    @property
    def n(self):
        return int(round(self.y * self.p))


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Sorted eigenvalues of one simulated p^{-1} X X^T realization."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.sort(np.asarray(self.eigenvalues, dtype=float))
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def p(self):
        return self.eigenvalues.size


def _row_innovations(seed, replicate, row, count, law, out=None):
    # counter-based substream per (seed, replicate, row): rows are reproducible
    # independently and parallel generation is order-free.  ``count`` draws
    # are written into ``out`` (a fresh array if None) with the same values
    # the allocating forms standard_normal, integers(0, 2) * 2.0 - 1.0 and
    # uniform(-sqrt 3, sqrt 3) return
    if out is None:
        out = np.empty(count)
    seq = np.random.SeedSequence(seed, spawn_key=(replicate, row))
    rng = np.random.Generator(np.random.Philox(seq))
    if law == "normal":
        rng.standard_normal(out=out)
    elif law == "rademacher":
        np.multiply(rng.integers(0, 2, size=count), 2.0, out=out)
        out -= 1.0
    else:
        rng.random(out=out)
        out *= 2.0 * _SQRT3
        out -= _SQRT3
    return out


def _row_workers(row_length, law):
    # Short rows are filled on the calling thread: their GIL-held set-up
    # (SeedSequence and Philox, about 30 us a row) outweighs the GIL-free fill.
    # Rademacher and uniform rows are too: their fills take under half the
    # time of normal ones, and on a 2-core host a second thread left them
    # 0.8-1.5x their one-thread time at 2n = 1000-16000.  A call from a
    # thread other than the main one adds no threads of its own: the caller's
    # other threads may already be using the CPUs.
    if law != "normal" or row_length < _MIN_PARALLEL_ROW:
        return 1
    if threading.current_thread() is not threading.main_thread():
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def simulate_matrix(plan, replicate=0, innovations=None):
    """One p x n realization with linear-process rows.

    Each row is drawn over times 1-n .. n (2n samples) from its own
    (seed, replicate, row) substream and run through the ARMA recursion from
    zero state.  For a FARIMA model the result is then convolved with
    (1 - B)^{-d} truncated at lag n, by a circular FFT of length 2n: the kept
    columns n..2n-1 never wrap.  Those columns plus mu are returned as a fresh
    array.  ``innovations`` is a test hook that bypasses the generator with a
    given p x 2n array; it is never modified or aliased.

    Rows are independent, so they are drawn, filtered and written into the
    p x n result in contiguous blocks of about ``_BLOCK_SAMPLES`` samples; the
    p x 2n innovation and filtered arrays are never built.  The blocks run on
    a thread pool with one thread per CPU this process may use
    (``os.sched_getaffinity``, else ``os.cpu_count``), since the draws,
    ``lfilter`` and the FFT release the GIL.  Rows of fewer than
    ``_MIN_PARALLEL_ROW`` samples and rows of Rademacher or uniform draws,
    where threads did not pay, run on the calling thread; so does every call
    made from a thread other than the main one, such as the CLI's replicate
    threads.  Every row keeps its own substream and its own arithmetic, so
    the result is deterministic given (seed, replicate) and does not depend
    on the worker count.
    """
    p, n = plan.p, plan.n
    model = plan.model
    arma, d = (model.arma, model.d) if isinstance(model, FARIMAModel) else (model, 0.0)
    if innovations is not None:
        innovations = np.asarray(innovations, dtype=float)
        if innovations.shape != (p, 2 * n):
            raise ValueError(f"innovations must have shape {(p, 2 * n)}")
    # the kernel is built on the calling thread: worker threads call nothing
    # of specmp's public API
    kernel = None
    if d != 0.0:
        kernel = np.fft.rfft(ma_coefficients(FARIMAModel(ARMAModel(), d), n).coeffs, 2 * n)
    X = np.empty((p, n))

    def fill(lo, hi):
        if innovations is None:
            W = np.empty((hi - lo, 2 * n))
            for i, row in enumerate(W, lo):
                _row_innovations(plan.seed, replicate, i, 2 * n, plan.law, row)
        else:
            W = innovations[lo:hi]
        if not arma.is_white_noise:
            W = lfilter((1.0, *arma.ma), (1.0, *arma.ar), W, axis=1)
        if kernel is not None:
            W = np.fft.irfft(np.fft.rfft(W, axis=1) * kernel, 2 * n, axis=1)
        np.add(W[:, n:], plan.mu, out=X[lo:hi])

    step = max(1, _BLOCK_SAMPLES // (2 * n))
    los = range(0, p, step)
    his = [min(lo + step, p) for lo in los]
    workers = min(_row_workers(2 * n, plan.law), len(los))
    if workers == 1:
        for lo, hi in zip(los, his):
            fill(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, los, his))
    return X


def _helmert(X):
    # X times the Helmert contrasts, an orthonormal basis of the complement of
    # the all-ones vector: column k-1 is (X_0 + ... + X_{k-1} - k X_k) / sqrt(k(k+1))
    k = np.arange(1, X.shape[1], dtype=float)
    return (np.cumsum(X[:, :-1], axis=1) - k * X[:, 1:]) / np.sqrt(k * (k + 1.0))


def sample_cov_eigenvalues(X, center=False):
    """Full spectrum of p^{-1} X X^T via a symmetric eigensolver.

    With ``center`` the empirical column mean is removed first (a rank-one
    update that does not move the limit law), and the centred X is mapped by
    the Helmert contrasts to a p x (n - 1) matrix with the same X X^T.  With
    m = n (or n - 1 when centred) columns left, the m x m Gram matrix
    X^T X / p is eigensolved when m < p and its spectrum padded with p - m
    exact zeros: p - n null eigenvalues, or p - n + 1 when centred.
    Otherwise the p x p matrix X X^T / p is eigensolved.  Roundoff-negative
    eigenvalues within 1e-9 of zero are clamped; anything lower is surfaced
    as an eigensolver failure.
    """
    X = np.asarray(X, dtype=float)
    p = X.shape[0]
    if center:
        X = _helmert(X - X.mean(axis=1, keepdims=True))
    m = X.shape[1]
    S = X.T @ X if m < p else X @ X.T
    S = (S + S.T) / (2.0 * p)
    try:
        vals = np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigensolver failed: p={p}, trace={np.trace(S):.6e}, "
            f"fro={np.linalg.norm(S):.6e}: {exc}"
        ) from exc
    if float(vals.min(initial=0.0)) < _EIG_CLAMP * max(1.0, float(np.abs(vals).max(initial=1.0))):
        raise np.linalg.LinAlgError(
            f"eigensolver returned eigenvalue {vals.min():.3e} far below zero "
            f"for a PSD matrix (p={p})"
        )
    vals = np.clip(vals, 0.0, None)
    if m < p:
        vals = np.concatenate([np.zeros(p - m), vals])
    return EmpiricalSpectrum(vals)


def ecdf(spectrum, x):
    """Fraction of eigenvalues <= x (right-continuous step function)."""
    vals = spectrum.eigenvalues
    xq = np.asarray(x, dtype=float)
    out = np.searchsorted(vals, xq, side="right") / vals.size
    return float(out) if xq.ndim == 0 else out


def ks_distance(spectrum, cdf):
    """Kolmogorov-Smirnov distance between the ESD and a CDF callable.

    The supremum is attained at eigenvalue jump points; both one-sided gaps
    (before and after each jump) are examined.
    """
    lam = spectrum.eigenvalues
    F = np.asarray(cdf(lam), dtype=float)
    k = np.arange(1, lam.size + 1, dtype=float)
    upper = np.max(k / lam.size - F)
    lower = np.max(F - (k - 1.0) / lam.size)
    return float(max(upper, lower))


def histogram(spectrum, bins, lo=None, hi=None, separate_zero_atom=False):
    """Density-normalized eigenvalue histogram.

    Returns (edges, densities, zero_mass).  With ``separate_zero_atom`` the
    eigenvalues at zero (below 1e-9) are reported as ``zero_mass`` and excluded
    from the bins, so the bar areas sum to 1 - zero_mass; otherwise zero_mass
    is 0 and the areas sum to 1.
    """
    if bins < 1:
        raise ValueError("bins must be at least 1")
    vals = spectrum.eigenvalues
    zero_mass = 0.0
    data = vals
    if separate_zero_atom:
        positive = vals > 1e-9
        zero_mass = float(1.0 - positive.mean())
        data = vals[positive]
    if lo is None:
        lo = float(data.min(initial=0.0))
    if hi is None:
        hi = float(data.max(initial=1.0))
    if not hi > lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(data, bins=edges)
    widths = np.diff(edges)
    densities = counts / (vals.size * widths)
    return edges, densities, zero_mass
