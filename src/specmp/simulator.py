"""Monte Carlo simulation of sample covariance spectra for linear-process rows.

Generates p x n data matrices whose rows are independent linear processes
X_{i,t} = sum_j c_j Z_{i,t-j}, computes the eigenvalues of p^{-1} X X^T, and
measures the distance between the empirical spectral distribution and a
theoretical CDF.

Each row is the model's MA(infinity) expansion cut at lag K: the smallest
K <= n whose tail sum_{K<j<=n} c_j^2 is at most u^2 sum_{j<=n} c_j^2, with
u = 2^-53.  Every column carries the same lags c_0..c_K, so the columns are
stationary.  Where K < n the dropped lags move a row by less than rounding;
models whose expansion decays slower (FARIMA, AR roots near the unit circle)
are cut at lag n.  Neither cut changes the limit law.

Rows are simulated in blocks of contiguous rows, on a thread pool sized from
the CPUs the process may use when the rows are long enough for threads to pay
(see ``simulate_matrix``).  Each row draws from its own (seed, replicate, row)
substream, so the matrix does not depend on the number of worker threads.
The substream is Philox(SeedSequence(seed, spawn_key=(replicate, row))) at
counter 0.  Philox is counter-based (Salmon et al., SC'11), so a substream is
its 128-bit key: the keys of all rows are derived in one vectorised pass of
SeedSequence's hash, and each block resets one Philox to the next row's key
instead of building a SeedSequence and a generator per row.

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

from .linear_process import ARMAModel, FARIMAModel, ma_coefficients

__all__ = [
    "INNOVATION_LAWS",
    "SimulationPlan",
    "EmpiricalSpectrum",
    "simulate_matrix",
    "sample_cov_eigenvalues",
    "ks_distance",
    "histogram",
]

INNOVATION_LAWS = ("normal", "rademacher", "uniform")

_SQRT3 = math.sqrt(3.0)

# rows are simulated in blocks of about this many samples.  A block in flight
# holds about 3x its bytes (draws, spectrum, filtered rows) on each worker
# thread: the three-model `specmp simulate` cycle at p = 1000 peaked at
# 100-106 MB RSS with 2^18-sample blocks, 88-89 MB with 2^16 and 82 MB on one
# thread, for 2-10% more simulate_matrix time than with 2^18
_BLOCK_SAMPLES = 1 << 16
# rows with fewer samples than this are simulated on the calling thread
_MIN_PARALLEL_ROW = 2000
# u^2, u = 2^-53: a kernel tail with at most this share of the energy is cut
_TAIL_ENERGY = 2.0**-106

# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

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
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if self.law not in INNOVATION_LAWS:
            raise ValueError(f"law must be one of {INNOVATION_LAWS}")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
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


def _words(value):
    # the 32-bit words SeedSequence splits a nonnegative integer into
    return max(1, -(-int(value).bit_length() // 32))


def _row_keys(seed, replicate, p):
    # p x 2 uint64: row i holds the key of
    # Philox(SeedSequence(seed, spawn_key=(replicate, i))), for all rows in one
    # pass.  The row's word is the last entropy word that SeedSequence mixes
    # into its 4-word pool, so it is mixed here into the pool of
    # SeedSequence(seed, spawn_key=(replicate,)), with the hash constant
    # advanced past the 4 + 12 hashmix calls over the pool and the 4 calls
    # for each entropy word beyond the fourth (run entropy is padded to 4
    # words); generate_state(2, uint64)'s output hash follows.  Constants are
    # NumPy's; the scalar arithmetic is on Python ints masked to 32 bits and
    # the vector arithmetic wraps in uint32 arrays.
    pool = np.random.SeedSequence(seed, spawn_key=(replicate,)).pool
    calls = 16 + 4 * (max(_words(seed), 4) - 4 + _words(replicate))
    hash_a = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32
    hash_b = _INIT_B
    rows = np.arange(p, dtype=np.uint32)
    words = np.empty((4, p), dtype=np.uint64)
    for i, word in enumerate(pool):
        # mix(pool[i], hashmix(row))
        value = rows ^ hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value *= hash_a
        value ^= value >> _XSHIFT
        value *= _MIX_MULT_R
        value = (_MIX_MULT_L * int(word) & _MASK32) - value
        value ^= value >> _XSHIFT
        # generate_state's hash of output word i
        value ^= hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value *= hash_b
        value ^= value >> _XSHIFT
        words[i] = value
    return (words[0::2] | words[1::2] << 32).T


def _draw_row(rng, fresh, key, law, out):
    # restarts rng's Philox at ``fresh`` (counter 0, empty buffer) under
    # ``key`` and fills ``out`` with the values the allocating forms
    # standard_normal, integers(0, 2) * 2.0 - 1.0 and uniform(-sqrt 3, sqrt 3)
    # return
    fresh["state"]["key"] = key
    rng.bit_generator.state = fresh
    if law == "normal":
        rng.standard_normal(out=out)
    elif law == "rademacher":
        np.multiply(rng.integers(0, 2, size=out.size), 2.0, out=out)
        out -= 1.0
    else:
        rng.random(out=out)
        out *= 2.0 * _SQRT3
        out -= _SQRT3


def _row_workers(row_length, law):
    # Rows of fewer than _MIN_PARALLEL_ROW samples, and Rademacher and uniform
    # rows of any length, are filled on the calling thread.  A row's GIL-held
    # work (a Philox state reset and the draw calls, a few us) is serial
    # whatever the worker count, while the draws and the FFT release the GIL.
    # 2-thread over 1-thread time of simulate_matrix at p = 1000 on a 2-core
    # host, medians of 15 interleaved runs, white noise / ARMA(1,1) rows of L
    # samples:
    # - normal: 1.24 / 1.07 at L = 501, 1.00 / 0.76 at 1001, 0.67 / 0.74 at
    #   2000, 0.63 / 0.61 at 3053;
    # - Rademacher: 1.58 / 1.19 at 501, 1.73 / 1.11 at 1001, 1.34 / 0.81 at
    #   2000, 1.13 / 0.77 at 3053;
    # - uniform: 1.53 / 1.16 at 501, 1.25 / 0.91 at 1001, 0.88 / 0.67 at
    #   2000, 0.81 / 0.67 at 3053.
    # Threads would also pay for filtered normal rows from about 1000 samples
    # and for filtered uniform and Rademacher rows from about 2000; the rule
    # stays until a perfbench workload has rows on each side of a new
    # threshold.
    # A call from a thread other than the main one adds no threads of its
    # own: the caller's other threads may already be using the CPUs.
    if law != "normal" or row_length < _MIN_PARALLEL_ROW:
        return 1
    if threading.current_thread() is not threading.main_thread():
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _truncated_kernel(model, n):
    # c_0..c_K of the model's MA(infinity) expansion, for the smallest K <= n
    # with sum_{K<j<=n} c_j^2 <= u^2 sum_{j<=n} c_j^2
    c = ma_coefficients(model, n)
    # tails[j] = sum_{j<=i<=n} c_i^2, scaled by max |c_i| >= c_0 = 1 so no square overflows
    tails = np.cumsum((c[::-1] / np.abs(c).max()) ** 2)[::-1]
    K = int(np.argmax(np.append(tails[1:], 0.0) <= _TAIL_ENERGY * tails[0]))
    return c[: K + 1]


def _fft_length(length):
    # the smallest 2^a 3^b 5^c >= length, where pocketfft is fastest
    size = length
    while True:
        rest = size
        for factor in (2, 3, 5):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return size
        size += 1


def simulate_matrix(plan, replicate=0, innovations=None):
    """One p x n realization with linear-process rows.

    Column t of row i is sum_{j<=K} c_j Z_{i,t-j}, the model's MA(infinity)
    expansion cut at lag K (see the module docstring).  Each row draws its
    L = n + K innovations from its own (seed, replicate, row) substream and is
    convolved with c_0..c_K by one circular FFT of length N >= L, the smallest
    2^a 3^b 5^c; the kept columns K..L-1 never wrap.  White noise has K = 0
    and no FFT.  Those columns plus mu are returned as a fresh array.
    ``innovations`` is a test hook that bypasses the generator with a given
    p x 2n array, of which the last L columns are read; it is never modified
    or aliased.

    The kernel comes from one ``ma_coefficients`` call on the calling thread,
    and so do the Philox keys of all p rows, from one vectorised pass
    (``_row_keys``): worker threads call nothing of specmp's public API.
    Each block builds one Philox generator and resets its state to each of
    its rows' keys in turn, at counter 0 with an empty buffer, which is the
    state of a Philox built from that row's SeedSequence.  Rows are
    independent, so they are drawn, filtered and written into the p x n result
    in contiguous blocks of about ``_BLOCK_SAMPLES`` samples; the p x L
    innovation and filtered arrays are never built.  The blocks run on a
    thread pool with one thread per CPU this process may use
    (``os.sched_getaffinity``, else ``os.cpu_count``), since the draws and
    the FFT release the GIL.  Rows of fewer than ``_MIN_PARALLEL_ROW``
    samples and rows of Rademacher or uniform draws, where threads did not
    pay, run on the calling thread; so does every call made from a thread
    other than the main one.  Every row keeps its own substream and its own
    arithmetic, so the result is deterministic given (seed, replicate) and
    does not depend on the worker count.  A simulation loads NumPy only.
    """
    p, n = plan.p, plan.n
    if innovations is not None:
        innovations = np.asarray(innovations, dtype=float)
        if innovations.shape != (p, 2 * n):
            raise ValueError(f"innovations must have shape {(p, 2 * n)}")
    c = _truncated_kernel(plan.model, n)
    K = c.size - 1
    L = n + K
    N = _fft_length(L)
    kernel = np.fft.rfft(c, N) if K else None
    keys = _row_keys(plan.seed, replicate, p) if innovations is None else None
    X = np.empty((p, n))

    def fill(lo, hi):
        if innovations is None:
            W = np.empty((hi - lo, L))
            rng = np.random.Generator(np.random.Philox(key=keys[lo]))
            fresh = rng.bit_generator.state
            for key, row in zip(keys[lo:hi], W):
                _draw_row(rng, fresh, key, plan.law, row)
        else:
            W = innovations[lo:hi, 2 * n - L :]
        if kernel is not None:
            W = np.fft.irfft(np.fft.rfft(W, N, axis=1) * kernel, N, axis=1)
        np.add(W[:, K:L], plan.mu, out=X[lo:hi])

    step = max(1, _BLOCK_SAMPLES // L)
    los = range(0, p, step)
    his = [min(lo + step, p) for lo in los]
    workers = min(_row_workers(L, plan.law), len(los))
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
    Otherwise the p x p matrix X X^T / p is eigensolved.  NumPy forms either
    Gram matrix of a contiguous X with a symmetric rank-k update, so it is
    exactly symmetric, and the eigensolver reads only its lower triangle.
    Roundoff-negative eigenvalues within 1e-9 of zero are clamped; anything
    lower is surfaced as an eigensolver failure.
    """
    X = np.ascontiguousarray(X, dtype=float)
    p = X.shape[0]
    if center:
        X = _helmert(X - X.mean(axis=1, keepdims=True))
    m = X.shape[1]
    S = X.T @ X if m < p else X @ X.T
    S /= p
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


def ks_distance(spectrum, cdf):
    """Kolmogorov-Smirnov distance between the ESD and a CDF callable.

    The supremum is attained at eigenvalue jump points; both one-sided gaps
    are examined: the ESD after each jump against F there, and the ESD before
    it against F's left limit, taken one ulp below, so that an atom of F (the
    mass 1 - y at zero when y < 1) meets the jump that matches it.
    """
    lam = spectrum.eigenvalues
    F = np.asarray(cdf(lam), dtype=float)
    F_left = np.asarray(cdf(np.nextafter(lam, -np.inf)), dtype=float)
    k = np.arange(1, lam.size + 1, dtype=float)
    upper = np.max(k / lam.size - F)
    lower = np.max(F_left - (k - 1.0) / lam.size)
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
