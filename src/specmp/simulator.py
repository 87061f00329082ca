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

Rows are simulated on the calling thread in blocks of contiguous rows (see
``simulate_matrix``).  Replicate r draws one stream,
default_rng(SeedSequence(seed, spawn_key=(r,))), cut into consecutive rows of
n + K draws, so the matrix does not depend on the block size.

p^{-1} X X^T has rank at most min(p, n) (min(p, n - 1) after centring), so
when that bound is below p the smaller Gram matrix X^T X / p is eigensolved
and the structural null eigenvalues are reported as exact zeros: p - n of
them, or p - n + 1 when centred.  They are the atom of mass 1 - y at zero in
the limit law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linear_process import ARMAModel, _integer, _real, ma_coefficients

__all__ = [
    "INNOVATION_LAWS",
    "SimulationPlan",
    "EmpiricalSpectrum",
    "simulate_matrix",
    "sample_cov_eigenvalues",
    "ks_distance",
]

INNOVATION_LAWS = ("normal", "rademacher", "uniform")

_SQRT3 = math.sqrt(3.0)

# rows are simulated in blocks of about this many samples.  A block in flight
# holds about 3x its bytes (draws, spectrum, filtered rows): simulate_matrix
# of ARMA(1,1) at p = 1000, y = 3 peaked at 61 MB RSS with 2^16-sample blocks,
# 67 MB with 2^18 and 91 MB with 2^20, for no measurable change in its time.
# A simulate-and-eigensolve cycle's traced peak (tracemalloc, ARMA(1,1) at
# p = 1000, y = 3) is at the Gram matrix: 32.0 MB, with X and X X^T alive
# together, against 8.0 MB inside the eigensolve
_BLOCK_SAMPLES = 1 << 16
# u^2, u = 2^-53: a kernel tail with at most this share of the energy is cut
_TAIL_ENERGY = 2.0**-106

# eigenvalues of the (PSD up to roundoff) sample covariance below this are an
# eigensolver failure rather than roundoff
_EIG_CLAMP = -1e-9


@dataclass(frozen=True)
class SimulationPlan:
    """One simulation configuration; n = round(y * p) columns.

    ``model`` is an ARMAModel, FARIMA when d != 0.  Innovations have mean 0,
    unit variance and finite fourth moment under all three laws.  ``mu``
    shifts every entry; ``center``, a boolean, subtracts the empirical column
    mean before forming the covariance; ``p``, ``seed`` and ``replicates`` are
    integers and ``y`` and ``mu`` reals, not booleans or text, each kept as
    given.  Each replicate draws the one stream of the module docstring, so
    results are deterministic given (seed, replicate).
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
        if not isinstance(self.model, ARMAModel):
            raise ValueError("plan model must be an ARMAModel")
        for name, least in (("p", 1), ("seed", 0), ("replicates", 1)):
            _integer(getattr(self, name), name, least)
        if not isinstance(self.center, (bool, np.bool_)):
            raise ValueError("center must be a boolean")
        _real(self.y, "aspect ratio y", positive=True)
        _real(self.mu, "mu")
        if self.law not in INNOVATION_LAWS:
            raise ValueError(f"law must be one of {INNOVATION_LAWS}")
        if self.n < 1:
            raise ValueError("y * p rounds below one column")
        if self.p * self.n > np.iinfo(np.intp).max:
            raise ValueError("p * n exceeds the largest array NumPy can index")

    @property
    def n(self):
        return int(round(self.y * self.p))


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Sorted eigenvalues of one simulated p^{-1} X X^T realization.

    ``trace`` is tr(X X^T) / p of the (centred) X the eigenvalues came from,
    as ``sample_cov_eigenvalues`` measured it; None when the spectrum was
    built from eigenvalues alone.  It holds at least one eigenvalue, all finite.
    """

    eigenvalues: np.ndarray
    trace: float | None = None

    def __post_init__(self):
        vals = np.sort(np.asarray(self.eigenvalues, dtype=float))
        if not (vals.size and np.isfinite(vals).all()):
            raise ValueError("a spectrum needs at least one eigenvalue, and every eigenvalue finite")
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def p(self):
        return self.eigenvalues.size


def _draw(rng, law, out):
    # fills ``out`` with standard_normal, sign(random - 1/2) or
    # uniform(-sqrt 3, sqrt 3) draws; random() is k / 2^53, below 1/2 exactly
    # when k < 2^52, so both signs have probability 1/2
    if law == "normal":
        rng.standard_normal(out=out)
    elif law == "rademacher":
        rng.random(out=out)
        out -= 0.5
        np.copysign(1.0, out, out=out)
    else:
        rng.random(out=out)
        out *= 2.0 * _SQRT3
        out -= _SQRT3


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


def simulate_matrix(plan, replicate=0):
    """One p x n realization with linear-process rows.

    Column t of row i is sum_{j<=K} c_j Z_{i,t-j}, the model's MA(infinity)
    expansion cut at lag K (see the module docstring).  Row i takes draws
    i L to (i + 1) L - 1 of the replicate's stream
    ``default_rng(SeedSequence(plan.seed, spawn_key=(replicate,)))`` as its
    L = n + K innovations and is convolved with c_0..c_K by one circular FFT
    of length N >= L, the smallest 2^a 3^b 5^c; the kept columns K..L-1 never
    wrap.  White noise has K = 0 and no FFT.  Those columns plus mu are
    returned as a fresh array.

    Everything runs on the calling thread.  The kernel comes from one
    ``ma_coefficients`` call.  Rows are drawn, filtered and written into the
    p x n result in contiguous blocks of about ``_BLOCK_SAMPLES`` samples,
    each block filled by one call on the stream; the p x L innovation and
    filtered arrays are never built.  Every row keeps its own draws and its
    own arithmetic, so the result is deterministic given (seed, replicate)
    and does not depend on the block size.  ``replicate`` is a nonnegative
    integer, not a boolean.  A simulation loads NumPy only.
    """
    replicate = _integer(replicate, "replicate")
    p, n = plan.p, plan.n
    c = _truncated_kernel(plan.model, n)
    K = c.size - 1
    L = n + K
    N = _fft_length(L)
    kernel = np.fft.rfft(c, N) if K else None
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(replicate,)))
    X = np.empty((p, n))
    step = max(1, _BLOCK_SAMPLES // L)
    for lo in range(0, p, step):
        hi = min(lo + step, p)
        W = np.empty((hi - lo, L))
        _draw(rng, plan.law, W)
        if kernel is not None:
            W = np.fft.irfft(np.fft.rfft(W, N, axis=1) * kernel, N, axis=1)
        np.add(W[:, K:L], plan.mu, out=X[lo:hi])
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
    lower is surfaced as an eigensolver failure.  A Gram matrix, or a column
    mean, that overflows is refused with ArithmeticError before the eigensolve.

    The result's ``trace`` sums the diagonal of X X^T / p (finite wherever the
    Gram matrix is) of the (centred) X before the Helmert step, so a caller
    can check it against the eigenvalue sum.  X is released once its Gram
    matrix is formed: when the caller passes the only reference, as in
    ``sample_cov_eigenvalues(simulate_matrix(plan))`` on CPython 3.11 or later,
    the p x n matrix is freed before the eigensolver copies the Gram matrix.
    """
    X = np.ascontiguousarray(X, dtype=float)
    p = X.shape[0]
    # an overflow, in the column mean or the Gram matrix, shows on the diagonal, whose sums of squares
    # bound every entry (Cauchy-Schwarz), and not reliably in the floating-point flags, which a
    # threaded BLAS sets on its own threads
    with np.errstate(over="ignore", invalid="ignore"):
        if center:
            X = X - X.mean(axis=1, keepdims=True)
        trace = float((np.einsum("ij,ij->i", X, X) / p).sum())
        if center:
            X = _helmert(X)
        m = X.shape[1]
        S = X.T @ X if m < p else X @ X.T
    del X
    if not np.isfinite(S.diagonal()).all():
        raise ArithmeticError(f"the Gram matrix of p={p} rows overflows: a sum of squares is not finite")
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
    return EmpiricalSpectrum(vals, trace)


def ks_distance(spectrum, cdf):
    """Kolmogorov-Smirnov distance between the ESD and a CDF callable.

    The supremum is attained at eigenvalue jump points; both one-sided gaps
    are examined: the ESD after each jump against F there, and the ESD before
    it against F's left limit, taken one ulp below, so that an atom of F (the
    mass 1 - y at zero when y < 1) meets the jump that matches it.  A CDF
    that is not finite there is refused with ValueError.
    """
    lam = spectrum.eigenvalues
    F = np.asarray(cdf(lam), dtype=float)
    F_left = np.asarray(cdf(np.nextafter(lam, -np.inf)), dtype=float)
    if not (np.isfinite(F).all() and np.isfinite(F_left).all()):
        raise ValueError("the CDF must be finite at the eigenvalues and one ulp below them")
    k = np.arange(1, lam.size + 1, dtype=float)
    upper = np.max(k / lam.size - F)
    lower = np.max(F_left - (k - 1.0) / lam.size)
    return float(max(upper, lower))
