"""Limiting spectral distribution of the autocovariance Toeplitz matrix.

For a linear process with spectral density f, the eigenvalue distribution of
the n x n Toeplitz matrix (gamma(i-j)) converges to a deterministic limit: an
absolutely continuous law with density

    g(lam) = (1/2*pi) * sum_{w: f(w) = lam} 1 / |f'(w)|

and distribution function Leb{w : f(w) <= lam} / (2*pi) on the range of f when
f is smooth with almost-everywhere nonvanishing derivative, and a purely atomic
law with weights |A_j| / (2*pi) when f is piecewise constant.

The density comes from the level sets of f.  Its breakpoints (its stationary
points, and 0, pi and 2*pi), which the density computes once, split
[0, 2*pi] into monotone branches; one vectorised bisection then finds the
root of f(w) = lam on every branch for a whole array of levels.  A level is
tangential when it equals f at a stationary point inside the support; the
density diverges there.  Quadrature against the continuous law comes from
Szegő's theorem, as a graded trapezoid rule in w pushed forward through f and
folded about pi, where the even f takes each value twice.  Either law hands
the solver a :class:`Rule`: its nodes and weights, and the (T, T') sums.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linear_process import ModelSpecError, PiecewiseSpectralDensity, SpectralDensity

__all__ = [
    "TangentialRootWarning",
    "Rule",
    "AtomicLSD",
    "AbsContinuousLSD",
    "support_bounds",
    "gamma_density",
    "atomic_lsd",
    "gamma_lsd",
]

TWO_PI = 2.0 * math.pi

# a level within LEVEL_RTOL * max(1, max |f|) of f at a breakpoint equals it
LEVEL_RTOL = 1e-12

# a Rule of at most this many nodes sums in Python scalars: per evaluation on a
# 2-core x86-64 host, 2.6 us against NumPy's 3.4 us at 8 nodes, 5.7 against 2.9 at 16
SCALAR_NODES = 8


class TangentialRootWarning(UserWarning):
    """A level equals the value of f at a stationary point: g diverges there."""


def _bisect(fun, a, b, target):
    """Solve fun(w) = target on aligned 1-d arrays of monotone brackets [a, b].

    fun lies below the target at ``a`` and above it at ``b`` (so a > b on a
    falling branch), and is only called at midpoints: once per step on every
    bracket still open, until each has collapsed to adjacent floats.  Returns b.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    live = np.arange(a.size)
    while True:
        mid = 0.5 * (a[live] + b[live])
        moving = (mid != a[live]) & (mid != b[live])
        live, mid = live[moving], mid[moving]
        if live.size == 0:
            return b
        below = np.asarray(fun(mid), dtype=float) < target[live]
        a[live[below]] = mid[below]
        b[live[~below]] = mid[~below]


def _level_atol(f):
    """The absolute level tolerance: LEVEL_RTOL * max(1, max finite |f|)."""
    vals = f.breakpoint_values
    return LEVEL_RTOL * max(1.0, float(np.max(np.abs(vals[np.isfinite(vals)]))))


def support_bounds(f):
    """Range (min f, max f) of the spectral density over [0, 2*pi]."""
    return float(np.min(f.breakpoint_values)), float(np.max(f.breakpoint_values))


def _is_degenerate(lo, hi):
    return hi - lo <= 1e-12 * max(1.0, abs(hi))


def _branch_roots(f, levels):
    """Roots of f(w) = level on each monotone branch of f (the last axis).

    The root of each level on each branch whose open range holds it, NaN on
    the others.
    """
    bps, vals = f.breakpoints, f.breakpoint_values
    rising = vals[1:] > vals[:-1]
    low, high = np.where(rising, bps[:-1], bps[1:]), np.where(rising, bps[1:], bps[:-1])
    lam = np.asarray(levels, dtype=float)[..., None]
    inside = (np.minimum(vals[:-1], vals[1:]) < lam) & (lam < np.maximum(vals[:-1], vals[1:]))
    roots = np.full(inside.shape, np.nan)
    a, b, target = (np.broadcast_to(x, inside.shape)[inside] for x in (low, high, lam))
    roots[inside] = _bisect(f, a, b, target)
    return roots


def _density(f, levels):
    """(1/2*pi) sum of 1/|f'| over the branch roots of each level."""
    roots = _branch_roots(f, levels)
    inside = ~np.isnan(roots)
    terms = np.zeros(roots.shape)
    with np.errstate(divide="ignore"):
        terms[inside] = 1.0 / np.abs(np.asarray(f.derivative(roots[inside]), dtype=float))
    return terms.sum(axis=-1) / TWO_PI


def gamma_density(f, levels):
    """Density of the Toeplitz eigenvalue limit at a level or array of levels.

    (1/2*pi) times the sum of 1/|f'| over the roots on the monotone branches
    whose open range holds the level.  Levels within LEVEL_RTOL of f at a
    stationary point inside the support are tangential: g diverges there
    (integrably), the stationary point is left out of the sum, and one
    TangentialRootWarning per call counts them.  Levels outside the open
    support, densities that are not finite, and constant densities (whose law
    is atomic), raise ValueError.
    """
    lo, hi = support_bounds(f)
    if not math.isfinite(hi):
        raise ValueError(f"spectral density not finite: max f = {hi}")
    if _is_degenerate(lo, hi):
        raise ValueError("constant spectral density: the limit law is atomic, not a density")
    lam = np.asarray(levels, dtype=float)
    outside = ~((lo < lam) & (lam < hi))
    if outside.any():
        raise ValueError(f"level {lam[outside][0]} outside the open support ({lo}, {hi})")
    vals, atol = f.breakpoint_values, _level_atol(f)
    crit = vals[(lo + atol < vals) & (vals < hi - atol)]
    flagged = np.count_nonzero(np.any(np.abs(lam[..., None] - crit) <= atol, axis=-1))
    if flagged:
        msg = f"{flagged} of {lam.size} levels equal f at a stationary point: g diverges there"
        warnings.warn(msg, TangentialRootWarning, stacklevel=2)
    out = _density(f, lam)
    return float(out) if lam.ndim == 0 else out


class Rule:
    """Quadrature rule of a limit law: read-only nodes lam, weights W and mean.

    A Szegő rule holds one node per mirror pair, at the pair's weight.
    :meth:`terms` sums over mu = 1/lam, as lam / (1 + lam m) = 1 / (mu + m).
    Nodes without a finite 1/lam (lam = 0, or below about 5.6e-309) add only
    about W |lam| and are dropped; nodes negative by rounding are kept.  Up to
    SCALAR_NODES kept nodes sum in Python scalars, under NumPy's call cost.
    """

    __slots__ = ("nodes", "weights", "mean", "_mu", "_w", "_pairs")

    def __init__(self, nodes, weights):
        for arr in (nodes, weights):
            arr.setflags(write=False)
        self.nodes, self.weights = nodes, weights
        self.mean = float(weights.dot(nodes))
        with np.errstate(divide="ignore", over="ignore"):
            mu = 1.0 / nodes
        keep = np.isfinite(mu)
        mu, w = mu[keep], weights[keep]
        if mu.size <= SCALAR_NODES:
            self._pairs, self._mu, self._w = list(zip(mu.tolist(), w.tolist())), None, None
        else:
            self._pairs, self._mu, self._w = None, mu.astype(complex), w.astype(complex)

    def terms(self, m):
        """(T, T') at m in one pass: T(m) = sum W / (mu + m), T' = -sum W / (mu + m)^2.

        Reentrant: each call sums in locals, or in a complex array of its own,
        so threads can share a rule.  At a complex m, T and T' are returned as
        Python complex numbers.
        """
        if self._pairs is not None:
            t = tp = 0j
            for mu, w in self._pairs:
                r = 1.0 / (mu + m)
                t += w * r
                tp -= w * r * r
            return t, tp
        q = self._mu + m
        np.reciprocal(q, out=q)
        t = complex(q.dot(self._w))
        q *= q
        return t, -complex(q.dot(self._w))


@dataclass(frozen=True)
class AtomicLSD:
    """Purely atomic Toeplitz eigenvalue limit: weight w_j at level alpha_j.

    Levels are finite, positive and strictly increasing, like piecewise-constant
    spectral levels; weights are finite, positive and sum to 1 within 1e-9.
    """

    levels: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        levels = np.array(self.levels, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if levels.size != weights.size or levels.size == 0:
            raise ValueError("levels and weights must be nonempty and aligned")
        # NaN fails every comparison, so these forms refuse it
        if not (levels[0] > 0.0 and np.all(np.diff(levels) > 0) and math.isfinite(levels[-1])):
            raise ValueError("levels must be finite, positive and strictly increasing")
        if not (np.all(weights > 0) and abs(weights.sum() - 1.0) <= 1e-9):
            raise ValueError("weights must be finite, positive and sum to 1")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_rule", Rule(levels, weights))

    def rule(self, size):
        """The atoms as a :class:`Rule`, exact at every size: one object for all."""
        return self._rule


@dataclass
class AbsContinuousLSD:
    """Absolutely continuous Toeplitz eigenvalue limit with density g.

    By Szegő's theorem it is the law of f(w) with w uniform on [0, 2*pi], so
    :meth:`rule` integrates against it without level sets; :func:`gamma_density`
    gives g from the level sets of f.  One :class:`Rule` is cached per size,
    idempotently, so concurrent readers at worst duplicate work.
    """

    f: SpectralDensity
    _rules: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.f, SpectralDensity):
            raise TypeError("AbsContinuousLSD expects a SpectralDensity, which is even about pi")

    def rule(self, size):
        """Szegő pushforward :class:`Rule` on a graded trapezoid grid, folded.

        The grid is w_k = 2*pi*t_k - sin(2*pi*t_k), t_k = k/size, k = 1..size-1,
        weights (1 - cos(2*pi*t_k)) / size, which sum to 1.  Node size-k is the
        mirror 2*pi - w_k of node k, at the same weight, and f is even about pi
        (a cosine series times (2 - 2 cos w)^(-d)), so the rule keeps f(w_k),
        k = 1..size//2, at twice the weight, but once at w = pi (even size, its
        own mirror).  The size-N nodes are every other 2N node.  For analytic f
        the error falls geometrically.  The grading is flat to third order at
        w = 0, so a FARIMA cusp |w|^(2|d|) leaves an error of order N^-(3 + 6|d|).
        """
        cached = self._rules.get(size)
        if cached is None:
            u = TWO_PI * np.arange(1, size // 2 + 1) / size
            weights = (1.0 - np.cos(u)) / size
            weights[: (size - 1) // 2] *= 2.0
            nodes = np.asarray(self.f(u - np.sin(u)), dtype=float)
            cached = self._rules[size] = Rule(nodes, weights)
        return cached


def atomic_lsd(density):
    """Atomic limit law of a piecewise-constant spectral density.

    Equal levels are merged; weights are interval lengths over the total, with
    the largest weight absorbing the (at most one ulp) float closure so the
    weights sum to exactly 1.
    """
    if not isinstance(density, PiecewiseSpectralDensity):
        raise TypeError("atomic_lsd expects a PiecewiseSpectralDensity")
    lengths = {}
    for lo, hi, alpha in density.pieces:
        lengths[alpha] = lengths.get(alpha, 0.0) + (hi - lo)
    levels = np.array(sorted(lengths))
    weights = np.array([lengths[a] for a in levels])
    weights = weights / weights.sum()
    deficit = 1.0 - weights.sum()
    if deficit != 0.0:
        weights[np.argmax(weights)] += deficit
    return AtomicLSD(levels=levels, weights=weights)


def gamma_lsd(model):
    """Limit law of the autocovariance Toeplitz matrix of a model.

    A PiecewiseSpectralDensity gives an AtomicLSD; an ARMAModel gives an
    AbsContinuousLSD of its SpectralDensity f, or one atom when f is constant.
    d > 0 (long memory) breaks the summability the theory needs, (max f)^2 must
    be finite, and min f must not be negative beyond rounding (|phi|^2 rounds
    to <= 0 at an AR root within about 1e-7 of the unit circle); each raises
    ModelSpecError otherwise.
    """
    if isinstance(model, PiecewiseSpectralDensity):
        return atomic_lsd(model)
    f = SpectralDensity(model)
    if f.d > 0.0:
        raise ModelSpecError("limiting spectral distribution requires d < 0")
    lo, hi = support_bounds(f)
    if not math.isfinite(hi * hi):
        raise ModelSpecError(f"spectral density too large: (max f)^2 overflows at max f = {hi:.3g}")
    if lo < -LEVEL_RTOL * max(1.0, hi):
        raise ModelSpecError(f"spectral density negative: min f = {lo:.3g}, from |phi|^2 rounding to <= 0")
    if _is_degenerate(lo, hi):
        level = 0.5 * (lo + hi)
        return AtomicLSD(levels=np.array([level]), weights=np.array([1.0]))
    return AbsContinuousLSD(f=f)

