"""Limiting spectral distribution of the autocovariance Toeplitz matrix.

For a linear process with spectral density f, the eigenvalue distribution of
the n x n Toeplitz matrix (gamma(i-j)) converges to a deterministic limit: an
absolutely continuous law with density

    g(lam) = (1/2*pi) * sum_{w: f(w) = lam} 1 / |f'(w)|

and distribution function Leb{w : f(w) <= lam} / (2*pi) on the range of f when
f is smooth with almost-everywhere nonvanishing derivative, and a purely atomic
law with weights |A_j| / (2*pi) when f is piecewise constant.

Density and distribution function come from the level sets of f: one
vectorised bisection finds the stationary points of f, which split [0, 2*pi]
into monotone branches, and then the root of f(w) = lam on every branch for a
whole array of levels.  A level is tangential when it equals f at a stationary
point inside the support; the density diverges there.  Quadrature against the
continuous law comes from Szegő's theorem, as a graded trapezoid rule in w
pushed forward through f.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import toeplitz as _toeplitz
from scipy.special import roots_legendre

from .linear_process import (
    ARMAModel,
    ModelSpecError,
    PiecewiseSpectralDensity,
    SpectralDensity,
    autocovariances,
    spectral_density,
)

__all__ = [
    "TangentialRootWarning",
    "LevelSet",
    "AtomicLSD",
    "AbsContinuousLSD",
    "support_bounds",
    "level_set_roots",
    "gamma_density",
    "gamma_cdf",
    "atomic_lsd",
    "gamma_lsd",
    "arma11_support",
    "arma11_gamma_density",
    "autocovariance_toeplitz",
]

TWO_PI = 2.0 * math.pi

# sign changes of f' are bracketed on GRID cells, doubled up to MAX_GRID
GRID = 4096
MAX_GRID = 2 ** 20
# a level within LEVEL_RTOL * max(1, max |f|) of f at a breakpoint equals it
LEVEL_RTOL = 1e-12
# level-set roots with |f'| below this are flagged as tangential
TANGENTIAL_TOL = 1e-8


class TangentialRootWarning(UserWarning):
    """A level equals the value of f at a stationary point: g diverges there."""


_BREAKPOINT_CACHE = weakref.WeakKeyDictionary()


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


def _stationary_points(f, n):
    """0, 2*pi and the zeros of f', located by sign changes on an n-cell grid."""
    grid = np.linspace(0.0, TWO_PI, n + 1)
    fp = np.asarray(f.derivative(grid), dtype=float)
    scale = np.max(np.abs(fp[np.isfinite(fp)]), initial=0.0)
    if scale == 0.0:
        return np.array([0.0, TWO_PI])
    sign = np.sign(fp)
    sign[np.abs(fp) < 1e-13 * scale] = 0.0
    cells = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    rise = (sign[cells] < 0.0).astype(int)
    zeros = _bisect(f.derivative, grid[cells + 1 - rise], grid[cells + rise], np.zeros(cells.size))
    points = np.sort(np.concatenate([[0.0, TWO_PI], grid[1:-1][sign[1:-1] == 0.0], zeros]))
    return points[np.concatenate([[True], np.diff(points) > 1e-10])]


def _breakpoints(f):
    """(w, f(w), atol) at the points of [0, 2*pi] between which f is monotone.

    The grid is doubled from GRID cells until the count of stationary points is
    stable (at most MAX_GRID cells).  Cached per density instance.
    """
    cached = _BREAKPOINT_CACHE.get(f)
    if cached is None:
        n, pts = GRID, _stationary_points(f, GRID)
        while 2 * n <= MAX_GRID:
            n *= 2
            pts, coarse = _stationary_points(f, n), pts
            if pts.size == coarse.size:
                break
        vals = np.asarray(f(pts), dtype=float)
        atol = LEVEL_RTOL * max(1.0, float(np.max(np.abs(vals[np.isfinite(vals)]))))
        cached = _BREAKPOINT_CACHE[f] = (pts, vals, atol)
    return cached


def support_bounds(f):
    """Range (min f, max f) of the spectral density over [0, 2*pi]."""
    vals = _breakpoints(f)[1]
    return float(np.min(vals)), float(np.max(vals))


def _is_degenerate(lo, hi):
    return hi - lo <= 1e-12 * max(1.0, abs(hi))


def _branch_roots(f, levels):
    """Roots of f(w) = level on each monotone branch of f (the last axis).

    Returns (low, high, top, roots): the branch ends where f is least and
    greatest, f at ``high``, and the root of each level on each branch whose
    open range holds it, NaN on the others.
    """
    bps, vals, _ = _breakpoints(f)
    rising = vals[1:] > vals[:-1]
    low, high = np.where(rising, bps[:-1], bps[1:]), np.where(rising, bps[1:], bps[:-1])
    top = np.maximum(vals[:-1], vals[1:])
    lam = np.asarray(levels, dtype=float)[..., None]
    inside = (np.minimum(vals[:-1], vals[1:]) < lam) & (lam < top)
    roots = np.full(inside.shape, np.nan)
    a, b, target = (np.broadcast_to(x, inside.shape)[inside] for x in (low, high, lam))
    roots[inside] = _bisect(f, a, b, target)
    return low, high, top, roots


@dataclass(frozen=True)
class LevelSet:
    """Solutions of f(w) = level on [0, 2*pi], with tangency flags."""

    level: float
    roots: np.ndarray
    tangential: np.ndarray

    @property
    def any_tangential(self):
        return bool(self.tangential.any())


def level_set_roots(f, level):
    """All w in [0, 2*pi) with f(w) = level.

    The root on each monotone branch whose open range holds the level, and
    every breakpoint (0 or a stationary point; 2*pi is 0) where f is within
    LEVEL_RTOL of it.  A root is tangential when |f'| < TANGENTIAL_TOL there:
    in practice a stationary point, which only a null set of levels reaches.
    """
    level = float(level)
    bps, vals, atol = _breakpoints(f)
    near = np.abs(vals - level) <= atol
    roots = _branch_roots(f, level)[3]
    # a branch ending at a breakpoint already listed as a root adds nothing
    roots = roots[~near[:-1] & ~near[1:] & ~np.isnan(roots)]
    roots = np.sort(np.concatenate([bps[:-1][near[:-1]], roots]))
    tangential = np.abs(np.asarray(f.derivative(roots), dtype=float)) < TANGENTIAL_TOL
    return LevelSet(level=level, roots=roots, tangential=tangential)


def _density(f, levels):
    """(1/2*pi) sum of 1/|f'| over the branch roots of each level."""
    roots = _branch_roots(f, levels)[3]
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
    support, and constant densities (whose law is atomic), raise ValueError.
    """
    lo, hi = support_bounds(f)
    if _is_degenerate(lo, hi):
        raise ValueError("constant spectral density: the limit law is atomic, not a density")
    lam = np.asarray(levels, dtype=float)
    outside = ~((lo < lam) & (lam < hi))
    if outside.any():
        raise ValueError(f"level {lam[outside][0]} outside the open support ({lo}, {hi})")
    _, vals, atol = _breakpoints(f)
    crit = vals[(lo + atol < vals) & (vals < hi - atol)]
    flagged = np.count_nonzero(np.any(np.abs(lam[..., None] - crit) <= atol, axis=-1))
    if flagged:
        msg = f"{flagged} of {lam.size} levels equal f at a stationary point: g diverges there"
        warnings.warn(msg, TangentialRootWarning, stacklevel=2)
    out = _density(f, lam)
    return float(out) if lam.ndim == 0 else out


def gamma_cdf(f, levels):
    """Distribution function of the Toeplitz limit at a level or array of levels.

    Leb({w : f(w) <= level}) / (2*pi), summed over the monotone branches:
    |root - low end| on a branch that holds the level, the whole branch on one
    below it; exactly 0 below the support and exactly 1 above it.
    """
    lo, hi = support_bounds(f)
    lam = np.asarray(levels, dtype=float)
    low, high, top, roots = _branch_roots(f, lam)
    whole = np.where(top <= lam[..., None], np.abs(high - low), 0.0)
    measure = np.where(np.isnan(roots), whole, np.abs(roots - low)).sum(axis=-1) / TWO_PI
    out = np.where(lam >= hi, 1.0, np.where(lam <= lo, 0.0, measure))
    return float(out) if lam.ndim == 0 else out


@dataclass(frozen=True)
class AtomicLSD:
    """Purely atomic Toeplitz eigenvalue limit: weight w_j at level alpha_j."""

    levels: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if levels.size != weights.size or levels.size == 0:
            raise ValueError("levels and weights must be nonempty and aligned")
        if np.any(np.diff(levels) <= 0):
            raise ValueError("levels must be strictly increasing")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be positive and sum to 1")
        levels.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "weights", weights)

    @property
    def atoms(self):
        return list(zip(self.levels.tolist(), self.weights.tolist()))

    @property
    def support(self):
        return float(self.levels[0]), float(self.levels[-1])

    def rule(self, size):
        """The atoms as (nodes, weights): a rule that is exact at every size."""
        return self.levels, self.weights


@dataclass
class AbsContinuousLSD:
    """Absolutely continuous Toeplitz eigenvalue limit with density g.

    By Szegő's theorem it is the law of f(w) with w uniform on [0, 2*pi], so
    :meth:`rule` integrates against it without level sets; :meth:`density`,
    :meth:`cdf` and :meth:`total_mass` use the level sets of f.  Rules are
    cached per instance, idempotently, so concurrent readers at worst
    duplicate work.
    """

    f: SpectralDensity
    support: tuple
    _rules: dict = field(default_factory=dict, repr=False, compare=False)

    def density(self, levels):
        """g at a level or an array of levels (see :func:`gamma_density`)."""
        return gamma_density(self.f, levels)

    def cdf(self, levels):
        """H at a level or an array of levels (see :func:`gamma_cdf`)."""
        return gamma_cdf(self.f, levels)

    def rule(self, size):
        """Szegő pushforward (nodes, weights) on a graded trapezoid grid.

        Nodes f(w_k), w_k = 2*pi*t_k - sin(2*pi*t_k), t_k = k/size for
        k = 1..size-1; weights (1 - cos(2*pi*t_k)) / size, which sum to 1; and
        the size-N grid is every other node of the 2N grid.  For analytic f the
        error falls geometrically.  The grading is flat to third order at w = 0,
        so a FARIMA cusp |w|^(2|d|) leaves an error of order N^-(3 + 6|d|).
        """
        cached = self._rules.get(size)
        if cached is None:
            u = TWO_PI * np.arange(1, size) / size
            cached = (np.asarray(self.f(u - np.sin(u)), dtype=float), (1.0 - np.cos(u)) / size)
            self._rules[size] = cached
        return cached

    def total_mass(self):
        """Quadrature of the level-set density g over the support.

        An oracle independent of :meth:`rule`.  g is smooth between consecutive
        critical values c0 < c1 of f (its values at the breakpoints), with at
        most inverse-square-root peaks at them, so each such interval gets a
        Gauss-Legendre rule under lam = c0 + (c1 - c0) sin^2(u), which removes
        the peaks, doubled until the mass is stable to 1e-10 or reaches 4097
        nodes.  No node is a tangential level, and none warns.
        """
        _, vals, atol = _breakpoints(self.f)
        crit = np.unique(vals)
        crit = crit[np.concatenate([np.diff(crit) > atol, [True]])]
        c0, width = crit[:-1, None], np.diff(crit)[:, None]
        size, prev = 65, None
        while True:
            x, w = roots_legendre(size)
            u = (x + 1.0) * (math.pi / 4.0)
            lam = c0 + width * np.sin(u) ** 2
            jac = width * np.sin(2.0 * u) * (math.pi / 4.0)
            total = float(np.sum(w * jac * _density(self.f, lam)))
            if size >= 4097 or (prev is not None and abs(total - prev) <= 1e-10):
                return total
            size, prev = 2 * size - 1, total


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
    """Limit law of the autocovariance Toeplitz matrix for a model or density.

    Piecewise-constant and degenerate (constant) densities give an AtomicLSD;
    everything else gives an AbsContinuousLSD.  FARIMA models require d < 0
    here (d > 0 breaks the summability the theory needs).
    """
    f = model if isinstance(model, SpectralDensity) else spectral_density(model)
    if isinstance(f, PiecewiseSpectralDensity):
        return atomic_lsd(f)
    if getattr(f, "_d", 0.0) > 0.0:
        raise ModelSpecError("limiting spectral distribution requires d < 0")
    lo, hi = support_bounds(f)
    if _is_degenerate(lo, hi):
        level = 0.5 * (lo + hi)
        return AtomicLSD(levels=np.array([level]), weights=np.array([1.0]))
    return AbsContinuousLSD(f=f, support=(lo, hi))


def arma11_support(phi, theta):
    """Support endpoints (1 +- theta)^2 / (1 -+ phi)^2 of the ARMA(1,1) limit law."""
    if abs(phi) >= 1.0:
        raise ValueError("|phi| < 1 required")
    lam_plus = (1.0 + theta) ** 2 / (1.0 - phi) ** 2
    lam_minus = (1.0 - theta) ** 2 / (1.0 + phi) ** 2
    return min(lam_minus, lam_plus), max(lam_minus, lam_plus)


def arma11_gamma_density(phi, theta, lam):
    """Closed-form Toeplitz limit density for ARMA(1,1); cross-check oracle.

    g(lam) = |(phi+theta)(1+phi*theta)| / (pi |theta + phi*lam|
             sqrt([(1+theta)^2 - lam (1-phi)^2] [lam (1+phi)^2 - (1-theta)^2]))
    on the open support.  Requires a nondegenerate model: (phi, theta) != (0, 0)
    and theta != -phi (those are white noise, whose limit law is atomic).
    """
    phi, theta, lam = float(phi), float(theta), float(lam)
    if abs(phi) >= 1.0:
        raise ValueError("|phi| < 1 required")
    if phi + theta == 0.0:
        raise ValueError("theta = -phi gives white noise; the limit law is atomic")
    lo, hi = arma11_support(phi, theta)
    if not (lo < lam < hi):
        raise ValueError(f"lam {lam} outside the open support ({lo}, {hi})")
    b1 = (1.0 + theta) ** 2 - lam * (1.0 - phi) ** 2
    b2 = lam * (1.0 + phi) ** 2 - (1.0 - theta) ** 2
    num = abs((phi + theta) * (1.0 + phi * theta))
    return num / (math.pi * abs(theta + phi * lam) * math.sqrt(b1 * b2))


def autocovariance_toeplitz(coeffs, size):
    """The n x n autocovariance Toeplitz matrix (gamma(i - j))."""
    if size < 1:
        raise ValueError("size must be at least 1")
    if size - 1 > coeffs.horizon:
        raise ValueError("stored expansion too short for requested matrix size")
    return _toeplitz(autocovariances(coeffs, size - 1))
