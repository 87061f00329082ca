"""Limiting spectral distribution of the autocovariance Toeplitz matrix.

For a linear process with spectral density f, the eigenvalue distribution of
the n x n Toeplitz matrix (gamma(i-j)) converges to a deterministic limit: an
absolutely continuous law with density

    g(lam) = (1/2*pi) * sum_{w: f(w) = lam} 1 / |f'(w)|

on the range of f when f is smooth with almost-everywhere nonvanishing
derivative, and a purely atomic law with weights |A_j| / (2*pi) when f is
piecewise constant.  Density and distribution function come from level-set
analysis; quadrature against the continuous law comes from Szegő's theorem, as
a graded trapezoid rule in w pushed forward through f.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import toeplitz as _toeplitz
from scipy.optimize import bisect as _bisect
from scipy.optimize import brentq as _brentq

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

# levels whose level set contains a root with |f'| below this are a null set;
# the density is flagged rather than trusted there
TANGENTIAL_TOL = 1e-8


class TangentialRootWarning(UserWarning):
    """A level-set root has (numerically) vanishing derivative."""


_BREAKPOINT_CACHE = weakref.WeakKeyDictionary()


def _scalar_fun(f):
    return lambda w: float(f(w))


def _scalar_deriv(f):
    return lambda w: float(f.derivative(w))


def _stationary_points(f, n):
    """Zeros of f' on [0, 2*pi] located by sign changes on an n-cell grid."""
    grid = np.linspace(0.0, TWO_PI, n + 1)
    fp = np.asarray(f.derivative(grid), dtype=float)
    finite = np.isfinite(fp)
    scale = float(np.max(np.abs(fp[finite]))) if finite.any() else 0.0
    if scale == 0.0:
        return np.array([0.0, TWO_PI])
    sign = np.sign(fp)
    sign[np.abs(fp) < 1e-13 * scale] = 0.0
    points = [0.0, TWO_PI]
    points.extend(grid[1:-1][sign[1:-1] == 0.0])
    deriv = _scalar_deriv(f)
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
        a, b = grid[i], grid[i + 1]
        fa, fb = fp[i], fp[i + 1]
        span = b - a
        # FARIMA derivatives diverge at the ends; step inward before bracketing
        if not np.isfinite(fa):
            a += 1e-12 * span
            fa = deriv(a)
        if not np.isfinite(fb):
            b -= 1e-12 * span
            fb = deriv(b)
        if np.isfinite(fa) and np.isfinite(fb) and fa * fb < 0.0:
            points.append(_brentq(deriv, a, b, xtol=1e-13))
    points = np.array(sorted(points))
    keep = np.concatenate([[True], np.diff(points) > 1e-10])
    return points[keep]


def _monotone_breakpoints(f, n_grid=4096, max_grid=2 ** 20):
    """Partition points of [0, 2*pi] between which f is monotone.

    The stationary points of f' are bracketed on a grid that is doubled until
    the count stabilizes across two refinements (capped at ``max_grid``).
    Results are cached per density instance.
    """
    cached = _BREAKPOINT_CACHE.get(f)
    if cached is not None and cached[0] >= n_grid:
        return cached[1]
    n = max(int(n_grid), 16)
    pts = _stationary_points(f, n)
    while 2 * n <= max_grid:
        finer = _stationary_points(f, 2 * n)
        n *= 2
        if finer.size == pts.size:
            pts = finer
            break
        pts = finer
    _BREAKPOINT_CACHE[f] = (n, pts)
    return pts


def support_bounds(f, n_grid=4096):
    """Range (min f, max f) of the spectral density over [0, 2*pi]."""
    bps = _monotone_breakpoints(f, n_grid)
    vals = np.asarray(f(bps), dtype=float)
    return float(np.min(vals)), float(np.max(vals))


def _is_degenerate(lo, hi):
    return hi - lo <= 1e-12 * max(1.0, abs(hi))


@dataclass(frozen=True)
class LevelSet:
    """Solutions of f(w) = level on [0, 2*pi], with tangency flags."""

    level: float
    roots: np.ndarray
    tangential: np.ndarray

    @property
    def any_tangential(self):
        return bool(self.tangential.any())


def level_set_roots(f, level, n_grid=4096, xtol=1e-12, tangential_tol=TANGENTIAL_TOL):
    """All w in [0, 2*pi] with f(w) = level.

    Each monotone piece of f is bracketed exactly and refined by bisection to
    |dw| <= xtol.  Roots where |f'| < tangential_tol are flagged (not dropped);
    they occur only at a null set of levels.  The endpoints 0 and 2*pi are
    identified and reported once, at 0.
    """
    level = float(level)
    bps = _monotone_breakpoints(f, n_grid)
    vals = np.asarray(f(bps), dtype=float)
    finite = vals[np.isfinite(vals)]
    scale = max(1.0, float(np.max(np.abs(finite))) if finite.size else 1.0, abs(level))
    atol = 1e-12 * scale
    fun = _scalar_fun(f)
    g = lambda w: fun(w) - level

    roots = list(bps[np.abs(vals - level) <= atol])
    for i in range(bps.size - 1):
        v0, v1 = vals[i] - level, vals[i + 1] - level
        if abs(v0) <= atol or abs(v1) <= atol:
            continue
        if not (np.isfinite(v0) and np.isfinite(v1)):
            a, b = bps[i], bps[i + 1]
            span = b - a
            if not np.isfinite(v0):
                a += 1e-12 * span
                v0 = g(a)
            if not np.isfinite(v1):
                b -= 1e-12 * span
                v1 = g(b)
            if v0 * v1 < 0.0:
                roots.append(_bisect(g, a, b, xtol=xtol))
            continue
        if v0 * v1 < 0.0:
            roots.append(_bisect(g, bps[i], bps[i + 1], xtol=xtol))

    roots = np.array(sorted(roots))
    if roots.size:
        keep = np.concatenate([[True], np.diff(roots) > 1e-9])
        roots = roots[keep]
        if roots.size > 1 and roots[0] <= 1e-9 and TWO_PI - roots[-1] <= 1e-9:
            roots = roots[:-1]
        elif roots.size == 1 and TWO_PI - roots[-1] <= 1e-9:
            roots = np.array([0.0])
    derivs = np.asarray(f.derivative(roots), dtype=float) if roots.size else np.array([])
    tangential = np.where(np.isfinite(derivs), np.abs(derivs) < tangential_tol, False)
    return LevelSet(level=level, roots=roots, tangential=tangential)


def gamma_density(f, level, n_grid=4096):
    """Density of the Toeplitz eigenvalue limit at an interior level.

    Returns (1/2*pi) sum 1/|f'(w)| over the level set.  Tangential roots are
    excluded from the sum and reported through a TangentialRootWarning: at such
    levels the density diverges (integrably, at band edges).  Degenerate
    (constant) densities are rejected; their limit law is atomic.
    """
    lo, hi = support_bounds(f, n_grid)
    if _is_degenerate(lo, hi):
        raise ValueError("constant spectral density: the limit law is atomic, not a density")
    level = float(level)
    if not (lo < level < hi):
        raise ValueError(f"level {level} outside the open support ({lo}, {hi})")
    ls = level_set_roots(f, level, n_grid)
    if ls.any_tangential:
        warnings.warn(
            f"level {level} has a tangential level-set root; density diverges there",
            TangentialRootWarning,
            stacklevel=2,
        )
    regular = ls.roots[~ls.tangential]
    if regular.size == 0:
        return math.inf
    derivs = np.abs(np.asarray(f.derivative(regular), dtype=float))
    return float(np.sum(1.0 / derivs) / TWO_PI)


def gamma_cdf(f, level, n_grid=4096):
    """Distribution function of the Toeplitz eigenvalue limit.

    Computes Leb({w : f(w) <= level}) / (2*pi) from the level-set roots;
    exactly 0 below the support and exactly 1 above it.
    """
    level = float(level)
    lo, hi = support_bounds(f, n_grid)
    if level >= hi:
        return 1.0
    if level <= lo:
        return 0.0
    ls = level_set_roots(f, level, n_grid)
    cuts = np.unique(np.concatenate([[0.0, TWO_PI], ls.roots]))
    fun = _scalar_fun(f)
    measure = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if fun(0.5 * (a + b)) <= level:
            measure += b - a
    return measure / TWO_PI


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
    n_grid: int = 4096
    _rules: dict = field(default_factory=dict, repr=False, compare=False)

    def density(self, levels):
        """g evaluated pointwise (vectorized over a 1-d array of levels)."""
        arr = np.asarray(levels, dtype=float)
        if arr.ndim == 0:
            return gamma_density(self.f, float(arr), self.n_grid)
        return np.array([gamma_density(self.f, lam, self.n_grid) for lam in arr])

    def cdf(self, level):
        return gamma_cdf(self.f, level, self.n_grid)

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

        An oracle independent of :meth:`rule`: Gauss-Legendre under
        lam = lo + (hi - lo) sin^2(u), which removes the band-edge singularities,
        doubled until the mass is stable to 1e-10 or reaches 4097 nodes.
        """
        lo, hi = self.support
        size, prev = 257, None
        while True:
            x, w = np.polynomial.legendre.leggauss(size)
            u = (x + 1.0) * (math.pi / 4.0)
            lam = lo + (hi - lo) * np.sin(u) ** 2
            jac = (hi - lo) * np.sin(2.0 * u) * (math.pi / 4.0)
            total = float(np.sum(w * jac * self.density(lam)))
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


def gamma_lsd(model, n_grid=4096):
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
    lo, hi = support_bounds(f, n_grid)
    if _is_degenerate(lo, hi):
        level = 0.5 * (lo + hi)
        return AtomicLSD(levels=np.array([level]), weights=np.array([1.0]))
    return AbsContinuousLSD(f=f, support=(lo, hi), n_grid=n_grid)


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
