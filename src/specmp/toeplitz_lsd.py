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
density diverges there.  Integrals against the continuous law of a FARIMA
model (d != 0), or of an ARMA model with K = max(p, q) >= 3, come from Szegő's
theorem, as a graded trapezoid rule in w pushed forward through f and folded
about pi, where the even f takes each value twice.  An ARMA model with K <= 2
has an exact law instead: with s = 2 cos w, f is a ratio of polynomials of
degree K in s, and the integrals follow from the K roots of one of them.

Every law hands the solver a rule at each size N: an object with the (T, T')
evaluator ``terms``, the imaginary part of the log potential ``potential``,
the ``mean`` level and the ``top`` of the support.  The atoms and the Szegő
rules are a :class:`Rule` of nodes and weights; the exact law is its own rule.
A law whose rule is one object at every size is exact, and its ``kind``
("atoms", "szego" or "exact") names it in reports.
"""

from __future__ import annotations

import cmath
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
    "ExactARMALSD",
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
    whose open range holds the level.  Levels within ``_level_atol(f)`` of f
    at a stationary point inside the support are tangential: g diverges there
    (integrably), the stationary point is left out of the sum, and one
    TangentialRootWarning per call counts them.  Levels outside the open
    support, densities that are not finite, and densities constant to within
    that tolerance (whose law is atomic), raise ValueError.
    """
    lo, hi = support_bounds(f)
    if not math.isfinite(hi):
        raise ValueError(f"spectral density not finite: max f = {hi}")
    vals, atol = f.breakpoint_values, _level_atol(f)
    if hi - lo <= atol:
        raise ValueError("constant spectral density: the limit law is atomic, not a density")
    lam = np.asarray(levels, dtype=float)
    outside = ~((lo < lam) & (lam < hi))
    if outside.any():
        raise ValueError(f"level {lam[outside][0]} outside the open support ({lo}, {hi})")
    crit = vals[(lo + atol < vals) & (vals < hi - atol)]
    flagged = np.count_nonzero(np.any(np.abs(lam[..., None] - crit) <= atol, axis=-1))
    if flagged:
        msg = f"{flagged} of {lam.size} levels equal f at a stationary point: g diverges there"
        warnings.warn(msg, TangentialRootWarning, stacklevel=2)
    out = _density(f, lam)
    return float(out) if lam.ndim == 0 else out


class Rule:
    """Quadrature rule of a limit law: read-only nodes lam, weights W, mean and top (max lam).

    A Szegő rule holds one node per mirror pair, at the pair's weight.
    :meth:`terms` sums over mu = 1/lam, as lam / (1 + lam m) = 1 / (mu + m).
    Nodes without a finite 1/lam (lam = 0, or below about 5.6e-309) add only
    about W |lam| and are dropped; nodes negative by rounding are kept.  Up to
    SCALAR_NODES kept nodes sum in Python scalars, under NumPy's call cost.
    """

    __slots__ = ("nodes", "weights", "mean", "top", "_mu", "_w", "_pairs")

    def __init__(self, nodes, weights):
        for arr in (nodes, weights):
            arr.setflags(write=False)
        self.nodes, self.weights = nodes, weights
        self.mean = float(weights.dot(nodes))
        self.top = float(nodes.max())
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

    def potential(self, m):
        """Im of the log potential, the integral of log(1 + lam m): sum W arg(1 + lam m)."""
        return float(np.arctan2(self.nodes * m.imag, 1.0 + self.nodes * m.real).dot(self.weights))


@dataclass(frozen=True)
class AtomicLSD:
    """Purely atomic Toeplitz eigenvalue limit: weight w_j at level alpha_j.

    Levels are finite, positive and strictly increasing, like piecewise-constant
    spectral levels; weights are finite, positive and sum to 1 within 1e-9.
    """

    levels: np.ndarray
    weights: np.ndarray
    kind = "atoms"

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
    kind = "szego"

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


def _cosine_poly(r):
    """r_0 + 2 sum_h r_h cos(h w) as a polynomial in s = 2 cos w, lowest power first.

    It is the Chebyshev series r_0 + sum_h 2 r_h T_h(x) at x = s/2.  A top
    coefficient that moves the polynomial on [-2, 2] by no more than its
    rounding (zero, or 1e-172 from an AR coefficient of that size) is dropped,
    so the length is the degree plus one, and a root of E never sits near
    infinity for want of a coefficient.
    """
    x = np.polynomial.chebyshev.cheb2poly(np.concatenate((r[:1], 2.0 * r[1:])))
    noise = np.finfo(float).eps * np.abs(x).sum()
    while x.size > 1 and abs(x[-1]) <= noise:
        x = x[:-1]
    return x / 2.0 ** np.arange(x.size)


def _exact_coeffs(f):
    """A and B (``_cosine_poly``) padded to K + 1 terms where the exact law solves f (d = 0, K = 1 or 2), else None."""
    A, B = _cosine_poly(f.ar_acov), _cosine_poly(f.ma_acov)
    k = max(A.size, B.size)
    return [tuple(np.pad(c, (0, k - c.size)).tolist()) for c in (A, B)] if f.d == 0.0 and 2 <= k <= 3 else None


def _off_axis(m):
    # T is analytic where E = A + m B loses its degree or has a double root; only
    # the root form is singular there, so it is evaluated an ulp above the axis
    return complex(m.real, m.imag + 2.0**-52 * max(1.0, abs(m)))


def _small_root(s):
    """The root inside the unit disk of zeta^2 - s zeta + 1, for s off [-2, 2]."""
    w = cmath.sqrt((s - 2.0) * (s + 2.0))
    return 2.0 / (s + w if (s.conjugate() * w).real >= 0.0 else s - w)


def _g(zeta):
    """(g, dg/ds) at s = zeta + 1/zeta for g(s) = (1/2 pi) int dw / (2 cos w - s) = zeta / (zeta^2 - 1)."""
    z2 = zeta * zeta
    q = z2 - 1.0
    return zeta / q, -z2 * (z2 + 1.0) / (q * q * q)


def _h(zeta):
    """(h, dh/ds) for h = g + 1/s = 2 zeta^3 / (zeta^4 - 1), which falls like -2/s^3 as s grows."""
    z2 = zeta * zeta
    q = z2 * z2 - 1.0
    return 2.0 * zeta * z2 / q, -2.0 * z2 * z2 * (z2 * z2 + 3.0) / (q * q * (z2 - 1.0))


def _g_dd(z1, z2):
    """The divided difference (g(s1) - g(s2)) / (s1 - s2), free of cancellation as s2 -> s1."""
    p = z1 * z2
    return -(1.0 + p) * p / ((z1 * z1 - 1.0) * (z2 * z2 - 1.0) * (p - 1.0))


def _h_dd(z1, z2):
    """The divided difference (h(s1) - h(s2)) / (s1 - s2), free of cancellation as s2 -> s1."""
    p, q1, q2 = z1 * z2, z1 * z1, z2 * z2
    return -2.0 * (p * p * p + q1 + p + q2) * p / ((q1 * q1 - 1.0) * (q2 * q2 - 1.0) * (p - 1.0))


class ExactARMALSD:
    """Toeplitz eigenvalue limit of an ARMA model with K = max(p, q) <= 2, in closed form.

    With s = 2 cos w, |phi|^2 = A(s) and |theta|^2 = B(s) are polynomials of
    degree at most K (``_cosine_poly``), so T(m) = (1/2 pi) int B / E dw with
    E = A + m B needs only the K roots s_j of E.  In partial fractions
    B/E = c_inf + sum_j c_j / (s - s_j), c_j = B(s_j) / E'(s_j), and the mean
    of 1 / (s - s_j) over w is g(s_j) (``_g``), so T = c_inf + sum_j c_j g(s_j).
    T' follows from ds_j/dm = -c_j, dc_j/dm = c_j (c_j E'' - 2 B'(s_j)) / E'(s_j)
    and dc_inf/dm = -c_inf^2.  Two forms keep T accurate:

    - a root far from [-2, 2] takes h = g + 1/s (``_h``) and hands
      -c_j / s_j to c_inf, which becomes the value at s = 0 of B/E less the
      other roots' fractions; so c_inf does not cancel against c_j g(s_j)
      where E's leading coefficient is small and s_j runs off to infinity
      (``_terms1`` and ``_terms2`` say how far is far);
    - two roots of one form sum as the divided difference of B g (or B h),
      which stays accurate at a near double root.

    The log potential, the mean of log(1 + m f) = log E - log A, is
    log lead(E) + sum_j log(-1/zeta_j) up to a real constant and 2 pi i k, so
    its imaginary part needs only E's roots.  The law is its own exact rule:
    :meth:`rule` hands it out at every size, with ``terms``, ``potential``,
    ``mean`` and ``top`` (max f).  It holds its spectral density as ``f``.
    """

    kind = "exact"

    def __init__(self, f):
        coeffs = _exact_coeffs(f)
        if coeffs is None:
            raise ValueError("the exact law needs d = 0 and 1 <= max(p, q) <= 2")
        self.f, (self._a, self._b) = f, coeffs
        if len(self._a) == 2:
            self._k1 = (*self._a, *self._b, self._a[1] * self._b[0] - self._a[0] * self._b[1])
        self.terms = self._terms1 if len(self._a) == 2 else self._terms2
        self.top = support_bounds(f)[1]
        self.mean = self.terms(0.0)[0].real

    def rule(self, size):
        """The law itself, an exact rule at every size."""
        return self

    def _roots(self, m):
        """(E's coefficients e_0..e_K, E's roots (s_j, zeta_j), least |s| first).

        Where E loses its degree or has a double root, m moves off the axis (``_off_axis``).
        """
        e = [a + m * b for a, b in zip(self._a, self._b)]
        if len(e) == 2:
            if e[1] == 0.0:
                return self._roots(_off_axis(m))
            roots = (-e[0] / e[1],)
        else:
            e0, e1, e2 = e
            w = cmath.sqrt(e1 * e1 - 4.0 * e2 * e0)
            if e2 == 0.0 or w == 0.0:
                return self._roots(_off_axis(m))
            q = -0.5 * (e1 + w if (e1.conjugate() * w).real >= 0.0 else e1 - w)
            roots = (e0 / q, q / e2)
        return e, [(s, _small_root(s)) for s in roots]

    def _terms1(self, m):
        """(T, T') at m for K = 1, written out, as it runs once a sweep.

        E = e0 + e1 s has its root at s = -e0/e1, so zeta is the small root of
        e1 zeta^2 + e0 zeta + e1, and c = B(s)/e1 = (a1 b0 - a0 b1)/e1^2; neither
        needs s.  |zeta| < 1/2 puts |s| above 3/2, where the root takes h.
        """
        a0, a1, b0, b1, kappa = self._k1
        e0, e1 = a0 + m * b0, a1 + m * b1
        if e1 == 0.0:
            return self._terms1(_off_axis(m))
        u = 1.0 / e1
        c = kappa * u * u
        w = cmath.sqrt((e0 - 2.0 * e1) * (e0 + 2.0 * e1))
        zeta = -2.0 * e1 / (e0 + w if (e0.conjugate() * w).real >= 0.0 else e0 - w)
        z2 = zeta * zeta
        if abs(z2) < 0.25:
            d, z4 = b0 / e0, z2 * z2
            q = z4 - 1.0
            k, kp = 2.0 * zeta * z2 / q, -2.0 * z4 * (z4 + 3.0) / (q * q * (z2 - 1.0))
        else:
            d, q = b1 * u, z2 - 1.0
            k, kp = zeta / q, -z2 * (z2 + 1.0) / (q * q * q)
        return d + c * k, -d * d - c * (2.0 * b1 * u * k + c * kp)

    def _terms2(self, m):
        """(T, T') at m for K = 2, from the roots s1, s2 of E, |s1| <= |s2|.

        Both roots take h when |s1| > 2, and only s2 when |s1| <= 2 < 4 < |s2|,
        which keeps the two forms' roots apart.
        """
        (e0, e1, e2), ((s1, z1), (s2, z2)) = self._roots(m)
        b0, b1, b2 = self._b
        B1, B2 = b0 + s1 * (b1 + s1 * b2), b0 + s2 * (b1 + s2 * b2)
        E1 = e2 * (s1 - s2)  # E'(s1) = -E'(s2)
        c1, c2 = B1 / E1, -B2 / E1
        cp1 = 2.0 * c1 * (e2 * c1 - b1 - 2.0 * b2 * s1) / E1
        cp2 = -2.0 * c2 * (e2 * c2 - b1 - 2.0 * b2 * s2) / E1
        if abs(s1) > 2.0:
            (k1, kp1), (k2, kp2) = _h(z1), _h(z2)
            d = b0 / e0
            t, dp = d + (B1 * _h_dd(z1, z2) + (b1 + b2 * (s1 + s2)) * k2) / e2, -d * d
        elif abs(s2) > 4.0:
            # c_inf - c2 / s2, and its slope, with the far root's cancellation done by hand
            (k1, kp1), (k2, kp2) = _g(z1), _h(z2)
            d = (b2 * s1 + b1 + b0 / s2) / E1
            dp = -(b2 * c1 - b0 * c2 / (s2 * s2) + d * (2.0 * b2 * s1 + b1 + 2.0 * B1 / (s2 - s1))) / E1
            t = d + c1 * k1 + c2 * k2
        else:
            (k1, kp1), (k2, kp2) = _g(z1), _g(z2)
            d = b2 / e2
            t, dp = d + (B1 * _g_dd(z1, z2) + (b1 + b2 * (s1 + s2)) * k2) / e2, -d * d
        return t, dp + cp1 * k1 + cp2 * k2 - c1 * c1 * kp1 - c2 * c2 * kp2

    def potential(self, m):
        """Im of the log potential, the integral of log(1 + lam m), in [0, pi) for Im m > 0."""
        e, roots = self._roots(m)
        v = cmath.phase(e[-1]) - sum(cmath.phase(-zeta) for _, zeta in roots)
        return v - TWO_PI * math.floor(v / TWO_PI + 0.25)


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

    A PiecewiseSpectralDensity gives an AtomicLSD.  An ARMAModel gives one atom
    when its SpectralDensity f is constant to within ``_level_atol(f)``; else
    the ExactARMALSD of f where it solves f (``_exact_coeffs``), which trades
    the Szegő rule's nodes and weights for no rule refinement at all; else the
    AbsContinuousLSD of f, its Szegő rules.  ModelSpecError refuses three
    cases.  For d > 0 (long memory) the limit law exists (Merlevède & Peligrad,
    Stoch. Process. Appl. 126, 2016), but f is unbounded at 0 and so is the
    law's support, which nothing here tabulates yet.  (max f)^2 must be finite.
    And min f must not be negative beyond ``_level_atol(f)`` (|phi|^2 rounds to
    <= 0 at an AR root within about 1e-7 of the unit circle).
    """
    if isinstance(model, PiecewiseSpectralDensity):
        return atomic_lsd(model)
    f = SpectralDensity(model)
    if f.d > 0.0:
        raise ModelSpecError(
            f"d > 0 (long memory, d = {f.d:g}): the limit law has unbounded support, "
            "which specmp does not tabulate yet"
        )
    lo, hi = support_bounds(f)
    if not math.isfinite(hi * hi):
        raise ModelSpecError(f"spectral density too large: (max f)^2 overflows at max f = {hi:.3g}")
    atol = _level_atol(f)
    if lo < -atol:
        raise ModelSpecError(f"spectral density negative: min f = {lo:.3g}, from |phi|^2 rounding to <= 0")
    if hi - lo <= atol:
        level = 0.5 * (lo + hi)
        return AtomicLSD(levels=np.array([level]), weights=np.array([1.0]))
    return AbsContinuousLSD(f=f) if _exact_coeffs(f) is None else ExactARMALSD(f)

