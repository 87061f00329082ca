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
theorem on one tanh-sinh rule in w, with the poles of the integrand that the
rule does not resolve subtracted.  An ARMA model with K <= 2 has an exact law
instead: with s = 2 cos w, f is a ratio of polynomials of degree K in s, and
the integrals follow from E = A + m B at s = +-2 (K = 1) or from its two
roots (K = 2).

Every law is read directly, and exactly, through the (T, T') evaluator
``terms``, the imaginary part of the log potential ``potential``, the ``mean``
level and the ``top`` of the support.  The atoms and the Szegő law are
:class:`Rule` s of nodes and weights, whose plain node sums the Szegő law
corrects at its poles; the exact ARMA law has no nodes.  A law's ``kind``
("atoms", "szego" or "exact") names it in reports.
"""

from __future__ import annotations

import bisect
import cmath
import math
import warnings

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

# tanh-sinh steps each side of t = 0 in the Szegő law's rule, which has
# 2 RULE_STEPS + 1 nodes (``AbsContinuousLSD``)
RULE_STEPS = 128

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

    :meth:`terms` sums over mu = 1/lam, as lam / (1 + lam m) = 1 / (mu + m).
    Nodes without a finite 1/lam (lam = 0, or below about 5.6e-309) add only
    about W |lam| and are dropped; nodes negative by rounding are kept.  Up to
    SCALAR_NODES kept nodes sum in Python scalars, under NumPy's call cost.
    The laws with nodes subclass it.
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


class AtomicLSD(Rule):
    """Purely atomic Toeplitz eigenvalue limit: weight w_j at level alpha_j, the rule's nodes.

    Levels are finite, positive and strictly increasing, like piecewise-constant
    spectral levels; weights are finite, positive and sum to 1 within 1e-9.
    """

    kind = "atoms"

    def __init__(self, levels, weights):
        levels, weights = np.array(levels, dtype=float), np.array(weights, dtype=float)
        if levels.size != weights.size or levels.size == 0:
            raise ValueError("levels and weights must be nonempty and aligned")
        # NaN fails every comparison, so these forms refuse it
        if not (levels[0] > 0.0 and np.all(np.diff(levels) > 0) and math.isfinite(levels[-1])):
            raise ValueError("levels must be finite, positive and strictly increasing")
        if not (np.all(weights > 0) and abs(weights.sum() - 1.0) <= 1e-9):
            raise ValueError("weights must be finite, positive and sum to 1")
        super().__init__(levels, weights)
        self.levels = levels


class AbsContinuousLSD(Rule):
    """Absolutely continuous Toeplitz eigenvalue limit with density g, exact on one rule.

    By Szegő's theorem it is the law of f(w), w uniform on [0, pi] (f is even
    about pi); :func:`gamma_density` gives g.  Its means run on the tanh-sinh
    rule w = pi / (1 + e^(-pi sinh t)), t = k h, |t| <= 3.2, h = 3.2/RULE_STEPS
    (Takahasi & Mori, Publ. RIMS 9, 1974), which converges geometrically
    whatever f does at w = 0 and pi: its :class:`Rule` of nodes f(w_k), with
    ``top`` = max f.  T and -T' are the means of f / (1 + f m) and its square.
    With lam = -1/m these have a pole at each root s_c of f = lam in
    s = 2 cos w, where f = B(s) / A(s) (2 - s)^(-d) (``_cosine_poly``).  Where
    a pole lies nearer the axis than the nodes resolve (``_poles``, searched
    from one node on each monotone branch of f), the rule's sums take its
    principal part, a multiple of 1/(s - s_c) (and of its square for T'), out
    at the nodes and add back its exact mean, g(s_c) = -1/sqrt(s_c^2 - 4)
    (and g'); the potential does so with log(s - s_c), whose mean is
    log(-1/zeta_c).  So no pole costs accuracy, and the law is exact on its
    nodes.  It holds no state between calls: threads can share it.
    """

    kind = "szego"

    def __init__(self, f):
        if not isinstance(f, SpectralDensity):
            raise TypeError("AbsContinuousLSD expects a SpectralDensity, which is even about pi")
        self.f, h = f, 3.2 / RULE_STEPS
        t = np.arange(-RULE_STEPS, RULE_STEPS + 1) * h
        e = np.exp(math.pi * np.sinh(t))
        # w and pi - w at the nodes, each to full relative accuracy, u = 2 - s, v = 2 + s
        w, rest = math.pi * e / (1.0 + e), math.pi / (1.0 + e)
        u, v, near = 4.0 * np.sin(0.5 * w) ** 2, 4.0 * np.sin(0.5 * rest) ** 2, w < 0.5 * math.pi
        # B and A in u and in v (s = 2 - u = v - 2), of one length, highest power first
        B, A = (np.polynomial.Polynomial(_cosine_poly(r)) for r in (f.ma_acov, f.ar_acov))
        k = max(B.degree(), A.degree()) + 1
        self._polys = [[np.pad(c(np.polynomial.Polynomial(x)).coef, (0, k))[:k][::-1].tolist() for c in (B, A)]
                       for x in ([2, -1], [-2, 1])]
        ratio, ra, aa, slope, curve = np.empty((5, w.size))
        for side, polys, x, kappa in ((near, self._polys[0], u, -1.0), (~near, self._polys[1], v, 1.0)):
            with np.errstate(divide="ignore", invalid="ignore"):  # where f = 0, L' is infinite
                ratio[side], ra[side], aa[side], slope[side], curve[side] = _slopes(polys, x[side], kappa, u[side], f.d)
        values = ratio * u**-f.d
        super().__init__(values, h * math.pi * np.cosh(t) * e / (1.0 + e) ** 2)
        self.top, self._u, self._v = support_bounds(f)[1], u, v
        # the search runs in x = log u near s = 2, which keeps the digits of a root at u ~ 1e-29
        # and, for d != 0, its sheet of u^(-d), and in x = v elsewhere.  A pole within 8 steps in t
        # of its start is taken out, |ds/dt| = 2 sin(w) cosh(t) w (pi - w); the quadratic model of
        # F = log(f/lam) in x has no root that near where |F| > |F'| reach + |F''| reach^2 / 2
        jac, bend = np.where(near, -u, 1.0), np.where(near, -u, 0.0)  # ds/dx, d2s/dx2
        reach = 16.0 * h * np.sin(np.minimum(w, rest)) * np.hypot(1.0, np.log(w / rest) / math.pi) * w * rest / abs(jac)
        # where f = 0, L' is infinite and these are NaN; _poles picks index >= 1 there, so no search starts there
        with np.errstate(invalid="ignore"):
            F1, F2 = jac * slope, jac * jac * curve + bend * slope
            bound = np.abs(F1) * reach + 0.5 * np.abs(F2) * reach**2
            # N = (f - lam) A / A(start) and its slopes in x, (N', N'') = (k1, k2) (f - lam) + (c1, c2)
            fl = values * slope
            k1, c1 = jac * ra, jac * fl
            k2 = jac * jac * aa + bend * ra
            c2 = jac * jac * (2.0 * ra * fl + values * (curve + slope * slope)) + bend * fl
        x = np.where(near, np.log(u), v)
        starts = list(zip(*(a.tolist() for a in (values, k1, c1, k2, c2, bound, reach, near, x))))
        # each monotone branch of f, the run of nodes between its stationary points in (0, pi), by
        # rising f: (f, search starts, sign of df/ds); f at the breakpoints 0, those points and pi
        # says which way it runs
        bps, vals = f.breakpoints, f.breakpoint_values
        cuts = np.searchsorted(w, bps[(0.0 < bps) & (bps < math.pi)]).tolist()
        self._branches = []
        for j, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, w.size])):
            step = -1 if vals[j + 1] < vals[j] else 1  # falling in w, so rising in s
            if lo < hi:
                self._branches.append((values[lo:hi].tolist()[::step], starts[lo:hi][::step], float(-step)))

    # called by nothing in specmp: the benchmark's tracer (perfbench/tracing.py) patches it by name
    def rule(self):
        """The law itself, an exact rule."""
        return self

    def _poles(self, lam):
        """(near, s_c, e, r, a, b) for each pole the nodes do not resolve, searched from each branch.

        e is u or v at the root, r = sqrt(s_c^2 - 4) with zeta = (s_c - r)/2
        inside the unit disk, a = 1/L'(s_c) for L = log f the residue of
        f / (f - lam), and a^2 / (s - s_c)^2 + b / (s - s_c), b = a - L'' a^3,
        the principal part of its square.  The root has Im s_c of the sign of
        df/ds on its branch where Im lam > 0; at a real lam (the edge's
        bisection) a real root counts too.  The search starts at the branch's
        node nearest |lam| in log f, as f spans decades on a sharp peak's
        flanks, and takes one Cauchy step, on the quadratic model of
        N = A (f - lam) in x, then Newton on N.
        """
        level, out = abs(lam), []
        for values, starts, sign in self._branches:
            i = bisect.bisect_left(values, level)
            if i == len(values) or (i and level * level < values[i - 1] * values[i]):
                i -= 1
            start = starts[i]
            if abs(cmath.log(start[0] / lam)) > start[5]:
                continue  # no root of the quadratic model of log(f/lam) within reach
            pole = self._root(lam, sign, *start)
            # a search may reach another branch's root, on the same side, in u or in v
            if pole and not any(abs(q[1] - pole[1]) <= 1e-9 * abs(pole[2]) + 1e-14 for q in out):
                out.append(pole)
        return out

    def _root(self, lam, sign, fk, k1, c1, k2, c2, bound, reach, near, x):
        """The pole of ``_poles`` from one start, or None: none near, or the search failed."""
        d, kappa = self.f.d, (-1.0 if near else 1.0)  # the sign of ds/dx
        try:
            N = fk - lam
            N1, N2 = k1 * N + c1, k2 * N + c2
            root = cmath.sqrt(N1 * N1 - 2.0 * N * N2)
            steps = [-2.0 * N / q for q in (N1 + root, N1 - root) if q != 0.0]
            steps = [dx for dx in steps if sign * kappa * dx.imag > 0.0 or dx.imag == lam.imag == 0.0]
            if not steps or min(map(abs, steps)) > reach:
                return None
            x, prev = x + min(steps, key=abs), math.inf
            for _ in range(8):
                u = cmath.exp(x) if near else 4.0 - x
                ratio, ra, _, slope, curve = _slopes(self._polys[1 - near], u if near else x, kappa, u, d)
                gap = ratio * cmath.exp(-d * x) - lam if near else ratio * u**-d - lam
                ds = -gap / ((gap + lam) * slope + ra * gap)
                dx = -ds / u if near else ds
                x += dx
                step = abs(dx) if near else abs(dx / x)
                if step <= 1e-8 or not step < prev:
                    break
                prev = step
            e = cmath.exp(x) if near else x
        except (ArithmeticError, ValueError):  # a zero of B or A, an overflow
            return None
        s = 2.0 - e if near else e - 2.0
        # a stalled search counts where |f - lam| <= 4 eps |lam|: just past a fold end, where lam - f(end)
        # is ~1e-8 lam, the rounding of f holds Newton's relative step in v near 1e-8
        stopped = step <= 1e-8 or abs(gap) <= 2.0**-50 * abs(lam)
        if not stopped or not (sign * s.imag > 0.0 or s.imag == lam.imag == 0.0):
            return None
        if near and d and abs(x.imag) >= math.pi:
            return None  # a root off the principal sheet of u^(-d), as for arg lam >= pi |d|: no pole
        r = cmath.sqrt(-e * (4.0 - e))
        r = -r if (s.conjugate() * r).real < 0.0 else r
        a = 1.0 / (slope + curve * ds)  # 1/L' at the root, to second order in the last step
        return near, s, e, r, a, a - curve * a**3

    def terms(self, m):
        """(T, T') at m as Python complex numbers: the rule's sums, each pole's principal part swapped for its mean."""
        t, tp = super().terms(m)
        lam = -1.0 / m
        for near, s, e, r, a, b in self._poles(lam):
            q = e - self._u if near else self._v - e  # s - s_c
            np.reciprocal(q, out=q)
            p1, g = q.dot(self.weights), -1.0 / r
            q *= q
            # the principal parts of f / (1 + f m) and its square are -lam and lam^2 times those of f / (f - lam)
            t -= lam * a * (g - p1)
            tp -= lam * lam * (a * a * (s / (r * r * r) - q.dot(self.weights)) + b * (g - p1))
        return complex(t), complex(tp)

    def potential(self, m):
        """Im of the log potential, the rule's mean of arg(1 + f m), less log(s - s_c) at each pole plus its mean."""
        v = super().potential(m)
        for near, s, e, r, _, _ in self._poles(-1.0 / m):
            v += cmath.phase(-(s + r)) - float(np.angle(e - self._u if near else self._v - e).dot(self.weights))
        return v


def _slopes(polys, x, kappa, u, d):
    """(B/A, A'/A, A''/A, L', L'') at x, which is u (kappa = -1) or v (kappa = 1), for L = log f; slopes in s.

    B and A come highest power first and of one length; Horner's rule takes each with its first two
    derivatives in x, scalar or array.
    """
    b = b1 = b2 = a = a1 = a2 = 0.0
    for cb, ca in zip(*polys):
        b2, b1, b = b2 * x + 2.0 * b1, b1 * x + b, b * x + cb
        a2, a1, a = a2 * x + 2.0 * a1, a1 * x + a, a * x + ca
    rb, ra = kappa * b1 / b, kappa * a1 / a
    return b / a, ra, a2 / a, rb - ra + d / u, b2 / b - rb * rb - a2 / a + ra * ra + d / (u * u)


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
    degree at most K (``_cosine_poly``), and T(m) = (1/2 pi) int B / E dw with
    E = A + m B.  For K = 1, T, the potential and max f follow from E at
    s = +-2 (``_terms1``).  For K = 2, T needs the two roots s_j of E: in
    partial fractions B/E = c_inf + sum_j c_j / (s - s_j), with
    c_j = B(s_j) / E'(s_j), and the mean of 1 / (s - s_j) over w is g(s_j)
    (``_g``), so T = c_inf + sum_j c_j g(s_j).  T' follows from
    ds_j/dm = -c_j, dc_j/dm = c_j (c_j E'' - 2 B'(s_j)) / E'(s_j) and
    dc_inf/dm = -c_inf^2.  Two forms keep T accurate:

    - a root far from [-2, 2] takes h = g + 1/s (``_h``) and hands
      -c_j / s_j to c_inf, which becomes the value at s = 0 of B/E less the
      other roots' fractions; so c_inf does not cancel against c_j g(s_j)
      where E's leading coefficient is small and s_j runs off to infinity
      (``_terms2`` says how far is far);
    - two roots of one form sum as the divided difference of B g (or B h),
      which stays accurate at a near double root.

    The log potential, the mean of log(1 + m f) = log E - log A, is then
    log lead(E) + sum_j log(-1/zeta_j) up to a real constant and 2 pi i k, so
    its imaginary part needs only E's roots.  The law has ``terms``,
    ``potential``, ``mean`` and ``top`` (max f), and no nodes.  It holds its
    spectral density as ``f``.
    """

    kind = "exact"

    def __init__(self, f):
        coeffs = _exact_coeffs(f)
        if coeffs is None:
            raise ValueError("the exact law needs d = 0 and 1 <= max(p, q) <= 2")
        self.f, (self._a, self._b) = f, coeffs
        if len(self._a) == 2:
            # A and B at s = +-2, each free of cancellation; max f is B/A at one of them
            a, b = self._a[1], self._b[1]
            A2, Am2, B2, Bm2 = (1.0 + a) ** 2, (1.0 - a) ** 2, (1.0 + b) ** 2, (1.0 - b) ** 2
            self._k1 = (A2, Am2, B2, Bm2, a, b, 1.0 + b * b, (a - b) * (1.0 - a * b))
            self.terms, self.potential, self.top = self._terms1, self._potential1, max(B2 / A2, Bm2 / Am2)
        else:
            self.terms, self.potential = self._terms2, self._potential2
            self.top = support_bounds(f)[1]
        self.mean = self.terms(0.0)[0].real

    def _roots(self, m):
        """(E's coefficients e_0, e_1, e_2, E's roots (s_j, zeta_j), least |s| first) for K = 2.

        Where E loses its degree, has a double root or a root at s = +-2, m moves off the
        axis (``_off_axis``).
        """
        e0, e1, e2 = e = [a + m * b for a, b in zip(self._a, self._b)]
        w = cmath.sqrt(e1 * e1 - 4.0 * e2 * e0)
        if e2 == 0.0 or w == 0.0:
            return self._roots(_off_axis(m))
        q = -0.5 * (e1 + w if (e1.conjugate() * w).real >= 0.0 else e1 - w)
        roots = [(s, _small_root(s)) for s in (e0 / q, q / e2)]
        if any(zeta * zeta == 1.0 for _, zeta in roots):  # a root at s = +-2, an end of [-2, 2]
            return self._roots(_off_axis(m))
        return e, roots

    def _terms1(self, m):
        """(T, T') at m for K = 1, written out, as it runs once a sweep.

        P = E(2) and Q = E(-2) take A(+-2) = (1 +- a)^2, which keeps its digits at a unit root,
        where A = r_0 + r_1 s cancels.  The mean of 1/E is 1/W, W = sqrt(P Q) with Re(conj(e0) W) >= 0
        for e0 = (P + Q)/2, and B/E = b/e1 + kappa/(e1 E), e1 = a + m b, so T = (b W + kappa)/(e1 W).
        Where b W cancels kappa (e1 -> 0, E's root running off), T is that form times
        (b W - kappa)/(b W - kappa), which takes the factor e1 out.
        """
        A2, Am2, B2, Bm2, a, b, b0, kappa = self._k1
        P, Q = A2 + m * B2, Am2 + m * Bm2
        W = cmath.sqrt(P * Q)
        if W == 0.0:  # E's root at s = +-2, an end of [-2, 2]
            return self._terms1(_off_axis(m))
        e0, e1, dPQ = 0.5 * (P + Q), a + m * b, B2 * Q + P * Bm2
        if (e0.conjugate() * W).real < 0.0:
            W = -W
        Wp = 0.5 * dPQ / W
        if kappa * b * W.real >= 0.0:
            return (b * W + kappa) / (e1 * W), -(b * b + kappa * (b * W + e1 * Wp) / (W * W)) / (e1 * e1)
        D, BB = W * (b * W - kappa), B2 * Bm2
        t = (e1 * BB - 2.0 * b0 * kappa) / D
        return t, (b * BB - t * (b * dPQ - kappa * Wp)) / D

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

    def _potential1(self, m):
        """Im of the log potential for K = 1: the mean of log E is log((e0 + W)/2), in (0, pi) for Im m > 0."""
        A2, Am2, B2, Bm2 = self._k1[:4]
        P, Q = A2 + m * B2, Am2 + m * Bm2
        W, e0 = cmath.sqrt(P * Q), 0.5 * (P + Q)
        return cmath.phase(e0 + W if (e0.conjugate() * W).real >= 0.0 else e0 - W)

    def _potential2(self, m):
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
    the ExactARMALSD of f where it solves f (``_exact_coeffs``), which needs
    no nodes; else the AbsContinuousLSD of f, on its tanh-sinh rule.
    ModelSpecError refuses three
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

