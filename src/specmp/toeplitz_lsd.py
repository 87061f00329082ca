"""Limiting spectral distribution of the autocovariance Toeplitz matrix.

For a linear process with spectral density f, the eigenvalue distribution of
the n x n Toeplitz matrix (gamma(i-j)) converges to a deterministic limit: an
absolutely continuous law with density

    g(lam) = (1/pi) * sum_{w in (0, pi): f(w) = lam} 1 / |f'(w)|

and distribution function Leb{w in [0, pi] : f(w) <= lam} / pi on the range of
f when f is smooth with almost-everywhere nonvanishing derivative (f is even
about pi, so the half period holds the whole law), and a purely atomic law
with weights |A_j| / (2*pi) when f is piecewise constant.

The density comes from the level sets of f on [0, pi].  Its breakpoints (0,
its stationary points inside (0, pi), and pi), which the density computes
once, split [0, pi] into monotone branches; one vectorised bisection, which
also finds the support's upper edge for ``stieltjes``, then finds the root of
f(w) = lam on every branch for a whole array of levels.  A level is
tangential when it equals f at a stationary point inside the support; the
density diverges there.  Integrals against the continuous law of a FARIMA
model (d != 0), or of an ARMA model with K = max(p, q) >= 2, come from Szegő's
theorem on one tanh-sinh rule in w, with the poles of the integrand that the
rule does not resolve subtracted; f, its slopes and those poles all come from
the root form of ``SpectralDensity``.  An ARMA model with K = 1 (and theta's
zero within 1e40) has an exact law instead: with s = 2 cos w, f is a ratio of
polynomials of degree 1 in s, and the integrals follow from E = A + m B at
s = +-2.

Every law is read directly, and exactly, through the (T, T') evaluator
``terms``, the imaginary part of the log potential ``potential`` and the
``top`` of the support, and through a ``mean`` level that only seeds a cold
solve.  The atoms and the Szegő law are :class:`Rule` s of nodes and weights,
whose plain node sums the Szegő law corrects at its poles, and whose mean is
the nodes' plain mean; the exact ARMA law has no nodes, and its mean is T(0).
A law's ``kind`` ("atoms", "szego" or "exact") names it in reports.
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
    """Solve fun(x) = target on aligned 1-d arrays of monotone brackets [a, b].

    fun lies below the target at ``a`` and above it at ``b`` (so a > b where
    it falls), and is only called at midpoints: once per step on every bracket
    still open, until each has collapsed to adjacent floats.  Returns b.
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
    """Range (min f, max f) of the spectral density, which f takes on [0, pi]."""
    return float(np.min(f.breakpoint_values)), float(np.max(f.breakpoint_values))


def _branch_roots(f, levels):
    """Roots of f(w) = level on each monotone branch of f on [0, pi] (the last axis).

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
    """(1/pi) sum of 1/|f'| over the branch roots of each level."""
    roots = _branch_roots(f, levels)
    inside = ~np.isnan(roots)
    terms = np.zeros(roots.shape)
    with np.errstate(divide="ignore"):
        terms[inside] = 1.0 / np.abs(np.asarray(f.derivative(roots[inside]), dtype=float))
    return terms.sum(axis=-1) / math.pi


def gamma_density(f, levels):
    """Density of the Toeplitz eigenvalue limit at a level or array of levels.

    (1/pi) times the sum of 1/|f'| over the roots on the monotone branches of
    f on [0, pi] whose open range holds the level.  Levels within
    ``_level_atol(f)`` of f at a stationary point inside the support are
    tangential: g diverges there (integrably), the stationary point is left out
    of the sum, and one TangentialRootWarning per call counts them.  Levels
    outside the open support, densities that are not finite, and densities
    constant to within that tolerance (whose law is atomic), raise ValueError.
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
    """Quadrature rule of a limit law: read-only nodes lam, weights W, mean sum W lam and top (max lam).

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
    s = 2 cos w.  Where a pole lies nearer the axis than the nodes resolve
    (``_poles``, searched on each monotone branch of f), the rule's sums take
    its principal part, a multiple of 1/(s - s_c) (and of its square for T'),
    out at the nodes and add back its exact mean, g(s_c) = -1/sqrt(s_c^2 - 4)
    (and g'); the potential does so with log(s - s_c), whose mean is
    log(-1/zeta_c).  The node values, the search's steps and each residue
    1/L'(s_c) come from f's root form (``SpectralDensity._slopes``), which
    keeps its relative accuracy beside a sharp peak, where a residue from
    cosine sums cancelled.  So no pole costs accuracy, and the law is exact on
    its nodes.  Its ``mean`` is the nodes' plain mean, which misses the mass of
    a peak sharper than their spacing (98 % low for a sharp AR(2)): it only
    sets a cold solve's start, which the first sweep refits.  It holds no
    state between calls: threads can share it.
    """

    kind = "szego"

    def __init__(self, f):
        if not isinstance(f, SpectralDensity):
            raise TypeError("AbsContinuousLSD expects a SpectralDensity, which is even about pi")
        self.f, h, n = f, 3.2 / RULE_STEPS, 2 * RULE_STEPS + 1
        t = np.arange(-RULE_STEPS, RULE_STEPS + 1) * h
        e = np.exp(math.pi * np.sinh(t))
        # the pole search starts at the nodes and at the stationary points of f inside (0, pi): w and pi - w
        # there, u = 2 - s, v = 2 + s, each to full relative accuracy at a node, but pi - w cancels at a
        # stationary point near pi, which only seeds a search
        bps, vals = f.breakpoints, f.breakpoint_values
        inner = bps[1:-1]
        w = np.concatenate([math.pi * e / (1.0 + e), inner])
        rest = np.concatenate([math.pi / (1.0 + e), math.pi - inner])
        u, v, near = 4.0 * np.sin(0.5 * w) ** 2, 4.0 * np.sin(0.5 * rest) ** 2, w < 0.5 * math.pi
        x = np.where(near, u, v)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # where f = 0, L' is infinite
            ratio, ra, aa, slope, curve = np.real(f._slopes(x, near))
        values = ratio * u**-f.d
        super().__init__(values[:n], h * math.pi * np.cosh(t) * e / (1.0 + e) ** 2)
        self.top, self._u, self._v = support_bounds(f)[1], u[:n], v[:n]
        # the search runs in x = u or v, in which f is analytic at the fold ends, but in log u near s = 2
        # for d != 0, which keeps the digits of a root at u ~ 1e-29 and its sheet of u^(-d).  A pole within
        # 8 steps in t of its start is taken out, |ds/dt| = 2 sin(w) cosh(t) w (pi - w): R apart in log u or
        # log v, in which the nodes run evenly into each fold end, so up to x (e^R - 1) apart in x.  The
        # quadratic model of F = log(f/lam) in x has no root that near where |F| > |F'| reach + |F''| reach^2 / 2
        logs = near & (f.d != 0.0)
        jac, bend = np.where(logs, -u, np.where(near, -1.0, 1.0)), np.where(logs, -u, 0.0)  # ds/dx, d2s/dx2
        R = 16.0 * h * np.sin(np.minimum(w, rest)) * np.hypot(1.0, np.log(w / rest) / math.pi) * w * rest / x
        reach = np.where(logs, R, x * np.expm1(R))
        # where f = 0, L' is infinite and these are NaN; _poles starts no search there
        with np.errstate(invalid="ignore"):
            F1, F2 = jac * slope, jac * jac * curve + bend * slope
            bound = np.abs(F1) * reach + 0.5 * np.abs(F2) * reach**2
            # N = (f - lam) A / A(start) and its slopes in x, (N', N'') = (k1, k2) (f - lam) + (c1, c2)
            fl = values * slope
            k1, c1 = jac * ra, jac * fl
            k2 = jac * jac * aa + bend * ra
            c2 = jac * jac * (2.0 * ra * fl + values * (curve + slope * slope)) + bend * fl
        x = np.where(logs, np.log(u), x)
        starts = list(zip(*(a.tolist() for a in (values, k1, c1, k2, c2, R, near, logs, x, bound))))
        # each monotone branch of f, the run of nodes between its stationary points in (0, pi), by
        # rising f: (f, search starts, sign of df/ds, starts at its stationary ends); f at the
        # breakpoints 0, those points and pi says which way it runs
        cuts = np.searchsorted(w[:n], inner).tolist()
        self._branches = []
        for j, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, n])):
            step = -1 if vals[j + 1] < vals[j] else 1  # falling in w, so rising in s
            ends = [starts[n + i] for i in (j - 1, j) if 0 <= i < inner.size][::step]
            if lo < hi:
                self._branches.append((values[lo:hi].tolist()[::step], starts[lo:hi][::step], float(-step), ends))

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
        flanks, and where that finds no root, at the branch's stationary ends
        inside (0, pi), as a peak may be sharper than the nodes' spacing.  It
        takes one Cauchy step, on the quadratic model of N = A (f - lam) in x,
        then Newton on N.
        """
        level, out = abs(lam), []
        for values, starts, sign, ends in self._branches:
            i = bisect.bisect_left(values, level)
            if i == len(values) or (i and level * level < values[i - 1] * values[i]):
                i -= 1
            for start in (starts[i], *ends):
                # none where f = 0, and none where the quadratic model of log(f/lam) has no root within reach
                if not start[0] or abs(cmath.log(start[0] / lam)) > start[-1]:
                    continue
                pole = self._root(lam, sign, *start[:-1])
                if pole:
                    # a search may reach another branch's root, on the same side, in u or in v
                    if not any(abs(q[1] - pole[1]) <= 1e-9 * abs(pole[2]) + 1e-14 for q in out):
                        out.append(pole)
                    break
        return out

    def _root(self, lam, sign, fk, k1, c1, k2, c2, reach, near, logs, x):
        """The pole of ``_poles`` from one start, or None: none near, or the search failed."""
        d, kappa = self.f.d, (-1.0 if near else 1.0)  # the sign of ds/dx
        try:
            N = fk - lam
            N1, N2 = k1 * N + c1, k2 * N + c2
            root = cmath.sqrt(N1 * N1 - 2.0 * N * N2)
            steps = [-2.0 * N / q for q in (N1 + root, N1 - root) if q != 0.0]
            steps = [dx for dx in steps if sign * kappa * dx.imag > 0.0 or dx.imag == lam.imag == 0.0]
            dx = min(steps, key=abs) if steps else math.inf
            if not abs(dx if logs else cmath.log(1.0 + dx / x)) <= reach:  # R, in log u or log v
                return None
            x, prev = x + dx, math.inf
            for _ in range(8):
                e = cmath.exp(x) if logs else x
                ratio, ra, _, slope, curve = self.f._slopes(e, near)
                gap = ratio * (cmath.exp(-d * x) if logs else (4.0 - e) ** -d) - lam
                ds = -gap / ((gap + lam) * slope + ra * gap)
                dx = kappa * ds / e if logs else kappa * ds
                x += dx
                step = abs(dx) if logs else abs(dx / x)
                if step <= 1e-8 or not step < prev:
                    break
                prev = step
            e = cmath.exp(x) if logs else x
            *_, slope, curve = self.f._slopes(e, near)  # L' and L'' at the root
        except (ArithmeticError, ValueError):  # a zero of B or A, an overflow
            return None
        s = 2.0 - e if near else e - 2.0
        # a stalled search counts where |f - lam| <= 4 eps |lam|: just past a fold end, where lam - f(end)
        # is ~1e-8 lam, the rounding of f holds Newton's relative step in v near 1e-8
        stopped = step <= 1e-8 or abs(gap) <= 2.0**-50 * abs(lam)
        if not stopped or not (sign * s.imag > 0.0 or s.imag == lam.imag == 0.0):
            return None
        if logs and abs(x.imag) >= math.pi:
            return None  # a root off the principal sheet of u^(-d), as for arg lam >= pi |d|: no pole
        r = cmath.sqrt(-e * (4.0 - e))
        r = -r if (s.conjugate() * r).real < 0.0 else r
        a = 1.0 / slope
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


def _exact_coeffs(f):
    """(a, b) = (-rho_phi, -rho_theta), 0 for no zero, with |phi|^2 = 1 + a^2 + a s, where d = 0 and K = 1, else None.

    K counts the zeros that move their factor 1 - rho s + rho^2 on [-2, 2] by more than its rounding, and
    those with |rho| > 1, whose factor scales f by rho^2 even where it is flat to rounding (|rho| > 4.5e15).
    None too for |b| > 1e40: the closed form's T' runs through about b^6 / |1 + m top|, which overflows at
    2^-50 from -1/top from |b| = 1e44 on where a is an ulp from a unit root."""
    eps = np.finfo(float).eps
    live = [[r.real for r in z.tolist() if abs(r) > min(1.0, eps * (1.0 + abs(r)) ** 2)]
            for z in (f.ar_roots, f.ma_roots)]
    a, b = (-z[0] if z else 0.0 for z in live)
    return (a, b) if f.d == 0.0 and max(map(len, live)) == 1 and abs(b) <= 1e40 else None


class ExactARMALSD:
    """Toeplitz eigenvalue limit of an ARMA model with K = max(p, q) = 1, in closed form.

    With s = 2 cos w, |phi|^2 = A(s) and |theta|^2 = B(s) are polynomials of
    degree 1 (``_exact_coeffs``), and T(m) = (1/2 pi) int B / E dw with
    E = A + m B.  T, T', the potential and ``top`` (max f) follow from E at
    s = +-2 (:meth:`terms`), with no root of E, or in the far field of large
    |m| from T = 1/m; ``mean`` is T(0).  The law has no nodes.  It holds its
    spectral density as ``f``.
    """

    kind = "exact"

    def __init__(self, f):
        coeffs = _exact_coeffs(f)
        if coeffs is None:
            raise ValueError("the exact law needs d = 0, max(p, q) = 1 and |rho_theta| <= 1e40")
        # A and B at s = +-2, each free of cancellation; max f is B/A at one of them.  Below the far field's
        # |m| = 1e150 / (max B)^1.25, P Q and W (b W - kappa), about |m|^2 B(2) B(-2) and |b| times it, stay finite
        self.f, (a, b) = f, coeffs
        A2, Am2, B2, Bm2 = (1.0 + a) ** 2, (1.0 - a) ** 2, (1.0 + b) ** 2, (1.0 - b) ** 2
        self._k1 = (A2, Am2, B2, Bm2, a, b, 1.0 + b * b, (a - b) * (1.0 - a * b))
        self.top, self._far = max(B2 / A2, Bm2 / Am2), 1e150 / max(B2, Bm2) ** 1.25
        self.mean = self.terms(0.0)[0].real

    def terms(self, m):
        """(T, T') at m, written out, as it runs once a sweep.

        P = E(2) and Q = E(-2) take A(+-2) = (1 +- a)^2, which keeps its digits at a unit root,
        where A = r_0 + r_1 s cancels.  The mean of 1/E is 1/W, W = sqrt(P Q) with Re(conj(e0) W) >= 0
        for e0 = (P + Q)/2, and B/E = b/e1 + kappa/(e1 E), e1 = a + m b, so T = (b W + kappa)/(e1 W).
        Where b W cancels kappa (e1 -> 0, E's root running off), T is that form times
        (b W - kappa)/(b W - kappa), which takes the factor e1 out.  In the far field, from
        |m| = 1e150 / (max B(+-2))^1.25 on, short of where these products overflow, T = 1/m and
        T' = -1/m^2, exact to rounding: B/E = 1/(m + 1/f) leaves a relative error of at most
        E[1/f] / |m| <= 4 / (|1 - b^2| |m|), and O(|m|^(-1/2)) at |b| = 1, where f has a double zero.
        1/m is taken as conj(m) / |m| / |m|, as Python's 1/m overflows its denominator near |m| = 1e308.
        W = 0 only at the real m = -1/f(+-2), at or below -1/top, where T is infinite: this raises there.
        """
        if not abs(m) < self._far:
            r = m.conjugate() / abs(m) / abs(m)
            return r, -r * r
        A2, Am2, B2, Bm2, a, b, b0, kappa = self._k1
        P, Q = A2 + m * B2, Am2 + m * Bm2
        W = cmath.sqrt(P * Q)
        e0, e1, dPQ = 0.5 * (P + Q), a + m * b, B2 * Q + P * Bm2
        if (e0.conjugate() * W).real < 0.0:
            W = -W
        Wp = 0.5 * dPQ / W
        if kappa * b * W.real >= 0.0:
            return (b * W + kappa) / (e1 * W), -(b * b + kappa * (b * W + e1 * Wp) / (W * W)) / e1 / e1
        D, BB = W * (b * W - kappa), B2 * Bm2
        t = (e1 * BB - 2.0 * b0 * kappa) / D
        return t, (b * BB - t * (b * dPQ - kappa * Wp)) / D

    def potential(self, m):
        """Im of the log potential: the mean of log E is log((e0 + W)/2), in (0, pi) for Im m > 0, and
        the mean of arg(1 + f m), arg m to rounding, in the far field of :meth:`terms`."""
        if not abs(m) < self._far:
            return cmath.phase(m)
        A2, Am2, B2, Bm2 = self._k1[:4]
        P, Q = A2 + m * B2, Am2 + m * Bm2
        W, e0 = cmath.sqrt(P * Q), 0.5 * (P + Q)
        return cmath.phase(e0 + W if (e0.conjugate() * W).real >= 0.0 else e0 - W)


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


def _check_scale(*levels):
    # at 2^+-500 two atoms take scale 1's sweeps (to one) at y from 1e-6 to 100; at 2^505 the y = 1e-6 edge is 0.7 % off
    for level in levels:
        if not 2.0**-500 <= level <= 2.0**500:
            raise ModelSpecError(f"spectral level {level:.3g} outside the range [2^-500, 2^500] that specmp solves")


def gamma_lsd(model):
    """Limit law of the autocovariance Toeplitz matrix of a model.

    A PiecewiseSpectralDensity gives an AtomicLSD.  An ARMAModel gives one atom
    when its SpectralDensity f is constant to within ``_level_atol(f)``; else
    the ExactARMALSD of f for d = 0 and K = max(p, q) = 1 (``_exact_coeffs``,
    which also bounds theta's zero), which needs no nodes; else the
    AbsContinuousLSD of f, on its tanh-sinh rule, at AR roots however near
    the unit circle.
    ModelSpecError refuses two cases.  For d > 0 (long memory) the limit law
    exists (Merlevède & Peligrad, Stoch. Process. Appl. 126, 2016), but f is
    unbounded at 0 and so is the law's support, which nothing here tabulates
    yet.  And each piecewise level, or max f (at least 1), must lie in
    [2^-500, 2^500].
    """
    if isinstance(model, PiecewiseSpectralDensity):
        law = atomic_lsd(model)
        _check_scale(law.levels[0], law.top)
        return law
    f = SpectralDensity(model)
    if f.d > 0.0:
        raise ModelSpecError(
            f"d > 0 (long memory, d = {f.d:g}): the limit law has unbounded support, "
            "which specmp does not tabulate yet"
        )
    lo, hi = support_bounds(f)
    _check_scale(hi)
    if hi - lo <= _level_atol(f):
        level = 0.5 * (lo + hi)
        return AtomicLSD(levels=np.array([level]), weights=np.array([1.0]))
    return AbsContinuousLSD(f=f) if _exact_coeffs(f) is None else ExactARMALSD(f)
