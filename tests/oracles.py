"""Oracles that only the tests call; they may use SciPy, which specmp does not."""

import cmath
import functools
import math
import warnings

import mpmath as mp
import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import roots_legendre

from specmp import Rule, SpectralDensity, support_bounds
from specmp.toeplitz_lsd import _branch_roots, _density, _level_atol

TWO_PI = 2.0 * math.pi


def total_mass(lsd):
    """Quadrature of the level-set density g of a continuous law over its support.

    An oracle independent of the law's nodes and weights.  g is smooth
    between consecutive critical values c0 < c1 of f (its values at the
    breakpoints), with at most inverse-square-root peaks at them, so each such
    interval gets a
    Gauss-Legendre rule under lam = c0 + (c1 - c0) sin^2(u), which removes the
    peaks, doubled until the mass is stable to 1e-10 or reaches 4097 nodes.
    No node is a tangential level, and none warns.
    """
    atol = _level_atol(lsd.f)
    crit = np.unique(lsd.f.breakpoint_values)
    crit = crit[np.concatenate([np.diff(crit) > atol, [True]])]
    c0, width = crit[:-1, None], np.diff(crit)[:, None]
    size, prev = 65, None
    while True:
        x, w = roots_legendre(size)
        u = (x + 1.0) * (math.pi / 4.0)
        lam = c0 + width * np.sin(u) ** 2
        jac = width * np.sin(2.0 * u) * (math.pi / 4.0)
        total = float(np.sum(w * jac * _density(lsd.f, lam)))
        if size >= 4097 or (prev is not None and abs(total - prev) <= 1e-10):
            return total
        size, prev = 2 * size - 1, total


def szego_rule(f, size):
    """Szegő pushforward :class:`specmp.Rule` of a SpectralDensity f on a graded trapezoid grid, folded.

    The grid is w_k = 2*pi*t_k - sin(2*pi*t_k), t_k = k/size, k = 1..size-1,
    weights (1 - cos(2*pi*t_k)) / size, which sum to 1.  Node size-k is the
    mirror 2*pi - w_k of node k, at the same weight, and f is even about pi, so
    the rule keeps f(w_k), k = 1..size//2, at twice the weight, but once at
    w = pi (even size, its own mirror).  The size-N nodes are every other 2N
    node.  For analytic f the error falls geometrically; a FARIMA cusp
    |w|^(2|d|) leaves an error of order N^-(3 + 6|d|).  A reference for the
    laws, independent of their rules, where z is far enough from the axis.
    """
    u = TWO_PI * np.arange(1, size // 2 + 1) / size
    weights = (1.0 - np.cos(u)) / size
    weights[: (size - 1) // 2] *= 2.0
    return Rule(np.asarray(f(u - np.sin(u)), dtype=float), weights)


def autocovariances(coeffs, max_lag):
    """gamma(0..max_lag), gamma(h) = sum_{j=0}^{J-h} c_j c_{j+h}, from c_0..c_J."""
    c = np.asarray(coeffs, dtype=float)
    if max_lag > c.size - 1:
        raise ValueError(f"lag {max_lag} exceeds stored horizon {c.size - 1}")
    return np.correlate(c, c, "full")[c.size - 1 : c.size + int(max_lag)]


def autocovariance_toeplitz(coeffs, size):
    """The n x n matrix (gamma(i - j)) from an MA expansion c_0..c_J, J >= n - 1."""
    if size < 1:
        raise ValueError("size must be at least 1")
    i = np.arange(size)
    return autocovariances(coeffs, size - 1)[np.abs(i[:, None] - i)]


def gamma_cdf(f, levels):
    """Distribution function of the Toeplitz limit at a level or array of levels.

    Leb({w in [0, pi] : f(w) <= level}) / pi, summed over the monotone
    branches between consecutive breakpoints of f: |root - low end| on a
    branch that holds the level, the whole branch on one below it; exactly 0
    below the support and exactly 1 above it.
    """
    lo, hi = support_bounds(f)
    bps, vals = f.breakpoints, f.breakpoint_values
    rising = vals[1:] > vals[:-1]
    low, high = np.where(rising, bps[:-1], bps[1:]), np.where(rising, bps[1:], bps[:-1])
    top = np.maximum(vals[:-1], vals[1:])
    lam = np.asarray(levels, dtype=float)
    roots = _branch_roots(f, lam)
    whole = np.where(top <= lam[..., None], np.abs(high - low), 0.0)
    measure = np.where(np.isnan(roots), whole, np.abs(roots - low)).sum(axis=-1) / math.pi
    out = np.where(lam >= hi, 1.0, np.where(lam <= lo, 0.0, measure))
    return float(out) if lam.ndim == 0 else out


def arma11_support(phi, theta):
    """Support endpoints (1 +- theta)^2 / (1 -+ phi)^2 of the ARMA(1,1) limit law."""
    if abs(phi) >= 1.0:
        raise ValueError("|phi| < 1 required")
    lam_plus = (1.0 + theta) ** 2 / (1.0 - phi) ** 2
    lam_minus = (1.0 - theta) ** 2 / (1.0 + phi) ** 2
    return min(lam_minus, lam_plus), max(lam_minus, lam_plus)


def arma11_gamma_density(phi, theta, lam):
    """Closed-form Toeplitz limit density for ARMA(1,1).

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


def toeplitz_moments(model, order=4, size=4096):
    """H_1..H_order, the moments H_j = (1/2 pi) integral of f^j dw of the Toeplitz limit law.

    f = |theta/phi|^2 (2 - 2 cos w)^(-d) is built here from ``model.ar``,
    ``model.ma`` and ``model.d``, not by ``SpectralDensity``.  With d = 0, f is
    analytic and periodic, and the trapezoid rule on ``size`` equispaced w
    converges geometrically.  Otherwise Hosking's series (Biometrika 68, 1981)
    H_j = g_0 c(0) + 2 sum_{h >= 1} g_h c(h), where g_h are the Fourier
    coefficients of |theta/phi|^(2j) (one FFT) and c(h) those of
    |1 - e^{iw}|^(2a), a = -j d: c(0) = Gamma(2a + 1) / Gamma(a + 1)^2 and
    c(h) = c(h - 1) (h - 1 - a) / (h + a).
    """
    P = np.polynomial.polynomial
    e = np.exp(1j * TWO_PI * np.arange(size) / size)
    ratio = np.abs(P.polyval(e, [1.0, *model.ma])) ** 2 / np.abs(P.polyval(e, [1.0, *model.ar])) ** 2
    out = []
    for j in range(1, order + 1):
        if model.d == 0.0:
            out.append(float(np.mean(ratio**j)))
            continue
        g = np.fft.rfft(ratio**j).real / size
        a = -j * model.d
        h = np.arange(1.0, g.size)
        c = math.gamma(2.0 * a + 1.0) / math.gamma(a + 1.0) ** 2 * np.cumprod(np.concatenate([[1.0], (h - 1.0 - a) / (h + a)]))
        out.append(float(g[0] * c[0] + 2.0 * np.sum(g[1:] * c[1:])))
    return tuple(out)


def lsd_moments(model, y, order=4):
    """mu_0..mu_order, the moments of the limit law of p^-1 X X^T (mu_0 = 1, the atom included).

    With w = 1/z, m(z) = -w M(w) and M(w) = sum_k mu_k w^k, the equation
    m = 1 / (-z + y T(m)), T(m) = sum_{j >= 0} (-m)^j H_{j+1}, becomes
    M = 1 + y sum_{j >= 1} H_j (w M)^j; each pass of that map fixes one more
    coefficient of M (Yin 1986; Bai & Silverstein 2010, ch. 3).  So
    mu_1 = y H_1 and mu_2 = y H_2 + y^2 H_1^2.
    """
    P = np.polynomial.polynomial
    H = toeplitz_moments(model, order)
    M = np.ones(1)
    for _ in range(order):
        wM = P.polymulx(M)[: order + 1]
        acc, power = np.zeros(order + 1), np.ones(1)
        for h in H:
            power = P.polymul(power, wM)[: order + 1]
            acc[: power.size] += h * power
        M = y * acc
        M[0] += 1.0
    return tuple(float(v) for v in M)


def atomic_lsd_density(levels, weights, y, x):
    """Exact limit density at real points x > 0 for an atomic H, from polynomial roots.

    Clearing the denominators of 1/m = -x + y sum_k w_k lam_k / (1 + lam_k m)
    leaves the real polynomial of degree K + 1
        -x m prod_k (1 + lam_k m) + y m sum_k w_k lam_k prod_{j != k} (1 + lam_j m)
        - prod_k (1 + lam_k m),
    and the density is Im m / pi at its root of largest imaginary part (0 where
    every root is real), taken on the axis itself, with no offset.
    """
    P = np.polynomial.polynomial
    factors = [np.array([1.0, lam]) for lam in levels]

    def product(polys):
        return functools.reduce(P.polymul, polys, np.array([1.0]))

    whole = product(factors)
    mixed = sum(w * lam * product(factors[:k] + factors[k + 1 :]) for k, (lam, w) in enumerate(zip(levels, weights)))
    out = []
    for xi in np.asarray(x, dtype=float):
        coeffs = P.polysub(P.polymulx(P.polyadd(-xi * whole, y * mixed)), whole)
        out.append(max(float(P.polyroots(coeffs).imag.max()), 0.0) / math.pi)
    return np.array(out)


def szego_quad(f, m):
    """(T(m), Im of the log potential) of the Toeplitz limit law of f, by adaptive quadrature.

    T is the mean of f / (1 + f m) and the potential's the mean of
    arg(1 + f m) over w in [0, pi], each split at the roots of f = Re(-1/m),
    beside which the pole of 1 / (1 + f m) sits.  Independent of the laws'
    rules, and slow.  Where SciPy's ``quad`` gives up (an IntegrationWarning,
    as just above a fold end of f) it raises rather than return its guess.
    """
    m = complex(m)
    roots = _branch_roots(f, (-1.0 / m).real)
    points = sorted(roots[~np.isnan(roots)].tolist()) or None

    def mean(g):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            return quad(g, 0.0, math.pi, points=points, epsabs=1e-15, epsrel=1e-13, limit=400)[0] / math.pi

    t = mean(lambda w: (f(w) / (1.0 + f(w) * m)).real) + 1j * mean(lambda w: (f(w) / (1.0 + f(w) * m)).imag)
    return t, mean(lambda w: cmath.phase(1.0 + f(w) * m))


def _square_in_s(coeffs):
    """|c(e^{iw})|^2, c(z) = 1 + sum_k coeffs_k z^k, as a polynomial in s = 2 cos w, in mpmath, lowest power first.

    It is r_0 + sum_h r_h C_h(s), r_h the autocovariances of (1, coeffs) and
    C_h(s) = 2 cos(h w): C_0 = 2, C_1 = s, C_(h+1) = s C_h - C_(h-1).
    """
    c = [mp.mpf(1)] + [mp.mpf(x) for x in coeffs]
    r = [mp.fsum(c[j] * c[j + h] for j in range(len(c) - h)) for h in range(len(c))]
    out, prev, cur = [r[0]] + [mp.mpf(0)] * (len(c) - 1), [mp.mpf(2)], [mp.mpf(0), mp.mpf(1)]
    for h in range(1, len(c)):
        for i, x in enumerate(cur):
            out[i] += r[h] * x
        prev, cur = cur, [-x for x in prev] + [mp.mpf(0)] * 2
        for i, x in enumerate(prev):
            cur[i + 1] += x
    return out


def arma_terms(model, m, dps=50):
    """Exact (T(m), T'(m)) of the Toeplitz limit law of a d = 0 ARMA model, by partial fractions.

    With s = 2 cos w, f = B(s)/A(s) for polynomials of degree at most K =
    max(p, q) (``_square_in_s``), and T(m) is the mean over w of B/E,
    E = A + m B.  Over the roots s_k of E,
        T = q + sum_k B(s_k)/E'(s_k) g(s_k),
    q = B_K/E_K the quotient, g(s) = zeta/(zeta^2 - 1) the mean of 1/(s' - s)
    with zeta the root of zeta^2 - s zeta + 1 inside the unit disk, and
    T' from the same sum, with ds_k/dm = -B(s_k)/E'(s_k) and
    g'(s) = -(zeta^2 + 1) zeta^2/(zeta^2 - 1)^3.  In mpmath at ``dps``
    digits, independent of specmp's laws; Python complex numbers out.
    """
    if model.d != 0.0:
        raise ValueError("the partial-fraction oracle needs d = 0")
    P = mp.polyval
    with mp.workdps(dps):
        # trailing zero coefficients would give E a zero leading coefficient
        A, B = (_square_in_s(np.trim_zeros(c, "b")) for c in (model.ar, model.ma))
        k = max(len(A), len(B))
        A, B = (c + [mp.mpf(0)] * (k - len(c)) for c in (A, B))
        m = mp.mpc(m)
        E = [a + m * b for a, b in zip(A, B)][::-1]  # highest power first, for mp.polyval
        Bh, dB = B[::-1], [i * b for i, b in enumerate(B)][:0:-1]
        dE, ddE = [i * e for i, e in enumerate(E[::-1])][:0:-1], [i * (i - 1) * e for i, e in enumerate(E[::-1])][:1:-1]
        t, tp = Bh[0] / E[0], -((Bh[0] / E[0]) ** 2)
        for s in mp.polyroots(E, maxsteps=400, extraprec=4 * dps) if k > 1 else []:
            zeta = (s - mp.sqrt(s * s - 4)) / 2
            zeta = 1 / zeta if abs(zeta) > 1 else zeta
            g, gp = zeta / (zeta**2 - 1), -(zeta**2 + 1) * zeta**2 / (zeta**2 - 1) ** 3
            b, e1, db = P(Bh, s), P(dE, s), P(dB, s)
            ds = -b / e1
            t += b / e1 * g
            tp += (db * ds * e1 - b * (P(ddE, s) * ds + db)) / e1**2 * g + b / e1 * gp * ds
        return complex(t), complex(tp)


def farima_terms(model, m, dps=30):
    """(T(m), T'(m), Im of the log potential) of the Toeplitz limit law of a FARIMA model, by mpmath quadrature.

    f = |theta(e^{iw})|^2 / |phi(e^{iw})|^2 (4 sin^2(w/2))^(-d) is built here in
    mpmath from ``model.ar``, ``model.ma`` and ``model.d``.  T, T' and the
    potential are the means over w in [0, pi] of f / (1 + f m), -(f / (1 + f m))^2
    and arg(1 + f m), in (0, pi) for Im m > 0.  Each is one ``mp.quad``
    (tanh-sinh) on 8 equal pieces of [0, pi], split again at the real roots of
    f = Re(-1/m) (``_branch_roots``), beside which the pole of 1 / (1 + f m)
    sits, and ArithmeticError is raised where quad's error estimate exceeds
    10^(10 - dps) of the value.  f is evaluated once per node.  Independent of
    specmp's laws and of SciPy; Python numbers out.
    """
    roots = _branch_roots(SpectralDensity(model), (-1.0 / complex(m)).real)
    with mp.workdps(dps):
        ar, ma = ([mp.mpf(c) for c in (*cs[::-1], 1.0)] for cs in (model.ar, model.ma))
        d, m = mp.mpf(model.d), mp.mpc(m)
        points = sorted({mp.pi * k / 8 for k in range(9)} | {mp.mpf(r) for r in roots[~np.isnan(roots)].tolist()})

        @functools.cache
        def f(w):
            z = mp.expj(w)
            return abs(mp.polyval(ma, z) / mp.polyval(ar, z)) ** 2 * (4 * mp.sin(w / 2) ** 2) ** -d

        out = []
        for g in (lambda w: f(w) / (1 + f(w) * m), lambda w: -((f(w) / (1 + f(w) * m)) ** 2), lambda w: mp.arg(1 + f(w) * m)):
            v, err = mp.quad(g, points, error=True)
            if not err <= mp.mpf(10) ** (10 - dps) * abs(v):
                raise ArithmeticError(f"mp.quad's error estimate {mp.nstr(err, 3)} exceeds 10^{10 - dps} of {mp.nstr(v, 3)}")
            out.append(v / mp.pi)
        return complex(out[0]), complex(out[1]), float(out[2])
