"""Stieltjes transform of the sample-covariance limit law, and its inversion.

The limiting spectral distribution F of p^{-1} X X^T is characterized by the
unique map m from the upper half-plane to itself with

    1/m(z) = -z + y * integral of lam / (1 + lam m(z)) against the Toeplitz
             eigenvalue limit law,

where y is the limiting column/row ratio n/p.  This module solves that fixed
point, gives the Marchenko-Pastur closed form and the ARMA(1,1) quartic as
oracles, locates the upper support edge, and recovers the density via
Stieltjes-Perron inversion at one small offset above the real axis.  The
solver and the edge see a limit law only as quadrature nodes and weights,
``lsd.rule(N)``: its atoms, or the Szegő rule of a continuous law.
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .toeplitz_lsd import AbsContinuousLSD, AtomicLSD, _bisect

__all__ = [
    "StieltjesSolution",
    "ConvergenceError",
    "LimitingDensity",
    "solve_fixed_point",
    "mp_support",
    "mp_stieltjes",
    "mp_density",
    "arma11_residual",
    "invert_to_density",
    "lsd_cdf",
    "estimate_support_upper",
    "default_grid",
]


# first and largest sizes of the Szegő rule for a continuous limit law
RULE_START_SIZE = 256
RULE_MAX_SIZE = 8192

# a solve stops when the update |dm| is at most UPDATE_TOL (1 + |m|), after at
# most MAX_ITER sweeps on one rule
UPDATE_TOL = 1e-12
MAX_ITER = 100_000

# smallest size of a default density grid
GRID_MIN_SIZE = 16

# height of the Stieltjes-Perron inversion above the real axis, relative to
# the top of the grid.  The bias it leaves scales with it: on the 512-point
# Marchenko-Pastur tables it is at most 1e-6 relative (3e-5 at y = 1) 1e-3
# inside the edges, and larger only at the few points within a few offsets of
# a hard edge at zero.  Smaller offsets make solves near the axis slow or fail
# where H reaches 0 and y is near 1: at 1e-10 FARIMA d = -0.25 at y = 0.9
# takes 2.1 s instead of 0.3 s, and at 1e-12 it and ARMA(1,1) at y = 1 do not
# converge.
OFFSET = 1e-8


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed; carries the last iterate and residual."""

    def __init__(self, message, z, m, residual, iterations):
        super().__init__(
            f"{message} at z={z}: last m={m}, residual={residual:.3e}, "
            f"iterations={iterations}"
        )
        self.z = z
        self.m = m
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class StieltjesSolution:
    """Value of the Stieltjes transform at one point of the upper half-plane."""

    z: complex
    m: complex
    residual: float
    iterations: int

    def __post_init__(self):
        if not self.m.imag > 0.0:
            raise ValueError("Stieltjes transform must map into the upper half-plane")


# the (T, T') evaluator of each live rule, by id of its node array, with a weak
# reference to the weights it was built for (laws may share a node array); an
# entry leaves when its nodes are freed, so it lives no longer than its rule
_EVALUATORS = {}


def _terms(lam, W):
    """(T, T') at m in one pass over a rule: T(m) = sum W lam / (1 + lam m).

    The evaluator is built once per rule and kept as long as the rule's node
    array lives, so the complex casts of the nodes and weights are made once
    per rule.  It is reentrant: each evaluation builds 1/(1 + lam m) and its
    square in place in a complex array of its own, so threads can share it.
    T and T' are returned as Python complex numbers.  The rule's arrays must
    not change.
    """
    key = id(lam)
    cached = _EVALUATORS.get(key)
    if cached is not None and cached[0]() is W:
        return cached[1]
    lamc = lam.astype(complex)
    wl = W * lamc
    wl2 = wl * lam

    def TTp(m):
        q = lamc * m
        q += 1.0
        np.reciprocal(q, out=q)
        t = complex(q.dot(wl))
        q *= q
        return t, -complex(q.dot(wl2))

    if cached is None:
        weakref.finalize(lam, _EVALUATORS.pop, key, None)
    _EVALUATORS[key] = (weakref.ref(W), TTp)
    return TTp


def _iterate(TTp, y, z, m):
    """Guarded Newton on M(m) = 1 + m z - y m T(m), falling back to a damped step.

    The map G(m) = 1/(-z + y T(m)) is a holomorphic self-map of the upper
    half-plane with the Stieltjes value as its unique interior fixed point, so
    the damped iteration m <- (m + G(m))/2 (which turns rotation-dominant
    multipliers into contractions) converges from anywhere.  Near the real axis
    its linear rate degrades like 1 - O(Im z), so each sweep first tries a
    Newton step, halved up to ten times, and accepts it only when it lowers the
    hyperbolic displacement |G(m) - m|^2 / (Im m Im G(m)); that merit is
    non-increasing along the exact orbit, diverges at the boundary (which is
    where the cleared equation hides spurious roots), and vanishes only at the
    fixed point, so Newton can never be trapped away from the answer.  The
    merit has a rounding floor, though, below which no candidate lowers it; a
    full Newton step that already meets the stopping rule |dm| <= UPDATE_TOL
    (1 + |m|) is therefore taken without the merit test, and ends the solve.
    The sweep runs on Python scalars.  At most MAX_ITER sweeps; returns
    (m, sweeps, T(m)).
    """

    def state(mm):
        t, tp = TTp(mm)
        g = 1.0 / (-z + y * t)
        if not (g.imag > 0.0 and cmath.isfinite(g)):
            return None, math.inf, t, tp
        # abs(d) ** 2 / (Im m Im g) would raise on Python floats where the
        # square overflows or the product underflows; this form gives inf
        d = g - mm
        return g, (d.real * d.real + d.imag * d.imag) / mm.imag / g.imag, t, tp

    g, cur, t, tp = state(m)
    for it in range(1, MAX_ITER + 1):
        nxt = None
        dM = z - y * (t + m * tp)
        if dM != 0.0 and cmath.isfinite(dM):
            step = -(1.0 + m * z - y * m * t) / dM
            for k in range(10):
                cand = m + 0.5**k * step
                if cand.imag > 0.0 and cmath.isfinite(cand):
                    cs = state(cand)
                    if cs[1] < cur or (k == 0 and abs(step) <= UPDATE_TOL * (1.0 + abs(cand))):
                        nxt = cand
                        break
        if nxt is None:
            if g is None:
                # analytically impossible; reachable only through quadrature noise
                raise ConvergenceError("iterate left the upper half-plane", z, m, cur, it)
            nxt = 0.5 * (m + g)
            cs = state(nxt)
        done = abs(nxt - m) <= UPDATE_TOL * (1.0 + abs(nxt))
        m, (g, cur, t, tp) = nxt, cs
        if done:
            return m, it, t
    raise ConvergenceError("no convergence", z, m, cur, MAX_ITER)


def solve_fixed_point(lsd, y, z, initial=None):
    """Stieltjes transform m(z) of the limit law of p^{-1} X X^T.

    ``lsd`` is the Toeplitz eigenvalue limit (AtomicLSD or AbsContinuousLSD),
    ``y`` the limiting n/p ratio, and z a point with Im z > 0.  The law is
    solved on its rule ``lsd.rule(N)``: the Szegő rule of a continuous law, or
    the atoms, which are exact at every N.  N doubles from RULE_START_SIZE
    until the 2N rule moves the integral term T by at most 1e-9 (1 + |T|); the
    residual is the N-rule solution's defect on the 2N rule, and a Newton step
    on the 2N rule ends the solve.  Near the real axis larger rules are needed;
    the RULE_MAX_SIZE rule is the last.  A rule whose 2N rule is the same pair
    of arrays is exact, and the solve stops on it without the doubling check;
    there, as on the last rule, the residual is the defect on the solve's own
    rule.  MAX_ITER caps the sweeps on one rule.  Without a usable ``initial``
    the solve starts from the law with all its mass at the mean level, which
    is exact for a single atom.  ``m`` is a Python complex and ``residual`` a
    Python float.
    """
    z = complex(z)
    if not (y > 0.0 and math.isfinite(y)):
        raise ValueError("aspect ratio y must be positive and finite")
    if not z.imag > 0.0:
        raise ValueError("z must lie in the upper half-plane")
    if not isinstance(lsd, (AtomicLSD, AbsContinuousLSD)):
        raise TypeError(f"unsupported limit-law type {type(lsd).__name__}")
    y = float(y)

    size = RULE_START_SIZE
    lam, W = lsd.rule(size)
    if initial is None or not initial.imag > 0.0:
        # -1/z sits among the rule's real poles -1/lam when z is near the real axis
        mean = float(W.dot(lam))
        m = mp_stieltjes(y, z / mean) / mean
    else:
        m = complex(initial)
    iterations = 0
    while True:
        m, its, t = _iterate(_terms(lam, W), y, z, m)
        iterations += its
        finer = lsd.rule(2 * size) if 2 * size <= RULE_MAX_SIZE else (lam, W)
        if finer[0] is lam and finer[1] is W:
            # the last rule, or an exact one: the residual is on its own rule
            residual = abs(1.0 / m + z - y * t)
            break
        size *= 2
        lam, W = finer
        t2, tp2 = _terms(lam, W)(m)
        residual = abs(1.0 / m + z - y * t2)
        if abs(t2 - t) <= 1e-9 * (1.0 + abs(t2)):
            # the rule's error in T moves m by about y |m|^2 |t2 - t|, far
            # more than the check's tolerance when |m| is large
            fine = m - (1.0 + m * z - y * m * t2) / (z - y * (t2 + m * tp2))
            if fine.imag > 0.0:
                m = fine
            break
    return StieltjesSolution(z=z, m=m, residual=residual, iterations=iterations)


def mp_support(y):
    """Support endpoints (1 -+ sqrt(y))^2 of the Marchenko-Pastur bulk."""
    if not (y > 0.0 and math.isfinite(y)):
        raise ValueError("aspect ratio y must be positive and finite")
    r = math.sqrt(y)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


def mp_stieltjes(y, z):
    """Closed-form Marchenko-Pastur transform: the upper-half-plane root of
    z m^2 + (z + 1 - y) m + 1 = 0."""
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError("z must lie in the upper half-plane")
    b = z + 1.0 - y
    sq = cmath.sqrt(b * b - 4.0 * z)
    roots = ((-b + sq) / (2.0 * z), (-b - sq) / (2.0 * z))
    m = max(roots, key=lambda r: r.imag)
    if not m.imag > 0.0:
        raise ArithmeticError(f"no upper-half-plane root at z={z}")
    return m


def mp_density(y, x):
    """Marchenko-Pastur density sqrt((x+ - x)(x - x-)) / (2 pi x) on its bulk."""
    lo, hi = mp_support(y)
    x = np.asarray(x, dtype=float)
    # points off the bulk evaluate at the upper edge, where the density is 0
    xi = np.where((x > lo) & (x < hi) & (x > 0), x, hi)
    out = np.sqrt((hi - xi) * (xi - lo)) / (2.0 * math.pi * xi)
    return float(out) if out.ndim == 0 else out


def arma11_residual(phi, theta, y, z, m):
    """Defect of a candidate m in the ARMA(1,1) quartic transform equation.

    Evaluates 1/m + z - y [theta/(theta m - phi)
    - (theta+phi)(1+theta*phi) / ((theta m - phi) S(m))] with
    S(m) = sqrt((1-phi)^2 + m (1+theta)^2) sqrt((1+phi)^2 + m (1-theta)^2).
    Both factors under the roots stay in the closed upper half-plane whenever
    Im m > 0, so per-factor principal roots give the branch that is continuous
    on the upper half-plane and matches the m -> 0 (large z) asymptotics.
    Returns 0 exactly at the transform of the limit law; (phi, theta) = (0, 0)
    reduces to the Marchenko-Pastur quadratic.
    """
    z = complex(z)
    m = complex(m)
    if phi == 0.0 and theta == 0.0:
        return 1.0 / m + z - y / (1.0 + m)
    den = theta * m - phi
    S = cmath.sqrt((1.0 - phi) ** 2 + m * (1.0 + theta) ** 2) * cmath.sqrt(
        (1.0 + phi) ** 2 + m * (1.0 - theta) ** 2
    )
    rhs = -z + theta * y / den - (theta + phi) * (1.0 + theta * phi) * y / (den * S)
    return 1.0 / m - rhs


@dataclass(frozen=True)
class LimitingDensity:
    """Tabulated limit density of p^{-1} X X^T plus the point mass at zero.

    ``values`` is (1/pi) Im m(x + i offset) on ``grid`` with the point mass
    removed; ``offset`` is the absolute height above the real axis.
    """

    grid: np.ndarray
    values: np.ndarray
    mass_at_zero: float
    y: float
    offset: float = 0.0
    iterations: int = 0
    max_residual: float = 0.0

    def __post_init__(self):
        for name in ("grid", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def invert_to_density(lsd, y, grid=None):
    """Stieltjes-Perron inversion: density of the limit law on a grid.

    p(x) is (1/pi) Im m(x + i delta), clipped at 0, after the known point mass
    max(0, 1 - y)/(-z) at the origin is subtracted; delta = OFFSET * grid[-1].
    One solve per grid point, each warm-started from the previous point's m.
    The solves run under one ``np.errstate(all="ignore")``: a NaN or
    overflow (at extreme y, say) is caught by the solver's finiteness checks
    and surfaces as the ConvergenceError, not as a NumPy warning.  Solver
    failures propagate as ConvergenceError tagged with the offending x.
    """
    if grid is None:
        grid = default_grid(lsd, y)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0) or grid[0] <= 0.0:
        raise ValueError("grid must be strictly increasing with positive entries")

    delta = OFFSET * float(grid[-1])
    atom = max(0.0, 1.0 - y)
    vals = np.empty(grid.size)
    m = None
    iterations = 0
    max_residual = 0.0
    with np.errstate(all="ignore"):
        for i, x in enumerate(grid):
            z = complex(x, delta)
            try:
                sol = solve_fixed_point(lsd, y, z, initial=m)
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"inversion failed at x={float(x)}", z, exc.m, exc.residual, exc.iterations
                ) from exc
            m = sol.m
            vals[i] = (m + atom / z).imag / math.pi
            iterations += sol.iterations
            max_residual = max(max_residual, sol.residual)
    return LimitingDensity(
        grid=grid,
        values=np.clip(vals, 0.0, None),
        mass_at_zero=atom,
        y=y,
        offset=delta,
        iterations=iterations,
        max_residual=max_residual,
    )


def lsd_cdf(density, x):
    """Distribution function of a limit density given on a grid.

    Zero below zero; at zero the point mass, plus 2 x0 p(x0) for the mass below
    the first grid point x0 (exact for a c x^{-1/2} hard edge, negligible below
    a soft edge), plus the trapezoidal accumulation of the density; linear
    between 0 and x0.  Monotone nondecreasing and approximately 1 at the top of
    the grid.
    """
    g = density.grid
    v = density.values
    cum = np.concatenate(([0.0], np.cumsum(np.diff(g) * (v[1:] + v[:-1]) / 2.0)))
    tail = 2.0 * g[0] * v[0]
    xq = np.asarray(x, dtype=float)
    above = density.mass_at_zero + np.interp(xq, np.concatenate(([0.0], g)), np.concatenate(([0.0], tail + cum)))
    out = np.where(xq < 0.0, 0.0, above)
    return float(out) if xq.ndim == 0 else out


def estimate_support_upper(lsd, y):
    """Upper edge of the support of the limit law (Silverstein & Choi 1995).

    On real m in (-1/max lam, 0) the inverse x(m) = -1/m + y T(m) of the
    transform has the edge as its minimum.  There x'(m) = 1/m^2 + y T'(m)
    rises from -inf to +inf, so one bisection on the nodes of
    ``lsd.rule(RULE_MAX_SIZE)`` finds it.
    """
    if not (y > 0.0 and math.isfinite(y)):
        raise ValueError("aspect ratio y must be positive and finite")
    lam, W = lsd.rule(RULE_MAX_SIZE)
    TTp = _terms(lam, W)

    def slope(m):
        # _bisect passes the one bracket's midpoint as a length-1 array
        return 1.0 / m**2 + y * TTp(m[0])[1].real

    m = float(_bisect(slope, [-1.0 / lam.max()], [0.0], np.zeros(1))[0])
    return float(-1.0 / m + y * TTp(m)[0].real)


def default_grid(lsd, y, size=512):
    """Density grid of ``size`` points: geometric near zero, then linear out
    past the support.

    The geometric head resolves the inverse-square-root lower edge that occurs
    when the support touches zero (y = 1); its start scales with the support so
    the mass below the grid is negligible.  The grid ends 5% past the upper
    edge of the support.
    """
    size = int(size)
    if size < GRID_MIN_SIZE:
        raise ValueError(f"grid size must be at least {GRID_MIN_SIZE}")
    hi = 1.05 * estimate_support_upper(lsd, y)
    n_geo = min(max(32, size // 4), size // 2)
    split = 0.05 * hi
    geo = np.geomspace(1e-8 * hi, split, n_geo, endpoint=False)
    lin = np.linspace(split, hi, size - n_geo)
    return np.concatenate([geo, lin])
