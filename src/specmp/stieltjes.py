"""Stieltjes transform of the sample-covariance limit law, and its inversion.

The limiting spectral distribution F of p^{-1} X X^T is characterized by the
unique map m from the upper half-plane to itself with

    1/m(z) = -z + y * integral of lam / (1 + lam m(z)) against the Toeplitz
             eigenvalue limit law,

where y is the limiting column/row ratio n/p.  This module solves that fixed
point from a one-atom fit to its cold start, gives the Marchenko-Pastur
closed form and the ARMA(1,1) quartic as oracles, locates the upper support
edge, and recovers the density and the distribution function from solves at
one small offset above the real axis.  The solver, the edge and the CDF read
each limit law directly, and exactly: its (T, T') evaluator ``terms``, its log
potential ``potential``, its ``mean`` and its ``top``.  The atoms and the Szegő
law are :class:`~specmp.toeplitz_lsd.Rule` s, the exact ARMA law has no nodes,
and none of the three reads nodes or weights.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .toeplitz_lsd import ExactARMALSD, Rule

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


# a solve stops when the update |dm| is at most UPDATE_TOL |m|, relative at
# every scale of m, after at most MAX_ITER sweeps
UPDATE_TOL = 1e-12
MAX_ITER = 100_000

# smallest size of a default density grid
GRID_MIN_SIZE = 16

# height of the Stieltjes-Perron inversion above the real axis, relative to
# the top of the grid.  The bias it leaves scales with it: on the 512-point
# Marchenko-Pastur tables it is at most 1e-6 relative (3e-5 at y = 1) at
# x >= 1e-6 grid[-1] and 1e-3 inside the edges, and larger only at the few
# points within a few offsets of a hard edge at zero.  Smaller offsets cost
# few sweeps: a table takes 2,201, 2,251 and 2,302 at 1e-8, 1e-10 and 1e-12
# for FARIMA d = -0.25 at y = 0.9, and 2,188, 2,232 and 2,277 on the exact
# law of ARMA(1,1) at y = 1.
OFFSET = 1e-8


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed; carries the last iterate and its defect."""

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
    """Value of the Stieltjes transform at one point, solved on the law itself."""

    z: complex
    m: complex
    residual: float
    iterations: int

    def __post_init__(self):
        if not self.m.imag > 0.0:
            raise ValueError("Stieltjes transform must map into the upper half-plane")


def _iterate(TTp, y, z, m, first=None):
    """Guarded Newton on M(m) = 1 + m z - y m T(m), falling back to a damped step.

    The map G(m) = 1/(-z + y T(m)) is a holomorphic self-map of the upper
    half-plane with the Stieltjes value as its unique interior fixed point, so
    the damped iteration m <- (m + G(m))/2 (which turns rotation-dominant
    multipliers into contractions) converges from anywhere.  Near the real axis
    its linear rate degrades like 1 - O(Im z), so each sweep first tries the
    full Newton step once, and keeps it only when it is finite, in the upper
    half-plane and lowers the hyperbolic displacement
    |G(m) - m|^2 / (Im m Im G(m)); otherwise the sweep takes the damped step.
    That merit is non-increasing along the exact orbit, diverges at the
    boundary (which is where the cleared equation hides spurious roots), and
    vanishes only at the fixed point, so Newton can never be trapped away from
    the answer.  The merit has a rounding floor, though, below which no
    candidate lowers it; a full Newton step in the upper half-plane that
    already meets the stopping rule |dm| <= UPDATE_TOL |m + dm|
    therefore ends the solve without the merit test or an evaluation.  The
    start evaluates (T, T') once, or takes ``first`` as (T, T') at m; a sweep
    evaluates at most twice.  It runs on Python scalars.  At most MAX_ITER
    sweeps; returns (m, sweeps).  A ConvergenceError carries the defect
    |1/m + z - y T(m)| at its last m.
    """
    t, tp = first or TTp(m)
    g = 1.0 / (-z + y * t)
    if g.imag > 0.0 and cmath.isfinite(g):
        # abs(d) ** 2 / (Im m Im g) would raise on Python floats where the
        # square overflows or the product underflows; this form gives inf
        d = g - m
        cur = (d.real * d.real + d.imag * d.imag) / m.imag / g.imag
    else:
        g, cur = None, math.inf
    for it in range(1, MAX_ITER + 1):
        dM = z - y * (t + m * tp)
        newton = dM != 0.0 and cmath.isfinite(dM)
        if newton:
            step = -(1.0 + m * z - y * m * t) / dM
            nxt = m + step
            newton = nxt.imag > 0.0 and cmath.isfinite(nxt)
            if newton and abs(step) <= UPDATE_TOL * abs(nxt):
                return nxt, it
        # the Newton candidate, if any, then the damped step if the merit rejects it
        for damped in (not newton, True):
            if damped:
                if g is None:
                    # analytically impossible; reachable only through quadrature noise
                    raise ConvergenceError("iterate left the upper half-plane", z, m, abs(1.0 / m + z - y * t), it)
                nxt = 0.5 * (m + g)
            t2, tp2 = TTp(nxt)
            g2 = 1.0 / (-z + y * t2)
            if g2.imag > 0.0 and cmath.isfinite(g2):
                d = g2 - nxt
                new = (d.real * d.real + d.imag * d.imag) / nxt.imag / g2.imag
            else:
                g2, new = None, math.inf
            if damped or new < cur:
                break
        done = abs(nxt - m) <= UPDATE_TOL * abs(nxt)
        m, t, tp, g, cur = nxt, t2, tp2, g2, new
        if done:
            return m, it
    raise ConvergenceError("no convergence", z, m, abs(1.0 / m + z - y * t), MAX_ITER)


def _one_atom(y, z, a, b):
    """Transform of the one-atom law with level b and level times mass a.

    Its T = a/(1 + b m), so m solves -z b m^2 + c m = 1, c = (y a - b) - z (z
    last keeps its digits where y a = b).  The roots q/(z b) and 1/q, with
    q = (c +- w)/2, w^2 = c^2 - 4 z b and the sign that makes |q| the larger,
    do not cancel; the transform is the larger-Im root, the same at every
    scale: where max(|c|, sqrt|z b|) is beyond 1e+-100, c and z b are taken
    times t and t^2, t the power of 2 at its reciprocal, which rounds nothing.
    ArithmeticError where the root is not finite or not in the upper
    half-plane (Im m underflows), or z b or q is 0.
    """
    c, zb, t = y * a - b - z, z * b, 1.0
    ac, azb = abs(c), abs(zb)
    if not (ac < 1e100 and azb < 1e200 and (ac > 1e-100 or azb > 1e-200)):
        t = math.ldexp(2.0, -math.frexp(max(ac, math.sqrt(abs(z)) * math.sqrt(abs(b))))[1])
        c, zb = c * t, z * t * (b * t)
    w = cmath.sqrt(c * c - 4.0 * zb)
    q = 0.5 * (c + w if (c.conjugate() * w).real >= 0.0 else c - w)
    r1, r2 = q / zb * t, t / q
    root = r1 if r1.imag > r2.imag else r2
    if not (root.imag > 0.0 and cmath.isfinite(root)):
        raise ArithmeticError(f"no upper-half-plane root at z={z}")
    return root


def _refit(TTp, y, z, m):
    """(m, first, sweeps): the start m moved to the one-atom law with its (T, T').

    Level b and level times mass a give T = a/(1 + b m), so b = -T'/(T + m T')
    and a = T^2/(T + m T').  That law's transform (``_one_atom``), if more than
    UPDATE_TOL |m| away, is one sweep; else m stays, with (T, T') as ``first``.
    """
    t, tp = TTp(m)
    try:
        den = t + m * tp
        root = _one_atom(y, z, t * t / den, -tp / den)
        if abs(root - m) > UPDATE_TOL * abs(m):
            return root, None, 1
    except ArithmeticError:  # T + m T' = 0, b = 0, q = 0, an overflow or no root
        pass
    return m, (t, tp), 0


def solve_fixed_point(lsd, y, z, initial=None):
    """Stieltjes transform m(z) of the limit law of p^{-1} X X^T.

    ``lsd`` is the Toeplitz eigenvalue limit (AtomicLSD, ExactARMALSD or
    AbsContinuousLSD), ``y`` the limiting n/p ratio, and z a point with
    Im z > 0.  Every law's ``terms`` is exact, so the solve is one
    ``_iterate`` on it, and the residual is the defect of the returned m there,
    one evaluation more.  Without a usable ``initial`` the solve starts from
    the law with all its mass at the mean level (``_one_atom``: ArithmeticError
    where its Im m underflows), refit to the one-atom law with the law's
    (T, T') there (``_refit``), which counts as a sweep when it moves m.
    MAX_ITER caps the sweeps.  ``m`` is a Python complex and ``residual`` a
    Python float.
    """
    z = complex(z)
    if not (y > 0.0 and math.isfinite(y)):
        raise ValueError("aspect ratio y must be positive and finite")
    if not z.imag > 0.0:
        raise ValueError("z must lie in the upper half-plane")
    if not isinstance(lsd, (Rule, ExactARMALSD)):
        raise TypeError(f"unsupported limit-law type {type(lsd).__name__}")
    y = float(y)
    if initial is None or not initial.imag > 0.0:
        # -1/z sits among the law's real poles -1/lam when z is near the real axis
        m, first, iterations = _refit(lsd.terms, y, z, _one_atom(y, z, lsd.mean, lsd.mean))
    else:
        m, first, iterations = complex(initial), None, 0
    m, its = _iterate(lsd.terms, y, z, m, first)
    residual = abs(1.0 / m + z - y * lsd.terms(m)[0])
    return StieltjesSolution(z=z, m=m, residual=residual, iterations=iterations + its)


def mp_support(y):
    """Support endpoints (1 -+ sqrt(y))^2 of the Marchenko-Pastur bulk."""
    if not (y > 0.0 and math.isfinite(y)):
        raise ValueError("aspect ratio y must be positive and finite")
    r = math.sqrt(y)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


def mp_stieltjes(y, z):
    """Closed-form Marchenko-Pastur transform, the one-atom law at level 1: the
    upper-half-plane root of z m^2 + (z + 1 - y) m + 1 = 0 (``_one_atom``)."""
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError("z must lie in the upper half-plane")
    return _one_atom(y, z, 1.0, 1.0)


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
    """Tabulated limit law of p^{-1} X X^T plus the point mass at zero.

    On ``grid``, ``values`` is the density (1/pi) Im m(x + i offset) less the
    point mass, and ``cdf`` the distribution function with it.
    """

    grid: np.ndarray
    values: np.ndarray
    cdf: np.ndarray
    mass_at_zero: float
    y: float
    offset: float = 0.0
    iterations: int = 0
    max_residual: float = 0.0

    def __post_init__(self):
        for name in ("grid", "values", "cdf"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def invert_to_density(lsd, y, grid=None):
    """Density and distribution function of the limit law on a grid.

    One solve per grid point x at z = x + i delta, delta = OFFSET * grid[-1],
    each warm-started from the previous m.  With a = max(0, 1 - y) the point
    mass at zero, the density is (1/pi) Im(m + a/z), clipped at 0, and F is
    -Im Phi(z)/pi for the log potential Phi = -log m - z m - 1
    + y integral log(1 + lam m) dH (Phi' = -m), with a in place of the mass's
    smeared term -a arg(-z)/pi.  The integral is the law's ``potential``.  The
    solves run under ``np.errstate(all="ignore")``: a NaN or overflow (at extreme y, say)
    surfaces as a ConvergenceError tagged with x.
    """
    if grid is None:
        grid = default_grid(lsd, y)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] <= 0.0:
        raise ValueError("grid must be nonempty and strictly increasing with positive entries")

    delta = OFFSET * float(grid[-1])
    atom = max(0.0, 1.0 - y)
    ms = np.empty(grid.size, dtype=complex)
    m, iterations, max_residual = None, 0, 0.0
    with np.errstate(all="ignore"):
        for i, x in enumerate(grid):
            z = complex(x, delta)
            try:
                sol = solve_fixed_point(lsd, y, z, initial=m)
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"inversion failed at x={float(x)}", z, exc.m, exc.residual, exc.iterations
                ) from exc
            m = ms[i] = sol.m
            iterations += sol.iterations
            max_residual = max(max_residual, sol.residual)
        vals = [(m + atom / complex(x, delta)).imag / math.pi for x, m in zip(grid, ms.tolist())]
        z = grid + 1j * delta
        args = np.array([lsd.potential(m) for m in ms])
        cdf = (np.angle(ms) - y * args + (z * ms).imag + atom * np.angle(-z)) / math.pi + atom
    return LimitingDensity(
        grid=grid,
        values=np.clip(vals, 0.0, None),
        cdf=cdf,
        mass_at_zero=atom,
        y=y,
        offset=delta,
        iterations=iterations,
        max_residual=max_residual,
    )


def lsd_cdf(density, x):
    """Distribution function of a tabulated limit law at x: 0 below 0, the
    point mass at 0, then linear between the table's points (``density.cdf``
    on ``density.grid``), which alone are exact, and F(top) past the top."""
    xq = np.asarray(x, dtype=float)
    above = np.interp(xq, np.concatenate(([0.0], density.grid)), np.concatenate(([density.mass_at_zero], density.cdf)))
    out = np.where(xq < 0.0, 0.0, above)
    return float(out) if xq.ndim == 0 else out


def estimate_support_upper(lsd, y):
    """Upper edge of the support of the limit law (Silverstein & Choi 1995).

    On real m in (-1/max lam, 0) the inverse x(m) = -1/m + y T(m) of the
    transform has the edge as its minimum.  There x'(m) = 1/m^2 + y T'(m)
    rises from -inf to +inf, so one bisection on the law's ``terms`` finds it,
    with max lam the law's ``top``: the largest atom, or max f.
    """
    if not (y > 0.0 and math.isfinite(y)):
        raise ValueError("aspect ratio y must be positive and finite")
    # from 4 ulps in from -1/top, where 1 + top m rounds to 0 (an edge closer than that is x there), halve
    # to adjacent floats on the sign of m^2 x'(m) in Python floats, which do not overflow to a wrong sign
    lo, hi = -(1.0 - 2.0**-50) / lsd.top, 0.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if 1.0 + y * (mid * mid) * lsd.terms(mid)[1].real < 0.0:
            lo = mid
        else:
            hi = mid
    edge = -1.0 / hi + y * lsd.terms(hi)[0].real
    if not math.isfinite(edge):
        raise ArithmeticError(f"the support's upper edge overflows at y={y}")
    return edge


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
    if not math.isfinite(hi):
        raise ArithmeticError(f"the density grid's end, 5% past the support's upper edge, overflows at y={y}")
    n_geo = min(max(32, size // 4), size // 2)
    split = 0.05 * hi
    geo = np.geomspace(1e-8 * hi, split, n_geo, endpoint=False)
    lin = np.linspace(split, hi, size - n_geo)
    return np.concatenate([geo, lin])
