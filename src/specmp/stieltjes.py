"""Stieltjes transform of the sample-covariance limit law, and its inversion.

The limiting spectral distribution F of p^{-1} X X^T is characterized by the
unique map m from the upper half-plane to itself with

    1/m(z) = -z + y * integral of lam / (1 + lam m(z)) against the Toeplitz
             eigenvalue limit law,

where y is the limiting column/row ratio n/p.  This module solves that fixed
point, gives the Marchenko-Pastur closed form and the ARMA(1,1) quartic as
oracles, locates the upper support edge, and recovers the density via
Stieltjes-Perron inversion with an epsilon extrapolation.  The solver and the
edge see a limit law only as quadrature nodes and weights, ``lsd.rule(N)``:
its atoms, or the Szegő rule of a continuous law.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .toeplitz_lsd import AbsContinuousLSD, AtomicLSD, _bisect

__all__ = [
    "SolverConfig",
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


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point solver settings.

    ``tol`` bounds the final update |dm|.  The quadrature size for a
    continuous limit law is chosen per solve by :func:`solve_fixed_point`.
    """

    tol: float = 1e-12
    max_iter: int = 100_000

    def __post_init__(self):
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be at least 1")


_DEFAULT_CONFIG = SolverConfig()

# first and largest sizes of the Szegő rule for a continuous limit law
RULE_START_SIZE = 256
RULE_MAX_SIZE = 8192

# geometric offsets for the Stieltjes-Perron limit; the tail resolves the
# steep distribution rise near zero when the support touches the origin (y = 1)
DEFAULT_EPS_SCHEDULE = (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4)


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


def _terms(lam, W):
    """(T, T') at m in one pass over a rule: T(m) = sum W lam / (1 + lam m)."""
    wl = (W * lam).astype(complex)
    wl2 = wl * lam

    def TTp(m):
        q = 1.0 / (1.0 + lam * m)
        return q @ wl, -(q * q) @ wl2

    return TTp


def _iterate(TTp, y, z, cfg, m):
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
    fixed point, so Newton can never be trapped away from the answer.  Returns
    (m, sweeps, T(m)).
    """

    def state(mm):
        t, tp = TTp(mm)
        g = 1.0 / (-z + y * t)
        if not (g.imag > 0.0 and cmath.isfinite(g)):
            return None, math.inf, t, tp
        return g, abs(g - mm) ** 2 / (mm.imag * g.imag), t, tp

    g, cur, t, tp = state(m)
    for it in range(1, cfg.max_iter + 1):
        nxt = None
        dM = z - y * (t + m * tp)
        if dM != 0.0 and cmath.isfinite(dM):
            step = -(1.0 + m * z - y * m * t) / dM
            for k in range(10):
                cand = m + 0.5**k * step
                if cand.imag > 0.0 and cmath.isfinite(cand):
                    cs = state(cand)
                    if cs[1] < cur:
                        nxt = cand
                        break
        if nxt is None:
            if g is None:
                # analytically impossible; reachable only through quadrature noise
                raise ConvergenceError("iterate left the upper half-plane", z, m, cur, it)
            nxt = 0.5 * (m + g)
            cs = state(nxt)
        done = abs(nxt - m) <= cfg.tol * (1.0 + abs(nxt))
        m, (g, cur, t, tp) = nxt, cs
        if done:
            return m, it, t
    raise ConvergenceError("no convergence", z, m, cur, cfg.max_iter)


def solve_fixed_point(lsd, y, z, cfg=None, initial=None):
    """Stieltjes transform m(z) of the limit law of p^{-1} X X^T.

    ``lsd`` is the Toeplitz eigenvalue limit (AtomicLSD or AbsContinuousLSD),
    ``y`` the limiting n/p ratio, and z a point with Im z > 0.  The law is
    solved on its rule ``lsd.rule(N)``: the Szegő rule of a continuous law, or
    the atoms, which are exact at every N.  N doubles from RULE_START_SIZE
    until the 2N rule moves the integral term T by at most 1e-9 (1 + |T|); the
    residual is the N-rule solution's defect on the 2N rule, and a Newton step
    on the 2N rule ends the solve.  Near the real axis larger rules are needed;
    the RULE_MAX_SIZE rule is the last.  Without a usable ``initial`` the
    solve starts from the law with all its mass at the mean level, which is
    exact for a single atom.
    """
    cfg = cfg or _DEFAULT_CONFIG
    z = complex(z)
    if not (y > 0.0 and math.isfinite(y)):
        raise ValueError("aspect ratio y must be positive and finite")
    if not z.imag > 0.0:
        raise ValueError("z must lie in the upper half-plane")
    if not isinstance(lsd, (AtomicLSD, AbsContinuousLSD)):
        raise TypeError(f"unsupported limit-law type {type(lsd).__name__}")

    size = RULE_START_SIZE
    lam, W = lsd.rule(size)
    m = initial
    if m is None or not m.imag > 0.0:
        # -1/z sits among the rule's real poles -1/lam when z is near the real axis
        mean = W @ lam
        m = mp_stieltjes(y, z / mean) / mean
    iterations = 0
    while True:
        m, its, t = _iterate(_terms(lam, W), y, z, cfg, m)
        iterations += its
        if 2 * size > RULE_MAX_SIZE:
            residual = abs(1.0 / m + z - y * t)
            break
        size *= 2
        lam, W = lsd.rule(size)
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
    if not y > 0.0:
        raise ValueError("y must be positive")
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
    scalar = x.ndim == 0
    inside = (x > lo) & (x < hi) & (x > 0)
    out = np.zeros_like(x, dtype=float)
    xi = x[inside] if not scalar else (np.array([float(x)]) if inside else np.array([]))
    vals = np.sqrt((hi - xi) * (xi - lo)) / (2.0 * math.pi * xi)
    if scalar:
        return float(vals[0]) if vals.size else 0.0
    out[inside] = vals
    return out


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

    ``left_grid``/``left_values`` hold the small spill-over of the epsilon
    smoothing below the grid; they are consumed by :func:`lsd_cdf` so that
    total mass is conserved, and are not part of the density proper.
    """

    grid: np.ndarray
    values: np.ndarray
    mass_at_zero: float
    y: float
    left_grid: np.ndarray | None = None
    left_values: np.ndarray | None = None
    iterations: int = 0
    max_residual: float = 0.0

    def __post_init__(self):
        for name in ("grid", "values", "left_grid", "left_values"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)


def _extrapolate_to_zero(eps, vals):
    # Lagrange polynomial through (eps_i, vals_i), evaluated at eps = 0
    total = 0.0
    for i, (ei, vi) in enumerate(zip(eps, vals)):
        term = vi
        for j, ej in enumerate(eps):
            if j != i:
                term *= ej / (ej - ei)
        total += term
    return total


def _density_point(lsd, y, x, eps, cfg, warm):
    """Richardson-extrapolated (1/pi) Im m_ac(x + i eps) over the schedule."""
    atom = max(0.0, 1.0 - y)
    vals = []
    m0 = warm.get("m")
    iterations = 0
    residual = 0.0
    for e in eps:
        z = complex(x, e)
        try:
            sol = solve_fixed_point(lsd, y, z, cfg, initial=m0)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"inversion failed at x={x}", z, exc.m, exc.residual, exc.iterations
            ) from exc
        m0 = sol.m
        if e == eps[0]:
            warm["m"] = sol.m
        m_ac = sol.m + atom / z if atom else sol.m
        vals.append(m_ac.imag / math.pi)
        iterations += sol.iterations
        residual = max(residual, sol.residual)
    return _extrapolate_to_zero(eps, vals), iterations, residual


def invert_to_density(lsd, y, grid=None, eps_schedule=DEFAULT_EPS_SCHEDULE, cfg=None):
    """Stieltjes-Perron inversion: density of the limit law on a grid.

    p(x) is obtained as (1/pi) Im m(x + i eps) extrapolated to eps -> 0 over
    the schedule, after subtracting the known point mass max(0, 1 - y)/(-z) at
    the origin.  A small internal extension below the grid captures smoothing
    spill-over for mass bookkeeping in :func:`lsd_cdf`.  Solver failures
    propagate as ConvergenceError tagged with the offending x.
    """
    cfg = cfg or _DEFAULT_CONFIG
    eps = sorted({float(e) for e in eps_schedule}, reverse=True)
    if not eps or eps[-1] <= 0.0:
        raise ValueError("eps schedule must contain positive values")
    if grid is None:
        grid = default_grid(lsd, y)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0) or grid[0] <= 0.0:
        raise ValueError("grid must be strictly increasing with positive entries")

    left = -np.geomspace(grid[0], max(0.15 * grid[-1], 4.0 * grid[0]), 40)[::-1]
    xs = np.concatenate([left, grid])
    vals = np.empty(xs.size)
    warm = {}
    iterations = 0
    max_residual = 0.0
    for i, x in enumerate(xs):
        vals[i], its, res = _density_point(lsd, y, float(x), eps, cfg, warm)
        iterations += its
        max_residual = max(max_residual, res)
    vals = np.clip(vals, 0.0, None)
    nl = left.size
    return LimitingDensity(
        grid=grid,
        values=vals[nl:],
        mass_at_zero=max(0.0, 1.0 - y),
        y=y,
        left_grid=xs[:nl],
        left_values=vals[:nl],
        iterations=iterations,
        max_residual=max_residual,
    )


def lsd_cdf(density, x):
    """Distribution function of a tabulated limit density.

    Adds the point mass at zero to the trapezoidal accumulation of the density;
    the epsilon-smoothing spill-over recorded below the grid is folded back
    onto the low end so total mass is conserved.  Monotone nondecreasing and
    approximately 1 at the top of the grid.
    """
    g = density.grid
    eff = np.array(density.values, dtype=float)
    if density.left_grid is not None and density.left_grid.size:
        lg = -density.left_grid[::-1]
        lv = density.left_values[::-1]
        eff = eff + np.interp(g, lg, lv, left=float(lv[0]), right=0.0)
    cum = cumulative_trapezoid(eff, g, initial=0.0)
    xq = np.asarray(x, dtype=float)
    out = density.mass_at_zero + np.interp(xq, g, cum)
    return float(out) if xq.ndim == 0 else out


def estimate_support_upper(lsd, y):
    """Upper edge of the support of the limit law (Silverstein & Choi 1995).

    On real m in (-1/max lam, 0) the inverse x(m) = -1/m + y T(m) of the
    transform has the edge as its minimum.  There x'(m) = 1/m^2
    - y sum W lam^2 / (1 + lam m)^2 rises from -inf to +inf, so one bisection
    on the nodes of ``lsd.rule(RULE_MAX_SIZE)`` finds it.
    """
    if not (y > 0.0 and math.isfinite(y)):
        raise ValueError("aspect ratio y must be positive and finite")
    lam, W = lsd.rule(RULE_MAX_SIZE)
    wl = W * lam

    def slope(m):
        return 1.0 / m**2 - y * np.sum(wl * lam / (1.0 + np.outer(m, lam)) ** 2, axis=1)

    m = float(_bisect(slope, [-1.0 / lam.max()], [0.0], np.zeros(1))[0])
    return -1.0 / m + y * float(np.sum(wl / (1.0 + lam * m)))


def default_grid(lsd, y, size=512):
    """Density grid: geometric near zero, then linear out past the support.

    The geometric head resolves the inverse-square-root lower edge that occurs
    when the support touches zero (y = 1); its start scales with the support so
    the mass below the grid is negligible.  The grid ends 5% past the upper
    edge of the support.
    """
    size = int(size)
    if size < 16:
        raise ValueError("grid size must be at least 16")
    hi = 1.05 * estimate_support_upper(lsd, y)
    n_geo = max(32, size // 4)
    split = 0.05 * hi
    geo = np.geomspace(1e-8 * hi, split, n_geo, endpoint=False)
    lin = np.linspace(split, hi, size - n_geo)
    return np.concatenate([geo, lin])
