"""Stieltjes transform of the sample-covariance limit law, and its inversion.

The limiting spectral distribution F of p^{-1} X X^T is characterized by the
unique map m from the upper half-plane to itself with

    1/m(z) = -z + y * integral of lam / (1 + lam m(z)) against the Toeplitz
             eigenvalue limit law,

where y is the limiting column/row ratio n/p.  This module solves that fixed
point (general, atomic and Marchenko-Pastur specializations), cross-checks the
ARMA(1,1) quartic form, and recovers the density via Stieltjes-Perron
inversion with an epsilon extrapolation.  The solver sees a limit law only as
quadrature nodes and weights: its atoms, or the Szegő rule of a continuous law.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .toeplitz_lsd import AbsContinuousLSD, AtomicLSD

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
    newton: bool = True


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
    """T(m) = sum W lam / (1 + lam m) and its derivative over a quadrature rule."""
    wl = W * lam
    wl2 = wl * lam

    def T(m):
        return np.sum(wl / (1.0 + lam * m))

    def Tp(m):
        return -np.sum(wl2 / (1.0 + lam * m) ** 2)

    return T, Tp


def _iterate(T, Tp, y, z, cfg, initial=None):
    """Damped fixed point m <- 1/(-z + y T(m)) with guarded Newton and Aitken.

    The map G(m) = 1/(-z + y T(m)) is a holomorphic self-map of the upper
    half-plane with the Stieltjes value as its unique interior fixed point, so
    the damped iteration (beta = 1/2, which turns rotation-dominant multipliers
    into contractions) converges from anywhere.  Near the real axis the linear
    rate degrades like 1 - O(Im z), so a Newton step on the cleared equation
    M(m) = 1 + m z - y m T(m) is attempted each sweep, and the damped orbit is
    Aitken-extrapolated.  Both accelerators are accepted only when they lower
    the hyperbolic displacement |G(m) - m|^2 / (Im m Im G(m)); that merit is
    non-increasing along the exact orbit, diverges at the boundary (which is
    where the cleared equation hides spurious roots), and vanishes only at the
    fixed point, so acceleration can never be trapped away from the answer.
    """
    m = initial if (initial is not None and initial.imag > 0.0) else -1.0 / z

    def displacement(mm):
        g = 1.0 / (-z + y * T(mm))
        if not (g.imag > 0.0 and cmath.isfinite(g)):
            return None, math.inf
        return g, abs(g - mm) ** 2 / (mm.imag * g.imag)

    g, cur = displacement(m)
    tail = []
    for it in range(1, cfg.max_iter + 1):
        if cfg.newton:
            t = T(m)
            dM = z - y * (t + m * Tp(m))
            if dM != 0.0 and cmath.isfinite(dM):
                step = -(1.0 + m * z - y * m * t) / dM
                scale = 1.0
                accepted = False
                for _ in range(10):
                    cand = m + scale * step
                    if cand.imag > 0.0 and cmath.isfinite(cand):
                        gc, rc = displacement(cand)
                        if rc < cur:
                            if abs(cand - m) <= cfg.tol * (1.0 + abs(cand)):
                                return cand, it
                            m, g, cur = cand, gc, rc
                            accepted = True
                            break
                    scale *= 0.5
                if accepted:
                    tail.clear()
                    continue
        if g is None:
            # analytically impossible; reachable only through quadrature noise
            raise ConvergenceError("iterate left the upper half-plane", z, m, cur, it)
        nxt = 0.5 * (m + g)
        if abs(nxt - m) <= cfg.tol * (1.0 + abs(nxt)):
            return nxt, it
        tail.append(m)
        if len(tail) >= 3:
            d1 = tail[-2] - tail[-3]
            d2 = tail[-1] - tail[-2]
            if d2 != d1:
                acc = tail[-3] - d1 * d1 / (d2 - d1)
                if acc.imag > 0.0 and cmath.isfinite(acc):
                    ga, ra = displacement(acc)
                    if ra < cur:
                        nxt = acc
                        tail.clear()
        m = nxt
        g, cur = displacement(m)
    raise ConvergenceError("no convergence", z, m, cur, cfg.max_iter)


def solve_fixed_point(lsd, y, z, cfg=None, initial=None):
    """Stieltjes transform m(z) of the limit law of p^{-1} X X^T.

    ``lsd`` is the Toeplitz eigenvalue limit (AtomicLSD or AbsContinuousLSD),
    ``y`` the limiting n/p ratio, and z a point with Im z > 0.  A continuous
    law is solved on the Szegő rule ``lsd.rule(N)``, N doubling from
    RULE_START_SIZE until the 2N rule moves the integral term T by at most
    1e-9 (1 + |T|); the residual is the N-rule solution's defect on the 2N
    rule, and a Newton step on the 2N rule ends the solve.  Near the real axis
    larger rules are needed; the RULE_MAX_SIZE rule is the last.
    """
    cfg = cfg or _DEFAULT_CONFIG
    z = complex(z)
    if not (y > 0.0 and math.isfinite(y)):
        raise ValueError("aspect ratio y must be positive and finite")
    if not z.imag > 0.0:
        raise ValueError("z must lie in the upper half-plane")
    if isinstance(lsd, AtomicLSD):
        T, Tp = _terms(lsd.levels, lsd.weights)
        m, iterations = _iterate(T, Tp, y, z, cfg, initial)
        residual = abs(1.0 / m + z - y * T(m))
        return StieltjesSolution(z=z, m=m, residual=residual, iterations=iterations)
    if not isinstance(lsd, AbsContinuousLSD):
        raise TypeError(f"unsupported limit-law type {type(lsd).__name__}")

    size = RULE_START_SIZE
    iterations = 0
    if initial is None:
        # start from the law with all its mass at the mean level; -1/z sits
        # among the rule's real poles -1/lam when z is near the real axis
        lam, W = lsd.rule(size)
        mean = W @ lam
        initial = mp_stieltjes(y, z / mean) / mean
    while True:
        T, Tp = _terms(*lsd.rule(size))
        m, its = _iterate(T, Tp, y, z, cfg, initial)
        iterations += its
        if 2 * size > RULE_MAX_SIZE:
            residual = abs(1.0 / m + z - y * T(m))
            break
        T2, Tp2 = _terms(*lsd.rule(2 * size))
        t2 = T2(m)
        residual = abs(1.0 / m + z - y * t2)
        if abs(t2 - T(m)) <= 1e-9 * (1.0 + abs(t2)):
            # the rule's error in T moves m by about y |m|^2 |t2 - T(m)|, far
            # more than the check's tolerance when |m| is large
            fine = m - (1.0 + m * z - y * m * t2) / (z - y * (t2 + m * Tp2(m)))
            if fine.imag > 0.0:
                m = fine
            break
        size *= 2
        initial = m
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
        grid = default_grid(lsd, y, cfg=cfg)
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


def estimate_support_upper(lsd, y, cfg=None, threshold=1e-5):
    """Upper edge of the limit law, located where the inverted density dies.

    Scans downward from a conservative ceiling and returns the first point
    where the extrapolated density exceeds ``threshold``, padded by one cell.
    """
    cfg = cfg or _DEFAULT_CONFIG
    if isinstance(lsd, AtomicLSD):
        top = float(lsd.levels.max())
    else:
        top = float(lsd.support[1])
    ceiling = 1.1 * top * (1.0 + math.sqrt(2.0 * max(y, 1.0))) ** 2
    xs = np.linspace(ceiling, ceiling / 64.0, 64)
    eps = (1e-2, 5e-3, 2.5e-3)
    warm = {}
    for i, x in enumerate(xs):
        p, _, _ = _density_point(lsd, y, float(x), list(eps), cfg, warm)
        if p > threshold:
            pad = (xs[0] - xs[1]) if i == 0 else (xs[i - 1] - xs[i])
            return float(x + pad)
    return float(xs[-1])


def default_grid(lsd, y, size=512, cfg=None):
    """Density grid: geometric near zero, then linear out past the support.

    The geometric head resolves the inverse-square-root lower edge that occurs
    when the support touches zero (y = 1); its start scales with the support so
    the mass below the grid is negligible.
    """
    hi = 1.05 * estimate_support_upper(lsd, y, cfg=cfg)
    size = int(size)
    if size < 16:
        raise ValueError("grid size must be at least 16")
    n_geo = max(32, size // 4)
    split = 0.05 * hi
    geo = np.geomspace(1e-8 * hi, split, n_geo, endpoint=False)
    lin = np.linspace(split, hi, size - n_geo)
    return np.concatenate([geo, lin])
