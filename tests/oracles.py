"""Oracles that only the tests call; they may use SciPy, which specmp does not."""

import math

import numpy as np
from scipy.special import roots_legendre

from specmp import autocovariances
from specmp.toeplitz_lsd import _density, _level_atol


def total_mass(lsd):
    """Quadrature of the level-set density g of a continuous law over its support.

    An oracle independent of ``lsd.rule``.  g is smooth between consecutive
    critical values c0 < c1 of f (its values at the breakpoints), with at most
    inverse-square-root peaks at them, so each such interval gets a
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


def autocovariance_toeplitz(coeffs, size):
    """The n x n matrix (gamma(i - j)) from an MA expansion c_0..c_J, J >= n - 1."""
    if size < 1:
        raise ValueError("size must be at least 1")
    i = np.arange(size)
    return autocovariances(coeffs, size - 1)[np.abs(i[:, None] - i)]


def arma_stieltjes_h(model, w):
    """s_H(w) = (1/2 pi) integral of dw' / (f(w') - w) for an ARMA(p, q) model, by residues.

    With zeta = e^{iw'}, K = max(p, q), phi(zeta) = 1 + sum ar_k zeta^k and
    theta(zeta) = 1 + sum ma_k zeta^k, the integrand is pp / (tt - w pp) for
    pp = zeta^K phi(zeta) phi(1/zeta) and tt = zeta^K theta(zeta) theta(1/zeta),
    and dw' = dzeta / (i zeta).  So s_H(w) is the sum of the residues of
    pp / (zeta (tt - w pp)) at its poles inside the unit disk, all simple off the
    real range of f.
    """
    P = np.polynomial.polynomial
    # trailing zero coefficients would give 0 a double pole
    phi, theta = (np.trim_zeros(np.concatenate([[1.0], c]), "b") for c in (model.ar, model.ma))
    K = max(phi.size, theta.size) - 1
    pp, tt = (P.polymul(c, np.pad(c[::-1], (K + 1 - c.size, 0))) for c in (phi, theta))
    D = P.polymulx(P.polysub(tt, w * pp))
    r = P.polyroots(D)
    r = r[np.abs(r) < 1.0]
    return complex(np.sum(P.polyval(r, pp) / P.polyval(r, P.polyder(D))))


def arma_residual(model, y, z, m):
    """Defect 1/m + z - y T(m) of a candidate m, with T exact for an ARMA(p, q) model.

    T(m) = integral of lam / (1 + lam m) dH = (1 - s_H(-1/m) / m) / m.  Returns
    0 at the transform of the limit law; ARMA(1, 1) agrees with the quartic
    ``arma11_residual``.
    """
    z, m = complex(z), complex(m)
    t = (1.0 - arma_stieltjes_h(model, -1.0 / m) / m) / m
    return 1.0 / m + z - y * t
