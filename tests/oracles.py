"""Oracles that only the tests call; they may use SciPy, which specmp does not."""

import math

import numpy as np
from scipy.special import roots_legendre

from specmp import autocovariances
from specmp.toeplitz_lsd import _breakpoints, _density


def total_mass(lsd):
    """Quadrature of the level-set density g of a continuous law over its support.

    An oracle independent of ``lsd.rule``.  g is smooth between consecutive
    critical values c0 < c1 of f (its values at the breakpoints), with at most
    inverse-square-root peaks at them, so each such interval gets a
    Gauss-Legendre rule under lam = c0 + (c1 - c0) sin^2(u), which removes the
    peaks, doubled until the mass is stable to 1e-10 or reaches 4097 nodes.
    No node is a tangential level, and none warns.
    """
    _, vals, atol = _breakpoints(lsd.f)
    crit = np.unique(vals)
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
