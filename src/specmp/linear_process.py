"""ARMA, FARIMA and piecewise-constant spectral models.

A causal linear process X_t = sum_{j>=0} c_j Z_{t-j} is described by an ARMA
difference equation of fractional order d (``ARMAModel``; FARIMA when d != 0).
This module exposes the truncated moving-average expansion c_0..c_J and the
autocovariances gamma(h) = sum_j c_j c_{j+h} it gives.  ``SpectralDensity``
evaluates the closed-form density of a model, and its derivative, from
the autocovariances of (1, ma) and (1, ar); a piecewise-constant density is a
model in its own right.  Models take numbers, not text or booleans, as
coefficients, orders, piece bounds and levels, with (1 + sum |c_k|)^2 finite;
nothing here is estimated from data or fitted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

__all__ = [
    "ModelSpecError",
    "ARMAModel",
    "SpectralDensity",
    "PiecewiseSpectralDensity",
    "ma_coefficients",
    "autocovariances",
    "model_from_spec",
    "model_to_spec",
]

TWO_PI = 2.0 * math.pi


class ModelSpecError(ValueError):
    """A model specification violates a constructor invariant."""


def _reals(values, name):
    # text and booleans are refused: float() would read "0.5" and True, and
    # "12" would iterate as 1, 2
    try:
        values = (values,) if isinstance(values, (str, bytes)) else tuple(values)
        if any(isinstance(v, (str, bytes, bool, np.bool_)) for v in values):
            raise TypeError(f"got text or a boolean in {values!r}")
        return tuple(map(float, values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelSpecError(f"{name} must be numeric: {exc}") from exc


def _ar_roots_outside_unit_disk(ar):
    """True when all zeros of 1 + a_1 z + ... + a_p z^p lie outside |z| <= 1."""
    # their reciprocals are the zeros of z^p + a_1 z^(p-1) + ... + a_p, whose
    # companion matrix stays finite however small a_p is
    roots = np.roots(np.concatenate([[1.0], np.asarray(ar, dtype=float)]))
    return roots.size == 0 or float(np.max(np.abs(roots))) < 1.0


@dataclass(frozen=True)
class ARMAModel:
    """ARMA(p, q) model in difference-equation form; FARIMA(p, d, q) when d != 0.

    The process solves (1 - B)^d (X_t + ar[0] X_{t-1} + ... + ar[p-1] X_{t-p})
    = Z_t + ma[0] Z_{t-1} + ... + ma[q-1] Z_{t-q}, B the backshift, d in
    (-1/2, 1/2).  Note the sign convention: an AR(1) process
    X_t = phi X_{t-1} + Z_t has ar = (-phi,); ``ARMAModel.arma11`` builds from
    (phi, theta).  A model with d > 0 (long memory) is built and simulated like
    any other.  Its limit law exists (Merlevède & Peligrad, Stoch. Process.
    Appl. 126, 2016) but has unbounded support, which ``gamma_lsd`` does not
    tabulate yet, so it refuses such a model.
    """

    ar: tuple = ()
    ma: tuple = ()
    d: float = 0.0

    def __post_init__(self):
        for name in ("ar", "ma"):
            coeffs = _reals(getattr(self, name), name)
            # (1 + sum |c_k|)^2 bounds |theta|^2, |phi|^2 and their cosine coefficients
            bound = 1.0 + sum(map(abs, coeffs))
            if not math.isfinite(bound * bound):
                raise ModelSpecError(f"{name} coefficients must be finite, with (1 + sum |c_k|)^2 finite")
            object.__setattr__(self, name, coeffs)
        if not _ar_roots_outside_unit_disk(self.ar):
            raise ModelSpecError(
                "autoregressive polynomial must have all zeros outside the closed unit disk"
            )
        object.__setattr__(self, "d", _reals((self.d,), "d")[0])
        if not (-0.5 < self.d < 0.5):
            raise ModelSpecError("fractional order d must lie in (-1/2, 1/2)")

    @classmethod
    def arma11(cls, phi=0.0, theta=0.0):
        """ARMA(1,1) process X_t = phi X_{t-1} + Z_t + theta Z_{t-1}."""
        ar = (-float(phi),) if phi else ()
        ma = (float(theta),) if theta else ()
        return cls(ar=ar, ma=ma)


def _arma_expansion(model, horizon):
    # power series of b(z)/a(z): c_j = b_j - sum_k a_k c_{j-k}
    c = np.zeros(horizon + 1)
    c[0] = 1.0
    ar, ma = model.ar, model.ma
    p, q = len(ar), len(ma)
    if p == 0 and q == 0:
        return c
    for j in range(1, horizon + 1):
        acc = ma[j - 1] if j <= q else 0.0
        for k in range(1, min(j, p) + 1):
            acc -= ar[k - 1] * c[j - k]
        c[j] = acc
    return c


def _fractional_coeffs(d, horizon):
    # series of (1 - z)^(-d); stable product recursion avoids Gamma overflow
    psi = np.ones(horizon + 1)
    if horizon >= 1:
        k = np.arange(1.0, horizon + 1.0)
        psi[1:] = np.cumprod((k - 1.0 + d) / k)
    return psi


def ma_coefficients(model, horizon):
    """Moving-average expansion c_0..c_J of an ARMA or FARIMA model.

    Returns the J + 1 coefficients as a read-only array.  When d != 0 the ARMA
    expansion is convolved with the series of (1-z)^(-d).
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not isinstance(model, ARMAModel):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    coeffs = _arma_expansion(model, horizon)
    if model.d != 0.0:
        coeffs = np.convolve(coeffs, _fractional_coeffs(model.d, horizon))[: horizon + 1]
    coeffs.setflags(write=False)
    return coeffs


def autocovariances(coeffs, max_lag):
    """gamma(0..max_lag), gamma(h) = sum_{j=0}^{J-h} c_j c_{j+h}, from c_0..c_J."""
    c = np.asarray(coeffs, dtype=float)
    if max_lag > c.size - 1:
        raise ValueError(f"lag {max_lag} exceeds stored horizon {c.size - 1}")
    return np.correlate(c, c, "full")[c.size - 1 : c.size + int(max_lag)]


def _cosine_sum(r, w, slope=False):
    # r_0 + 2 sum_h r_h cos(h w), or its slope -2 sum_h h r_h sin(h w); with no
    # harmonics the empty matmul gives exactly r_0 and 0
    h = np.arange(1.0, r.size)
    if slope:
        return -2.0 * (np.sin(np.multiply.outer(w, h)) @ (h * r[1:]))
    return r[0] + 2.0 * (np.cos(np.multiply.outer(w, h)) @ r[1:])


class SpectralDensity:
    """Spectral density f of an ARMA or FARIMA model on [0, 2*pi].

    f = |theta(e^{iw})|^2 / |phi(e^{iw})|^2 * (2 - 2 cos w)^(-d), with the
    model's d, and f' come from one evaluator of the closed form; no Fourier
    truncation is involved.  |theta|^2 and |phi|^2 are cosine sums
    r_0 + 2 sum_h r_h cos(h w) whose coefficients, the read-only arrays
    ``ma_acov`` and ``ar_acov``, are the autocovariances of (1, ma) and
    (1, ar).  That form is kept because it is exact where the cosines are: for
    theta(z) = 1 + z it gives f(pi) = 0 exactly (complex arithmetic leaves
    about 7e-33), and f'(0) = 0.  Each sum has an absolute error of about
    eps * r_0, so f loses relative accuracy where |phi|^2 is small, at sharp
    AR peaks: up to 1.3e-11 for ar = (0.80078125, -0.1953125) near pi.  The
    read-only ``breakpoints`` split [0, 2*pi] into branches on which f is
    monotone, and ``breakpoint_values`` is f there (inf or negative where
    |phi|^2 rounds to <= 0).  Instances are immutable in practice and safe to
    share across threads.
    """

    def __init__(self, model):
        if not isinstance(model, ARMAModel):
            raise TypeError(f"unsupported model type {type(model).__name__}")
        self.d = model.d
        self.ma_acov, self.ar_acov = (autocovariances((1.0, *c), len(c)) for c in (model.ma, model.ar))
        # With x = cos w and u = 2 - 2x, f'(w) = -sin w * u^(-d-1) * Q(x) / A(x)^2,
        # where B and A are |theta|^2 and |phi|^2 as Chebyshev series in x and
        # Q = (B' A - B A') u + 2d B A.  So the breakpoints are 0, pi and 2*pi
        # (f is even about pi), and arccos x and 2*pi - arccos x for every real
        # root x of Q in (-1, 1).  [r_0, 2 r_1, ...] / r_0: the roots of Q ignore
        # scale, and r_0 >= |r_h| keeps Q finite
        B, A = (np.concatenate([[1.0], 2.0 * r[1:] / r[0]]) for r in (self.ma_acov, self.ar_acov))
        Q = cheb.chebsub(cheb.chebmul(cheb.chebder(B), A), cheb.chebmul(B, cheb.chebder(A)))
        if self.d != 0.0:
            Q = cheb.chebadd(cheb.chebmul(Q, [2.0, -2.0]), 2.0 * self.d * cheb.chebmul(B, A))
        # top coefficients at rounding level (they cancel when p = q) would give
        # roots of huge norm and spoil the accuracy of the others
        x = cheb.chebroots(cheb.chebtrim(Q, 1e-14 * np.max(np.abs(Q))))
        t = np.arccos(x.real[(np.abs(x.imag) <= 1e-9) & (np.abs(x.real) < 1.0)])
        self.breakpoints = np.sort(np.concatenate([[0.0, math.pi, TWO_PI], t, TWO_PI - t]))
        with np.errstate(divide="ignore", invalid="ignore"):
            self.breakpoint_values = np.asarray(self(self.breakpoints), dtype=float)
        for arr in (self.ma_acov, self.ar_acov, self.breakpoints, self.breakpoint_values):
            arr.setflags(write=False)

    def _evaluate(self, omega, slope):
        # f = (B / A) u^(-d) and f' = ((B' A - B A') / A^2) u^(-d) + (B / A) (u^(-d))'
        w = np.asarray(omega, dtype=float)
        B, A = _cosine_sum(self.ma_acov, w), _cosine_sum(self.ar_acov, w)
        out = ratio = B / A
        if slope:
            Bp, Ap = _cosine_sum(self.ma_acov, w, slope=True), _cosine_sum(self.ar_acov, w, slope=True)
            out = (Bp * A - B * Ap) / (A * A)
        if self.d != 0.0:
            # u = 2 - 2 cos w as 4 sin^2(v/2), v = w reduced to [-pi, pi], so
            # that u keeps its relative accuracy at w = 0 and w = 2*pi
            v = w - TWO_PI * np.round(w / TWO_PI)
            u = 4.0 * np.sin(0.5 * v) ** 2
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                out = out * u ** (-self.d)
                if slope:
                    out = out + ratio * (-self.d * u ** (-self.d - 1.0) * (2.0 * np.sin(v)))
                    # at w = 0 and 2*pi the factor has one-sided infinite slopes
                    edge = np.where(w < math.pi, 1.0, -1.0) * math.copysign(math.inf, -self.d)
                    out = np.where(u == 0.0, edge, out)
        return float(out) if w.ndim == 0 else out

    def __call__(self, omega):
        return self._evaluate(omega, slope=False)

    def derivative(self, omega):
        return self._evaluate(omega, slope=True)


@dataclass(frozen=True)
class PiecewiseSpectralDensity:
    """Piecewise-constant spectral density: level alpha_j on interval A_j.

    ``pieces`` is a sequence of (lo, hi, alpha) with half-open intervals
    [lo, hi) forming a partition of [0, 2*pi); the final interval also covers
    the endpoint 2*pi.  Levels must be positive.
    """

    pieces: tuple

    def __post_init__(self):
        try:
            pieces = [(lo, hi, alpha) for lo, hi, alpha in self.pieces]
        except (TypeError, ValueError) as exc:
            raise ModelSpecError(f"malformed pieces: {exc}") from exc
        canon = tuple(sorted(_reals(piece, "pieces") for piece in pieces))
        if not canon:
            raise ModelSpecError("pieces must be nonempty")
        for lo, hi, alpha in canon:
            if not (math.isfinite(alpha) and alpha > 0.0):
                raise ModelSpecError("piece levels must be positive and finite")
            if not lo < hi:
                raise ModelSpecError("piece intervals must satisfy lo < hi")
        if abs(canon[0][0]) > 1e-12 or abs(canon[-1][1] - TWO_PI) > 1e-9:
            raise ModelSpecError("pieces must cover [0, 2*pi)")
        for (_, hi, _), (lo, _, _) in zip(canon, canon[1:]):
            if abs(hi - lo) > 1e-9:
                raise ModelSpecError("pieces must be disjoint and leave no gaps")
        object.__setattr__(self, "pieces", canon)

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        scalar = w.ndim == 0
        edges = np.array([p[0] for p in self.pieces] + [TWO_PI])
        levels = np.array([p[2] for p in self.pieces])
        idx = np.clip(np.searchsorted(edges, w, side="right") - 1, 0, levels.size - 1)
        out = levels[idx]
        return float(out) if scalar else out


# the top-level keys each spec type reads; any other key is refused
_SPEC_KEYS = {"arma": ("type", "ar", "ma"), "farima": ("type", "ar", "ma", "d"), "piecewise": ("type", "pieces")}


def model_from_spec(spec):
    """Build a model from the JSON interchange dict (or JSON string).

    Schema: {"type": "arma"|"farima"|"piecewise", "ar": [...], "ma": [...],
    "d": number, "pieces": [{"lo": r, "hi": r, "alpha": r}]}, each type with
    only the keys it reads (``_SPEC_KEYS``).  Angles are in radians and piece
    intervals are half-open [lo, hi).
    """
    if isinstance(spec, (str, bytes)):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ModelSpecError(f"invalid model JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ModelSpecError("model spec must be a JSON object")
    kind = spec.get("type")
    if not (isinstance(kind, str) and kind in _SPEC_KEYS):
        raise ModelSpecError(f"unknown model type {kind!r}")
    unread = [key for key in spec if key not in _SPEC_KEYS[kind]]
    if unread:
        raise ModelSpecError(f"{kind} spec takes only the keys {list(_SPEC_KEYS[kind])}, not {unread}")
    try:
        if kind == "piecewise":
            pieces = spec.get("pieces")
            if not isinstance(pieces, list):
                raise ModelSpecError("piecewise spec requires a 'pieces' list")
            return PiecewiseSpectralDensity(tuple((p["lo"], p["hi"], p["alpha"]) for p in pieces))
        if kind == "farima" and "d" not in spec:
            raise ModelSpecError("farima spec requires 'd'")
        return ARMAModel(ar=spec.get("ar", ()), ma=spec.get("ma", ()), d=spec.get("d", 0.0))
    except (KeyError, TypeError) as exc:
        raise ModelSpecError(f"malformed model spec: {exc}") from exc


def model_to_spec(model):
    """Inverse of :func:`model_from_spec`; a model with d = 0 is an "arma" spec."""
    if isinstance(model, ARMAModel):
        spec = {"type": "arma", "ar": list(model.ar), "ma": list(model.ma)}
        return spec if model.d == 0.0 else {**spec, "type": "farima", "d": model.d}
    if isinstance(model, PiecewiseSpectralDensity):
        return {
            "type": "piecewise",
            "pieces": [{"lo": lo, "hi": hi, "alpha": a} for lo, hi, a in model.pieces],
        }
    raise TypeError(f"unsupported model type {type(model).__name__}")
