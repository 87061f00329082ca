"""ARMA, FARIMA and piecewise-constant spectral models.

A causal linear process X_t = sum_{j>=0} c_j Z_{t-j} is described either by an
ARMA difference equation or by a fractionally differenced ARMA (FARIMA) model.
This module exposes the truncated moving-average expansion c_0..c_J, the
autocovariances gamma(h) = sum_j c_j c_{j+h} it gives, and closed-form
spectral densities with analytic derivatives; a piecewise-constant density is
a model in its own right.  Nothing here is estimated from data or fitted:
models are specified by their coefficients.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelSpecError",
    "ARMAModel",
    "FARIMAModel",
    "SpectralDensity",
    "PiecewiseSpectralDensity",
    "ma_coefficients",
    "autocovariances",
    "spectral_density",
    "model_from_spec",
    "model_to_spec",
]

TWO_PI = 2.0 * math.pi


class ModelSpecError(ValueError):
    """A model specification violates a constructor invariant."""


def _ar_roots_outside_unit_disk(ar):
    """True when all zeros of 1 + a_1 z + ... + a_p z^p lie outside |z| <= 1."""
    # their reciprocals are the zeros of z^p + a_1 z^(p-1) + ... + a_p, whose
    # companion matrix stays finite however small a_p is
    roots = np.roots(np.concatenate([[1.0], np.asarray(ar, dtype=float)]))
    return roots.size == 0 or float(np.max(np.abs(roots))) < 1.0


@dataclass(frozen=True)
class ARMAModel:
    """ARMA(p, q) model in difference-equation form.

    The process solves X_t + ar[0] X_{t-1} + ... + ar[p-1] X_{t-p}
    = Z_t + ma[0] Z_{t-1} + ... + ma[q-1] Z_{t-q}.  Note the sign convention:
    an AR(1) process X_t = phi X_{t-1} + Z_t has ar = (-phi,).  Use
    ``ARMAModel.arma11`` to build from the (phi, theta) parametrization.
    """

    ar: tuple = ()
    ma: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ar", tuple(float(a) for a in self.ar))
        object.__setattr__(self, "ma", tuple(float(b) for b in self.ma))
        if not all(math.isfinite(v) for v in self.ar + self.ma):
            raise ModelSpecError("ARMA coefficients must be finite")
        if not _ar_roots_outside_unit_disk(self.ar):
            raise ModelSpecError(
                "autoregressive polynomial must have all zeros outside the closed unit disk"
            )

    @classmethod
    def arma11(cls, phi=0.0, theta=0.0):
        """ARMA(1,1) process X_t = phi X_{t-1} + Z_t + theta Z_{t-1}."""
        ar = (-float(phi),) if phi else ()
        ma = (float(theta),) if theta else ()
        return cls(ar=ar, ma=ma)

    @property
    def is_white_noise(self):
        return not any(self.ar) and not any(self.ma)


@dataclass(frozen=True)
class FARIMAModel:
    """Fractionally integrated ARMA model: (1 - B)^d X_t is the given ARMA process.

    d must lie in (-1/2, 1/2).  Only d < 0 yields summable enough coefficients
    for the limiting spectral theory; d > 0 (long memory) is accepted for
    simulation with a warning.
    """

    arma: ARMAModel
    d: float

    def __post_init__(self):
        object.__setattr__(self, "d", float(self.d))
        if not isinstance(self.arma, ARMAModel):
            raise ModelSpecError("FARIMAModel.arma must be an ARMAModel")
        if not (-0.5 < self.d < 0.5):
            raise ModelSpecError("fractional order d must lie in (-1/2, 1/2)")
        if self.d > 0.0:
            warnings.warn(
                "d > 0 gives a long-memory process outside the scope of the "
                "limiting spectral distribution; simulation only",
                UserWarning,
                stacklevel=2,
            )


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

    Returns the J + 1 coefficients as a read-only array.  For FARIMA the ARMA
    expansion is convolved with the series of (1-z)^(-d).
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if isinstance(model, FARIMAModel):
        coeffs = _arma_expansion(model.arma, horizon)
        if model.d != 0.0:
            coeffs = np.convolve(coeffs, _fractional_coeffs(model.d, horizon))[: horizon + 1]
    elif isinstance(model, ARMAModel):
        coeffs = _arma_expansion(model, horizon)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    coeffs.setflags(write=False)
    return coeffs


def autocovariances(coeffs, max_lag):
    """gamma(0..max_lag), gamma(h) = sum_{j=0}^{J-h} c_j c_{j+h}, from c_0..c_J."""
    c = np.asarray(coeffs, dtype=float)
    if max_lag > c.size - 1:
        raise ValueError(f"lag {max_lag} exceeds stored horizon {c.size - 1}")
    return np.correlate(c, c, "full")[c.size - 1 : c.size + int(max_lag)]


def _poly_autocorr(poly):
    # |poly(e^{iw})|^2 = r_0 + 2 sum_h r_h cos(h w) with r_h = sum_k p_k p_{k+h}
    arr = np.asarray(poly, dtype=float)
    return np.array([arr[: arr.size - h] @ arr[h:] for h in range(arr.size)])


def _cospoly_val(r, w):
    if r.size == 1:
        return np.full_like(w, r[0], dtype=float)
    h = np.arange(1.0, r.size)
    return r[0] + 2.0 * (np.cos(np.multiply.outer(w, h)) @ r[1:])


def _cospoly_deriv(r, w):
    if r.size == 1:
        return np.zeros_like(w, dtype=float)
    h = np.arange(1.0, r.size)
    return -2.0 * (np.sin(np.multiply.outer(w, h)) @ (h * r[1:]))


class SpectralDensity:
    """Spectral density f of an ARMA or FARIMA model on [0, 2*pi].

    f is evaluated, with its exact analytic derivative, from the closed form
    |b(e^{iw})/a(e^{iw})|^2, times the fractional factor (2 - 2 cos w)^(-d)
    for FARIMA; no Fourier truncation is involved.  Instances are immutable
    in practice and safe to share across threads.
    """

    def __init__(self, num, den, d=0.0):
        self._num = num
        self._den = den
        self._d = float(d)

    @classmethod
    def from_arma(cls, model):
        num = _poly_autocorr(np.concatenate([[1.0], model.ma]))
        den = _poly_autocorr(np.concatenate([[1.0], model.ar]))
        return cls(num, den)

    @classmethod
    def from_farima(cls, model):
        base = cls.from_arma(model.arma)
        return cls(base._num, base._den, d=model.d)

    def _rational(self, w):
        B = _cospoly_val(self._num, w)
        A = _cospoly_val(self._den, w)
        return B, A

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        scalar = w.ndim == 0
        B, A = self._rational(w)
        out = B / A
        if self._d != 0.0:
            # u = 2 - 2 cos w as 4 sin^2(v/2), v = w reduced to [-pi, pi], so
            # that u keeps its relative accuracy at w = 0 and w = 2*pi
            u = 4.0 * np.sin(0.5 * (w - TWO_PI * np.round(w / TWO_PI))) ** 2
            with np.errstate(divide="ignore"):
                out = out * u ** (-self._d)
        return float(out) if scalar else out

    def derivative(self, omega):
        w = np.asarray(omega, dtype=float)
        scalar = w.ndim == 0
        B, A = self._rational(w)
        Bp = _cospoly_deriv(self._num, w)
        Ap = _cospoly_deriv(self._den, w)
        base = B / A
        out = (Bp * A - B * Ap) / (A * A)
        if self._d != 0.0:
            v = w - TWO_PI * np.round(w / TWO_PI)
            u = 4.0 * np.sin(0.5 * v) ** 2
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                frac = u ** (-self._d)
                fracp = -self._d * u ** (-self._d - 1.0) * (2.0 * np.sin(v))
                out = out * frac + base * fracp
            # at w = 0 and 2*pi the fractional factor has one-sided infinite slopes
            edge = np.where(w < math.pi, 1.0, -1.0) * math.copysign(math.inf, -self._d)
            out = np.where(u == 0.0, edge, out)
        return float(out) if scalar else out


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
            canon = tuple(
                sorted((float(lo), float(hi), float(alpha)) for lo, hi, alpha in self.pieces)
            )
        except (TypeError, ValueError) as exc:
            raise ModelSpecError(f"malformed pieces: {exc}") from exc
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


def spectral_density(model):
    """Exact spectral density of a model, with analytic derivative."""
    if isinstance(model, PiecewiseSpectralDensity):
        return model
    if isinstance(model, FARIMAModel):
        return SpectralDensity.from_farima(model)
    if isinstance(model, ARMAModel):
        return SpectralDensity.from_arma(model)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def model_from_spec(spec):
    """Build a model from the JSON interchange dict (or JSON string).

    Schema: {"type": "arma"|"farima"|"piecewise", "ar": [...], "ma": [...],
    "d": number, "pieces": [{"lo": r, "hi": r, "alpha": r}]}.  Angles are in
    radians and piece intervals are half-open [lo, hi).
    """
    if isinstance(spec, (str, bytes)):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ModelSpecError(f"invalid model JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ModelSpecError("model spec must be a JSON object")
    kind = spec.get("type")
    try:
        if kind == "arma":
            return ARMAModel(ar=spec.get("ar", ()), ma=spec.get("ma", ()))
        if kind == "farima":
            if "d" not in spec:
                raise ModelSpecError("farima spec requires 'd'")
            return FARIMAModel(
                arma=ARMAModel(ar=spec.get("ar", ()), ma=spec.get("ma", ())),
                d=spec["d"],
            )
        if kind == "piecewise":
            pieces = spec.get("pieces")
            if not isinstance(pieces, list):
                raise ModelSpecError("piecewise spec requires a 'pieces' list")
            return PiecewiseSpectralDensity(
                tuple((p["lo"], p["hi"], p["alpha"]) for p in pieces)
            )
    except (KeyError, TypeError) as exc:
        raise ModelSpecError(f"malformed model spec: {exc}") from exc
    raise ModelSpecError(f"unknown model type {kind!r}")


def model_to_spec(model):
    """Inverse of :func:`model_from_spec`."""
    if isinstance(model, ARMAModel):
        return {"type": "arma", "ar": list(model.ar), "ma": list(model.ma)}
    if isinstance(model, FARIMAModel):
        return {
            "type": "farima",
            "ar": list(model.arma.ar),
            "ma": list(model.arma.ma),
            "d": model.d,
        }
    if isinstance(model, PiecewiseSpectralDensity):
        return {
            "type": "piecewise",
            "pieces": [{"lo": lo, "hi": hi, "alpha": a} for lo, hi, a in model.pieces],
        }
    raise TypeError(f"unsupported model type {type(model).__name__}")
