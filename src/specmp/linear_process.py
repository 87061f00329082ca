"""ARMA, FARIMA and piecewise-constant spectral models.

A causal linear process X_t = sum_{j>=0} c_j Z_{t-j} is described by an ARMA
difference equation of fractional order d (``ARMAModel``; FARIMA when d != 0).
This module exposes the truncated moving-average expansion c_0..c_J.
``SpectralDensity`` evaluates the closed-form density of a model, and its
slopes, from the reciprocal zeros of its AR and MA polynomials; a
piecewise-constant density is a model in its own right.  Models take reals,
not text, booleans or complex numbers, as coefficients, orders, piece bounds
and levels, with (1 + sum |c_k|)^2 finite; nothing here is fitted to data.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "ModelSpecError",
    "ARMAModel",
    "SpectralDensity",
    "PiecewiseSpectralDensity",
    "ma_coefficients",
    "model_from_spec",
    "model_to_spec",
]

TWO_PI = 2.0 * math.pi
# what float() reads but is no real: text ("0.5"), booleans (True) and complex numbers, cut to their real part
_NOT_REAL = (str, bytes, bool, complex, np.bool_, np.complexfloating)


class ModelSpecError(ValueError):
    """A model specification violates a constructor invariant."""


def _reals(values, name):
    # a number, or numbers, none of them _NOT_REAL
    try:
        values = (values,) if isinstance(values, (str, bytes)) else tuple(values)  # "12" is not 1, 2
        if any(isinstance(v, _NOT_REAL) for v in values):
            raise TypeError(f"got text, a boolean or a complex number in {values!r}")
        return tuple(map(float, values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelSpecError(f"{name} must be numeric: {exc}") from exc


def _integer(value, name, least=0):
    # an int or NumPy integer of at least ``least``, not a boolean, which operator.index reads as 1
    if isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer")
    if operator.index(value) < least:
        raise ValueError(f"{name} must be " + (f"at least {least}" if least else "nonnegative"))
    return operator.index(value)


def _real(value, name, positive=False):
    # value as a finite float, above 0 with ``positive``, and not _NOT_REAL
    if type(value) is not float:
        try:
            value = math.nan if isinstance(value, _NOT_REAL) else float(value)
        except (TypeError, ValueError, OverflowError):
            value = math.nan
    if not (math.isfinite(value) and (value > 0.0 or not positive)):
        raise ValueError(f"{name} must be {'positive and ' if positive else ''}finite")
    return value


def _newton_step(poly, z):
    """P(z)/P'(z) for the polynomial P (highest power first) at the complex float z, in fractions, rounded once."""
    x, y, p, q = Fraction(z.real), Fraction(z.imag), (Fraction(0),) * 2, (Fraction(0),) * 2
    for c in poly:
        q = (q[0] * x - q[1] * y + p[0], q[0] * y + q[1] * x + p[1])
        p = (p[0] * x - p[1] * y + Fraction(c), p[0] * y + p[1] * x)
    den = q[0] * q[0] + q[1] * q[1]
    return complex(float((p[0] * q[0] + p[1] * q[1]) / den), float((p[1] * q[0] - p[0] * q[1]) / den)) if den else 0j


def _reciprocal_zeros(coeffs):
    """The reciprocal zeros rho_k of c(z) = 1 + c_1 z + ... + c_n z^n, so that c(z) = prod_k (1 - rho_k z).

    They are the zeros of z^n + c_1 z^(n-1) + ... + c_n (whose companion matrix stays finite however small
    c_n is), each polished by two exact Newton steps to about an ulp; a step longer than 1e-3 (1 + |rho|),
    as from a zero that underflowed to 0, is no polish and is not taken.
    """
    poly = [1.0, *coeffs]
    rho = np.roots(poly).astype(complex).tolist()
    for _ in range(2):
        rho = [r - dr if abs(dr) <= 1e-3 * (1.0 + abs(r)) else r for r, dr in ((r, _newton_step(poly, r)) for r in rho)]
    return np.array(rho, dtype=complex)


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
        if np.any(np.abs(_reciprocal_zeros(self.ar)) >= 1.0):
            raise ModelSpecError(
                "autoregressive polynomial must have all zeros outside the closed unit disk"
            )
        object.__setattr__(self, "d", _reals((self.d,), "d")[0])
        if not (-0.5 < self.d < 0.5):
            raise ModelSpecError("fractional order d must lie in (-1/2, 1/2)")

    @classmethod
    def arma11(cls, phi=0.0, theta=0.0):
        """ARMA(1,1) process X_t = phi X_{t-1} + Z_t + theta Z_{t-1}."""
        phi, theta = _reals((phi, theta), "(phi, theta)")
        return cls(ar=(-phi,) if phi else (), ma=(theta,) if theta else ())


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
    k = np.arange(1.0, horizon + 1.0)
    psi[1:] = np.cumprod((k - 1.0 + d) / k)
    return psi


def ma_coefficients(model, horizon):
    """Moving-average expansion c_0..c_J of an ARMA or FARIMA model.

    Returns the J + 1 coefficients as a read-only array.  When d != 0 the ARMA
    expansion is convolved with the series of (1-z)^(-d).
    """
    horizon = _integer(horizon, "horizon", 1)
    if not isinstance(model, ARMAModel):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    coeffs = _arma_expansion(model, horizon)
    if model.d != 0.0:
        coeffs = np.convolve(coeffs, _fractional_coeffs(model.d, horizon))[: horizon + 1]
    coeffs.setflags(write=False)
    return coeffs


class SpectralDensity:
    """Spectral density f of an ARMA or FARIMA model, periodic in w, in one root form.

    f = |theta(e^{iw})|^2 / |phi(e^{iw})|^2 * u^(-d), u = 2 - 2 cos w.  The read-only complex arrays
    ``ma_roots`` and ``ar_roots`` hold the reciprocal zeros rho of theta and phi, theta(z) = prod (1 - rho z),
    each giving the factor |1 - rho e^{iw}|^2 = (1 - rho)^2 + rho u = (1 + rho)^2 - rho v, v = 4 - u, taken in
    u where w < pi/2 and in v elsewhere.  So f cannot come out negative, is exact at rho = 0 and at a zero of
    theta at w = 0 or pi, and at a sharp AR peak loses about eps / |1 - |rho||, where a cosine sum loses
    eps / (1 - |rho|)^2.  f, its slopes and the poles of f / (f - lam) all come from this form (``_slopes``).
    f is even about pi, so its level sets are taken on [0, pi] alone: the read-only ``breakpoints``, 0,
    the stationary points inside (0, pi) and pi, split it into branches on which f is monotone, and
    ``breakpoint_values`` is f there.  Instances are immutable in practice and safe to share across threads.
    """

    def __init__(self, model):
        if not isinstance(model, ARMAModel):
            raise TypeError(f"unsupported model type {type(model).__name__}")
        self.d = model.d
        self.ma_roots, self.ar_roots = (_reciprocal_zeros(c) for c in (model.ma, model.ar))
        # (rho, of phi) for each factor but rho = 0, which gives 1; in u or v it is c + k x
        rhos = [(r if r.imag else r.real, ar) for ar, z in enumerate((self.ma_roots.tolist(), self.ar_roots.tolist()))
                for r in z if r]
        self._factors = {True: [((1.0 - r) ** 2, r, r, ar) for r, ar in rhos],
                         False: [((1.0 + r) ** 2, -r, r, ar) for r, ar in rhos]}
        # f'(w) = -2 sin(w) f L', L' = B'/B - A'/A + d/u in s for B and A the products of theta's and phi's
        # factors (scaled by (1 + |rho|)^2, which their zeros ignore).  So the breakpoints on [0, pi] (f is even
        # about pi) are 0, pi and w at each real zero in (-2, 2) of
        # Q = (B'A - BA') u^[d != 0] + d BA, polished by two Newton steps on L' in u (s >= 0) or v
        P = np.polynomial.Polynomial
        B, A = (np.prod([P([1.0 + r * r, -r]) / (1.0 + abs(r)) ** 2 for r, a in rhos if a == ar] + [P([1.0])])
                for ar in (0, 1))
        Q = B.deriv() * A - B * A.deriv()
        Q = (Q * P([2.0, -1.0]) + self.d * B * A if self.d else Q).coef.real
        # top coefficients at rounding level (they cancel when p = q) would give zeros of huge norm
        s = P(Q).trim(1e-14 * np.max(np.abs(Q))).roots() if np.any(Q) else np.empty(0)
        s = s.real[(np.abs(s.imag) <= 2e-9) & (np.abs(s.real) < 2.0)]
        near, x = s >= 0.0, 2.0 - np.abs(s)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(2):
                *_, l1, l2 = self._slopes(x, near)
                step = np.real(l1 / l2) * np.where(near, 1.0, -1.0)
                x = np.where(np.isfinite(step), x + step, x)
        t = 2.0 * np.arcsin(np.sqrt(np.clip(x, 0.0, 4.0)) / 2.0)
        t = np.where(near, t, math.pi - t)
        t = t[(0.0 < t) & (t < math.pi)]
        self.breakpoints = np.sort(np.concatenate([[0.0, math.pi], t]))
        self.breakpoint_values = np.asarray(self(self.breakpoints), dtype=float)
        for arr in (self.ma_roots, self.ar_roots, self.breakpoints, self.breakpoint_values):
            arr.setflags(write=False)

    def _slopes(self, x, near):
        """(B/A, A'/A, A''/A, L', L'') at x = u (near s = 2) or v: L = log f, slopes in s = 2 cos w.

        Each factor F = c + k x of B = |theta|^2 or A = |phi|^2 adds -+rho/F
        to L' (dF/ds = -rho) and -+(rho/F)^2 to L''; u^(-d), left out of B/A,
        adds d/u and d/u^2.  x is a scalar, real or complex, or an array, and
        so are the results (complex where a rho is, with Im at rounding level
        on the real axis).  An array ``near`` picks the form point by point.
        """
        if not isinstance(near, bool):
            return np.where(near, self._slopes(x, True), self._slopes(x, False))
        zero = 0.0 * x
        ratio, b1, a1, bb, aa = 1.0 + zero, zero, zero, zero, zero
        for c, k, rho, ar in self._factors[near]:
            F = c + k * x
            r = rho / F
            if ar:
                ratio, a1, aa = ratio / F, a1 - r, aa + r * r
            else:
                ratio, b1, bb = ratio * F, b1 - r, bb + r * r
        l1, l2 = b1 - a1, aa - bb
        if self.d:
            u = x if near else 4.0 - x
            l1, l2 = l1 + self.d / u, l2 + self.d / (u * u)
        return ratio, a1, a1 * a1 - aa, l1, l2

    def _evaluate(self, omega, slope):
        # w reduced to [-pi, pi]: u = 4 sin^2(w/2) and v = 4 sin^2((pi - |w|)/2) keep their relative
        # accuracy at w = 0 and pi, and f' = -2 sin(w) f L', 0 at a zero of f (a minimum), where L' is infinite
        w = np.asarray(omega, dtype=float)
        r = w - TWO_PI * np.round(w / TWO_PI)
        near, u = np.abs(r) < 0.5 * math.pi, 4.0 * np.sin(0.5 * r) ** 2
        x = np.where(near, u, 4.0 * np.sin(0.5 * (math.pi - np.abs(r))) ** 2)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio, _, _, l1, _ = np.real(self._slopes(x, near))
            f = ratio * u**-self.d
            out = np.where(f == 0.0, 0.0, -2.0 * np.sin(r) * f * l1) if slope else f
            if slope and self.d:
                # at w = 0 and 2*pi the factor u^(-d) has one-sided infinite slopes
                out = np.where(u == 0.0, np.where(w < math.pi, 1.0, -1.0) * math.copysign(math.inf, -self.d), out)
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
