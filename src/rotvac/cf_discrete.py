"""Periodic (discrete-spectrum) correlation functions and their zero-point /
thermal decomposition.

Periodicity of the two-point functions with the rotation period restricts the
observed spectrum to the harmonic ladder omega_n = n omega, k_n = n omega / c.
The resulting ladder sums

    sum_{n>=0} n^3 cos(n phase)   (electromagnetic)
    sum_{n>=0} n   cos(n phase)   (massless scalar)

have closed forms away from phase in 2 pi Z, and the Abel-Plana identity
splits each into a divergent zero-point integral (carried by its regularized
value) plus a convergent integral whose weight is exactly the Planck
occupancy at the rotation temperature T = hbar omega / (2 pi k_B).  That
thermal integral is evaluated in closed form through the polygamma function;
its QUADPACK evaluation is the oracle of the tests and of c07.

``phase`` here is the direction-dependent quantity delta (1 - khat . chord),
with delta the angular lag and khat the propagation direction; it runs over
delta (1 -/+ n), n yhat the chord of the lag record (cf_continuous._lag).
The periodic CF is the sphere integral of the ladder against the weight of
the continuous CF (the quadrature route), and so the continuous CF summed
over the images delta + 2 pi m of the lag (the closed-form route, the
default).  Its zero-point part is the image m = 0, the continuous CF at the
same lag; its thermal part is the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, zeta

from .cf_continuous import (CFValue, _cf_sphere, _chord, _closed_form, _image_form, _lag,
                            _row_sums, _scaled)
from .kinematics import RotationParams
from .numerics import DEFAULT_TOL, integrate_sphere

__all__ = [
    "ResonanceError",
    "ThermalSplit",
    "rotation_temperature",
    "cubic_ladder_sum_closed",
    "linear_ladder_sum_closed",
    "thermal_ladder_integral",
    "cubic_ladder_split",
    "linear_ladder_split",
    "em_cf_discrete",
    "scalar_cf_discrete",
]

RESONANCE_TOL = 1e-9  # distance of phase to 2 pi Z treated as resonant
TWO_PI = 2.0 * math.pi
TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - TWO_PI


class ResonanceError(ValueError):
    """Ladder sum requested on (or across) the resonance manifold phase in 2 pi Z."""


@dataclass(frozen=True)
class ThermalSplit:
    """Zero-point (regularized) and thermal (convergent) parts; total is their sum."""

    zero_point_part: float
    thermal_part: float

    @property
    def total(self) -> float:
        return self.zero_point_part + self.thermal_part


def rotation_temperature(params: RotationParams) -> float:
    """Temperature hbar omega / (2 pi k_B) appearing in the Planck factor."""
    const = params.constants
    return const.hbar * params.omega / (2.0 * math.pi * const.k_B)


def _off_resonance(phase, name: str) -> np.ndarray:
    """phase as a float array; ResonanceError unless it is finite and at
    least RESONANCE_TOL from 2 pi Z."""
    phase = np.asarray(phase, dtype=float)
    if not np.all(np.isfinite(phase)) or np.any(
            np.abs(np.remainder(phase + math.pi, 2.0 * math.pi) - math.pi) < RESONANCE_TOL):
        raise ResonanceError(f"{name} diverges at phase in 2 pi Z or a non-finite phase")
    return phase


def _zero_point_part(c: float, phase: float, p: int) -> float:
    """The regularized frequency integral c / phase^p; ResonanceError unless finite."""
    d = phase**p
    if not (d and math.isfinite(c / d)):
        raise ResonanceError(f"zero-point part {c!r} / phase^{p} diverges at phase = {phase!r}")
    return c / d


def cubic_ladder_sum_closed(phase):
    """Closed form of the regularized sum over n >= 0 of n^3 cos(n phase).

    Equals (3 - 2 sin^2(phase/2)) / (8 sin^4(phase/2)); the two formally
    divergent 6/phase^4 bookkeeping terms of the split representation cancel
    algebraically.  Resonant at phase in 2 pi Z.
    """
    phase = _off_resonance(phase, "cubic ladder sum")
    s2 = np.sin(phase / 2.0) ** 2
    out = (3.0 - 2.0 * s2) / (8.0 * s2 * s2)
    return float(out) if out.ndim == 0 else out


def linear_ladder_sum_closed(phase):
    """Closed form of the regularized sum over n >= 0 of n cos(n phase):
    -1 / (4 sin^2(phase/2))."""
    phase = _off_resonance(phase, "linear ladder sum")
    s2 = np.sin(phase / 2.0) ** 2
    out = -1.0 / (4.0 * s2)
    return float(out) if out.ndim == 0 else out


def thermal_ladder_integral(phase, p: int = 3):
    """int_0^inf 2 u^p cosh(u phase) / (e^(2 pi u) - 1) du, |phase| < 2 pi.

    Evaluated in closed form, (2 pi)^-(p+1) [psi_p(1 + x) + psi_p(1 - x)]
    with x = |phase| / 2 pi and psi_p the polygamma function (DLMF 5.15.1),
    for odd p >= 1; vectorized in phase.  1 - x is formed as (2 pi - |phase|)
    / 2 pi with 2 pi carried as two floats, so that it keeps its digits as
    |phase| nears 2 pi.  ValueError unless p is an odd integer >= 1.
    """
    if not (p >= 1 and p % 2 == 1):     # False for a fraction and for NaN
        raise ValueError(f"closed form holds for odd integers p >= 1, got p = {p!r}")
    phase = np.abs(np.asarray(phase, dtype=float))
    if not np.all(phase < TWO_PI):
        raise ResonanceError(
            f"thermal integral needs |phase| < 2 pi, got |phase| = {float(np.max(phase))!r}")
    # psi_p(z) = (-1)^(p+1) p! zeta(p+1, z) with p! = gamma(p + 1), as scipy's
    # polygamma evaluates it but without its Python wrapper (~10 us per call);
    # the sign is +1 for odd p
    c = gamma(p + 1.0)
    out = (c * zeta(p + 1, 1.0 + phase / TWO_PI)
           + c * zeta(p + 1, ((TWO_PI - phase) + TWO_PI_LO) / TWO_PI)) / TWO_PI ** (p + 1)
    return float(out) if out.ndim == 0 else out


def cubic_ladder_split(phase: float) -> ThermalSplit:
    """Zero-point / thermal split of the cubic ladder sum at a phase.

    zero_point_part is the regularized frequency integral 6 / phase^4;
    thermal_part is the convergent Planck-weighted integral; the total
    reproduces cubic_ladder_sum_closed(phase).
    """
    # the thermal part checks |phase| < 2 pi before phase^4 can overflow
    return ThermalSplit(thermal_part=thermal_ladder_integral(phase, p=3),
                        zero_point_part=_zero_point_part(6.0, phase, 4))


def linear_ladder_split(phase: float) -> ThermalSplit:
    """Split of the linear ladder sum (scalar case) at a phase.

    The zero-point part carries the regularized value -1/phase^2 and the
    thermal part enters with a minus sign.
    """
    return ThermalSplit(thermal_part=-thermal_ladder_integral(phase, p=1),
                        zero_point_part=_zero_point_part(-1.0, phase, 2))


def _check_resonances(delta: float, n: float):
    """ResonanceError if the phase range over the sphere at |chord| = |n|
    comes within RESONANCE_TOL of a multiple of 2 pi.  Its half-width is at
    most 2 < pi, so only the multiple nearest to delta can be met."""
    half = abs(delta * n)
    if abs(delta - 2.0 * math.pi * round(delta / (2.0 * math.pi))) <= half + RESONANCE_TOL:
        raise ResonanceError(
            f"phase range [{delta - half:.6f}, {delta + half:.6f}] meets the resonance "
            "manifold 2 pi Z; the ladder sum has non-integrable poles there")


def _reduced(lag, beta: float):
    """(phi, k, n, gap): delta = phi + 2 pi k, phi = atan2(sin delta, cos
    delta), exact at every float lag (delta where k = 0), and _chord's n and
    gap at phi.  ResonanceError where the image at phi, one of m != 0 unless
    k = 0, is within RESONANCE_TOL of its light cone: |phi| gap."""
    delta = lag.delta
    phi = math.atan2(math.sin(delta), math.cos(delta))
    k = round((delta - phi) / TWO_PI)
    if k == 0:
        return delta, 0, lag.n, lag.gap
    n, gap = _chord(beta, phi)
    if abs(phi) * gap <= RESONANCE_TOL:
        half = abs(delta * lag.n)
        raise ResonanceError(f"phase range [{delta - half:.6f}, {delta + half:.6f}] meets the "
                             f"resonance manifold 2 pi Z at the image {phi:.6g} of the lag")
    return phi, k, n, gap


def _periodic_closed_form(lag, beta: float) -> float:
    """x of the periodic CF, _scaled(delta^q x): _image_form at the chord
    w / D, w = delta n, times (delta / D)^q, summed over the images D =
    delta + 2 pi m.  The scalar is -4 pi G, G = sum 1 / (D^2 - w^2) = s / 2E,
    and the EM field 16 pi (A S2 + 2 w^2 A_xz S3 + 2 w C_y T3), S2, S3 and
    T3 the sums of (D^2 - w^2)^-2, (D^2 - w^2)^-3 and D (D^2 - w^2)^-3 from
    the derivatives of G; E = cos w - cos phi keeps delta - w as delta gap,
    and s, t1, t2 = sin(w) / w, s' / w, t1' / w take their series in w^2."""
    phi, _, n, gap = _reduced(lag, beta)
    w = lag.delta * lag.n
    e = 2.0 * math.sin(0.5 * abs(phi) * gap) * math.sin(0.5 * abs(phi) * (1.0 + n))
    v, s, ds, d2s = w * w, 1.0, 0.0, 0.0
    for j in range(13, 0, -1):      # s = 1 - v s / ((2j)(2j + 1)), with d/dv and d2/dv2
        d = (2.0 * j) * (2.0 * j + 1.0)
        s, ds, d2s = 1.0 - v / d * s, -(s + v * ds) / d, -(2.0 * ds + v * d2s) / d
    if lag.rows is None:
        return -2.0 * math.pi * s / e
    (axz, ay, cy), t1, t2 = _row_sums(lag.rows), 2.0 * ds, 4.0 * d2s
    s2 = (t1 + s * s / e) / (4.0 * e)
    s3 = (t2 + (3.0 * s * t1 + 2.0 * s**3 / e) / e) / (16.0 * e)
    t3 = math.sin(phi) * (t1 + 2.0 * s * s / e) / (16.0 * e * e)
    return 16.0 * math.pi * ((axz + ay) * s2 + 2.0 * w * (w * axz * s3 + cy * t3))


def _thermal_images(lag, beta: float) -> float:
    """x of the thermal part: the images m != 0 of _periodic_closed_form as
    they stand, so that nothing cancels against m = 0.  Those next to the
    reduced lag phi (|k| <= 1 in the split's domain) take _image_form, the
    rest, |D| >= 3 pi, 14 terms ((2 / 3 pi)^28 < 1e-18) of their series in
    w^2 through Z(p) = sum (phi + 2 pi j)^-p = (2 pi)^-p [zeta(p, 2 + x) +
    (-1)^p zeta(p, 2 - x)], x = phi / 2 pi."""
    phi, k, n, gap = _reduced(lag, beta)
    w, sums = lag.delta * lag.n, _row_sums(lag.rows)
    q, x = 2 if sums is None else 4, 0.0
    for j in [j for j in (-1, 0, 1) if j != k]:
        d = (phi + j * TWO_PI) + j * TWO_PI_LO
        nu = math.copysign(n, w * phi) if j == 0 else w / d
        m = gap * (1.0 + n) if j == 0 else (1.0 - nu) * (1.0 + nu)
        x += _image_form(sums, nu, m) / d**q
    i, p = np.arange(14), np.arange(2, q + 28)
    z = (zeta(p, 2.0 + phi / TWO_PI) + (-1.0) ** p * zeta(p, 2.0 - phi / TWO_PI)) / TWO_PI**p
    vi = (w * w) ** i
    if sums is None:    # -4 pi sum_i w^2i Z(2 + 2i)
        return x - 4.0 * math.pi * float(vi @ z[::2])
    # 16 pi sum_i (i + 1) w^2i [((i + 1) A_xz + A_y) Z(4 + 2i) + (i + 2) w C_y Z(5 + 2i)]
    axz, ay, cy = sums
    return x + 16.0 * math.pi * float(vi @ ((i + 1) * (((i + 1) * axz + ay) * z[2::2]
                                                       + (i + 2) * w * cy * z[3::2])))


def _periodic(field, tau1, tau2, params: RotationParams, method: str, tol: float,
              split: bool = False):
    """The periodic CF of field ((pair, kind), or None for the scalar) by
    method, "closed-form" or "quadrature" (_cf_sphere's integral of the
    ladder: cubic, p = 3, sign +1 for EM; linear, 1, -1 for the scalar),
    scaled as delta^q times the CF; with split=True also a ThermalSplit of
    the continuous CF and the rest (sign * thermal_ladder_integral(phase, p)
    over the sphere for the quadrature)."""
    pair, kind = field or ((0, 0), "scalar")
    what = f"periodic {kind} {pair} CF"
    ladder, p, sign = ((linear_ladder_sum_closed, 1, -1.0) if field is None
                       else (cubic_ladder_sum_closed, 3, 1.0))
    if method == "quadrature":
        lag, weighted = _cf_sphere(field, params, tau1, tau2, tol)
        _check_resonances(lag.delta, lag.n)
        sphere = lambda f: integrate_sphere(weighted(lambda g: f(lag.delta * g)), tol)[0]
        total = lambda: sphere(ladder)
        thermal = lambda: sphere(lambda ph: sign * thermal_ladder_integral(ph, p))
    elif method == "closed-form":
        lag = _lag(field, params, tau1, tau2)
        total = lambda: _periodic_closed_form(lag, params.beta)
        thermal = lambda: _thermal_images(lag, params.beta)
    else:
        raise ValueError(f"unknown method {method!r}")
    dq = math.prod([lag.delta] * (p + 1))   # overflows to inf, which _scaled names
    cf = CFValue(kind=kind, pair=pair, tau1=tau1, tau2=tau2, spectrum="discrete",
                 value=_scaled(params, lag, dq * total(), what), method=method)
    if not split:
        return cf
    half = abs(lag.delta * lag.n)
    lo, hi = lag.delta - half, lag.delta + half
    if max(abs(lo), abs(hi)) >= 2.0 * math.pi:
        raise ResonanceError(
            "zero-point/thermal split undefined: |phase| reaches 2 pi on the sphere "
            f"(range [{lo:.6f}, {hi:.6f}]); the closed-form total remains valid"
        )
    return cf, ThermalSplit(
        zero_point_part=_scaled(params, lag, _closed_form(lag), f"zero-point part of the {what}"),
        thermal_part=_scaled(params, lag, dq * thermal(), f"thermal part of the {what}"))


def em_cf_discrete(tau1, tau2, params: RotationParams, tol: float = DEFAULT_TOL,
                   split: bool = False, method: str = "closed-form"):
    """Periodic electromagnetic CF (first tetrad axis, electric pair); the
    other pairs and kinds are reached through rotvac cf --spectrum discrete.

    Value is (hbar omega^4 / (4 pi^2 c^3)) times the sphere integral of the
    lab kernel of the (1,1) EE projection rows against the cubic ladder sum
    at the direction-dependent phase, the continuous CF summed over the
    images delta + 2 pi m of the lag: in closed form (method "closed-form";
    tol unused) or by quadrature to tol.  With split=True also returns its
    zero-point part (the continuous (1,1) CF) and thermal part (the images m
    != 0; requires |phase| < 2 pi everywhere).

    Periodic in delta with period 2 pi; ResonanceError where the light cone
    of an image m != 0 meets the lag (for the quadrature, where the phase
    range over the sphere meets 2 pi Z).
    """
    return _periodic(((1, 1), "EE"), tau1, tau2, params, method, tol, split)


def scalar_cf_discrete(tau1, tau2, params: RotationParams, tol: float = DEFAULT_TOL,
                       split: bool = False, method: str = "closed-form"):
    """Periodic massless-scalar CF.

    (hbar c k0^2 / (4 pi^2)) times the sphere integral of the linear ladder
    sum, by method as for em_cf_discrete; the split exposes the zero-point
    part, the continuous scalar CF, and the (negative) Planck-weighted
    thermal part.
    """
    return _periodic(None, tau1, tau2, params, method, tol, split)
