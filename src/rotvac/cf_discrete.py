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
its QUADPACK evaluation is the oracle of the tests and of c07.  Over the
directions the zero-point part integrates to the continuous-spectrum CF at
the same lag, which the split takes from the closed forms of cf_continuous.

``phase`` here is the direction-dependent quantity

    phase = delta (1 - khat . chord),   chord = (r(0) - r(s)) / c (t(0) - t(s)),

with delta the angular lag, s = tau2 - tau1 and khat the propagation
direction; it runs over delta (1 -/+ n), n chat the chord of the lag record
(cf_continuous._lag).  Each ladder is the radial factor of the one CF sphere
integrand (cf_continuous._cf_sphere), integrated over the directions against
the weight of the continuous CF of its field: the lab kernel of the
projection rows for the electromagnetic field, 1 for the scalar.  The
prefactor hbar c k0^q / (4 pi^2) is delta^q times the CF scale of _scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, zeta

from .cf_continuous import CFValue, _cf_sphere, _closed_form_11, _scalar_closed_form, _scaled
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
    """Range (lo, hi) of phase over the sphere at |chord| = |n|; ResonanceError
    if it comes within RESONANCE_TOL of a multiple of 2 pi.  Its half-width
    is at most 2 < pi, so only the multiple nearest to delta can be met."""
    half = abs(delta * n)
    lo, hi = delta - half, delta + half
    if abs(delta - 2.0 * math.pi * round(delta / (2.0 * math.pi))) <= half + RESONANCE_TOL:
        raise ResonanceError(
            f"phase range [{lo:.6f}, {hi:.6f}] meets the resonance manifold 2 pi Z; "
            "the ladder sum has non-integrable poles there")
    return lo, hi


def _ladder_cf(field, tau1, tau2, params: RotationParams, tol: float, split: bool,
               ladder, continuous, p: int, sign: float):
    """CF whose value is delta^q, q = p + 1, times the sphere integral of the
    weight of field ((pair, kind), or None for the scalar) times
    ladder(delta (1 - khat . chord)), the integrand of
    cf_continuous._cf_sphere, scaled by _scaled: hbar c k0^q / (4 pi^2),
    since k0 c dt = delta.  With split=True also returns a ThermalSplit of
    the continuous CF continuous(params, lag) and the same CF of
    sign * thermal_ladder_integral(phase, p)."""
    lag, weighted = _cf_sphere(field, params, tau1, tau2, tol)
    lo, hi = _check_resonances(lag.delta, lag.n)
    dq = math.prod([lag.delta] * (p + 1))   # overflows to inf, which _scaled names

    def over_sphere(f, what):
        val, _ = integrate_sphere(weighted(lambda g: f(lag.delta * g)), tol, axis=lag.chat)
        return _scaled(params, lag, p + 1, dq * val, what)

    pair, kind = field or ((0, 0), "scalar")
    what = f"periodic {kind} {pair} CF"
    cf = CFValue(kind=kind, pair=pair, tau1=tau1, tau2=tau2,
                 spectrum="discrete", value=over_sphere(ladder, what), method="quadrature")
    if not split:
        return cf
    if max(abs(lo), abs(hi)) >= 2.0 * math.pi:
        raise ResonanceError(
            "zero-point/thermal split undefined: |phase| reaches 2 pi on the sphere "
            f"(range [{lo:.6f}, {hi:.6f}]); the closed-form total remains valid"
        )
    return cf, ThermalSplit(
        zero_point_part=continuous(params, lag),
        thermal_part=over_sphere(lambda ph: sign * thermal_ladder_integral(ph, p),
                                 f"thermal part of the {what}"))


def em_cf_discrete(tau1, tau2, params: RotationParams,
                   tol: float = DEFAULT_TOL, split: bool = False):
    """Periodic electromagnetic CF (first tetrad axis, electric pair).

    Value is (hbar omega^4 / (4 pi^2 c^3)) times the sphere integral of the
    lab kernel of the (1,1) EE projection rows against the cubic ladder sum
    at the direction-dependent phase.  With split=True also returns its
    zero-point part (the continuous (1,1) CF) and thermal part (requires
    |phase| < 2 pi everywhere).

    Periodic in delta with period 2 pi; ResonanceError where the phase
    range over the sphere meets 2 pi Z.
    """
    return _ladder_cf(((1, 1), "EE"), tau1, tau2, params, tol, split,
                      ladder=cubic_ladder_sum_closed, continuous=_closed_form_11, p=3, sign=1.0)


def scalar_cf_discrete(tau1, tau2, params: RotationParams,
                       tol: float = DEFAULT_TOL, split: bool = False):
    """Periodic massless-scalar CF.

    (hbar c k0^2 / (4 pi^2)) times the sphere integral of the linear ladder
    sum; the split exposes the zero-point part, the continuous scalar CF, and
    the (negative) Planck-weighted thermal part.
    """
    return _ladder_cf(None, tau1, tau2, params, tol, split,
                      ladder=linear_ladder_sum_closed, continuous=_scalar_closed_form, p=1,
                      sign=-1.0)
