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

    phase(delta, ky) = delta (1 - ky beta sin(delta/2) / (delta/2)),

with delta the angular lag and ky the y-component of the propagation
direction; ``time_lag`` = phase / omega is its dimensional counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, zeta

from .cf_continuous import CFValue, _closed_form_11, _lag, _scalar_closed_form
from .fields import angular_weight_kernel_grid
from .kinematics import RotationParams
from .numerics import DEFAULT_TOL, integrate_sphere

__all__ = [
    "ResonanceError",
    "ThermalSplit",
    "rotation_temperature",
    "ladder_phase",
    "cubic_ladder_sum_closed",
    "linear_ladder_sum_closed",
    "thermal_ladder_integral",
    "cubic_ladder_split",
    "linear_ladder_split",
    "em_cf_discrete",
    "scalar_cf_discrete",
]

RESONANCE_TOL = 1e-9  # distance of phase to 2 pi Z treated as resonant


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


def ladder_phase(delta, ky, params: RotationParams):
    """phase(delta, ky) = delta - 2 beta ky sin(delta/2); vectorized in ky.
    ValueError unless delta is finite."""
    if not math.isfinite(delta):
        raise ValueError(f"lag delta must be finite, got {delta!r}")
    return delta - 2.0 * params.beta * np.asarray(ky) * math.sin(delta / 2.0)


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
    with x = phase / 2 pi and psi_p the polygamma function (DLMF 5.15.1),
    for odd p >= 1; vectorized in phase.
    """
    if p < 1 or p % 2 == 0:
        raise ValueError(f"closed form holds for odd p >= 1, got p = {p!r}")
    phase = np.asarray(phase, dtype=float)
    if not np.all(np.abs(phase) < 2.0 * math.pi):
        raise ResonanceError(
            f"thermal integral needs |phase| < 2 pi, got |phase| = "
            f"{float(np.max(np.abs(phase)))!r}")
    x = phase / (2.0 * math.pi)
    # psi_p(z) = (-1)^(p+1) p! zeta(p+1, z) with p! = gamma(p + 1), as scipy's
    # polygamma evaluates it but without its Python wrapper (~10 us per call);
    # the sign is +1 for odd p
    c = gamma(p + 1.0)
    out = (c * zeta(p + 1, 1.0 + x) + c * zeta(p + 1, 1.0 - x)) / (2.0 * math.pi) ** (p + 1)
    return float(out) if out.ndim == 0 else out


def cubic_ladder_split(phase: float) -> ThermalSplit:
    """Zero-point / thermal split of the cubic ladder sum at a phase.

    zero_point_part is the regularized frequency integral 6 / phase^4;
    thermal_part is the convergent Planck-weighted integral; the total
    reproduces cubic_ladder_sum_closed(phase).
    """
    return ThermalSplit(zero_point_part=_zero_point_part(6.0, phase, 4),
                        thermal_part=thermal_ladder_integral(phase, p=3))


def linear_ladder_split(phase: float) -> ThermalSplit:
    """Split of the linear ladder sum (scalar case) at a phase.

    The zero-point part carries the regularized value -1/phase^2 and the
    thermal part enters with a minus sign.
    """
    return ThermalSplit(zero_point_part=_zero_point_part(-1.0, phase, 2),
                        thermal_part=-thermal_ladder_integral(phase, p=1))


def _check_resonances(delta: float, params: RotationParams):
    """Range (lo, hi) of phase over the sphere; ResonanceError if it comes
    within RESONANCE_TOL of a multiple of 2 pi.  Its half-width is at most
    2 < pi, so only the multiple nearest to delta can be met."""
    half = 2.0 * abs(params.beta * math.sin(delta / 2.0))
    lo, hi = delta - half, delta + half
    if abs(delta - 2.0 * math.pi * round(delta / (2.0 * math.pi))) <= half + RESONANCE_TOL:
        raise ResonanceError(
            f"phase range [{lo:.6f}, {hi:.6f}] meets the resonance manifold 2 pi Z; "
            "the ladder sum has non-integrable poles there")
    return lo, hi


def _ladder_cf(kind: str, pair, pref: float, tau1, tau2, params: RotationParams,
               tol: float, split: bool, weight, ladder, continuous,
               p: int, sign: float):
    """CF whose value is pref times the sphere integral of
    weight(k_x, k_y, delta) times ladder(phase(delta, k_y)).  With
    split=True also returns a ThermalSplit of the continuous CF
    continuous(params, delta, dt_lab) and the same sphere integral of
    sign * thermal_ladder_integral(phase, p).
    """
    delta, dt_lab = _lag(params, tau1, tau2)
    lo, hi = _check_resonances(delta, params)

    def over_sphere(f):
        def integrand(khat):
            ky = khat[..., 1]
            return weight(khat[..., 0], ky, delta) * f(ladder_phase(delta, ky, params))
        val, _ = integrate_sphere(integrand, tol)
        return pref * val

    cf = CFValue(kind=kind, pair=pair, tau1=tau1, tau2=tau2,
                 spectrum="discrete", value=over_sphere(ladder), method="quadrature")
    if not split:
        return cf
    if max(abs(lo), abs(hi)) >= 2.0 * math.pi:
        raise ResonanceError(
            "zero-point/thermal split undefined: |phase| reaches 2 pi on the sphere "
            f"(range [{lo:.6f}, {hi:.6f}]); the closed-form total remains valid"
        )
    return cf, ThermalSplit(
        zero_point_part=continuous(params, delta, dt_lab),
        thermal_part=over_sphere(lambda ph: sign * thermal_ladder_integral(ph, p)))


def em_cf_discrete(tau1, tau2, params: RotationParams,
                   tol: float = DEFAULT_TOL, split: bool = False):
    """Periodic electromagnetic CF (first tetrad axis, electric pair).

    Value is (2 hbar omega^4 / (3 pi c^3)) times the sphere integral of the
    angular weight kernel against the cubic ladder sum at the direction-
    dependent phase.  With split=True also returns its zero-point part (the
    continuous (1,1) CF) and thermal part (requires |phase| < 2 pi everywhere).

    Periodic in delta with period 2 pi; ResonanceError where the phase
    range over the sphere meets 2 pi Z.
    """
    const = params.constants
    pref = 2.0 * const.hbar * params.omega**4 / (3.0 * math.pi * const.c**3)
    return _ladder_cf(
        "EE", (1, 1), pref, tau1, tau2, params, tol, split,
        weight=lambda kx, ky, delta: angular_weight_kernel_grid(kx, ky, delta, params),
        ladder=cubic_ladder_sum_closed, continuous=_closed_form_11, p=3, sign=1.0)


def scalar_cf_discrete(tau1, tau2, params: RotationParams,
                       tol: float = DEFAULT_TOL, split: bool = False):
    """Periodic massless-scalar CF.

    (hbar c k0^2 / (4 pi^2)) times the sphere integral of the linear ladder
    sum; the split exposes the zero-point part, the continuous scalar CF, and
    the (negative) Planck-weighted thermal part.
    """
    const = params.constants
    k0 = params.omega / const.c
    pref = const.hbar * const.c * k0**2 / (4.0 * math.pi**2)
    return _ladder_cf(
        "scalar", (0, 0), pref, tau1, tau2, params, tol, split,
        weight=lambda kx, ky, delta: 1.0,
        ladder=linear_ladder_sum_closed, continuous=_scalar_closed_form, p=1, sign=-1.0)
