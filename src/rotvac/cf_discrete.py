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
its QUADPACK evaluation is the independent oracle of the tests.

``phase`` here is the direction-dependent quantity

    phase(delta, ky) = delta (1 - ky beta sin(delta/2) / (delta/2)),

with delta the angular lag and ky the y-component of the propagation
direction; ``time_lag`` = phase / omega is its dimensional counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import polygamma

from .constants import Constants, planck_occupancy
from .cf_continuous import COINCIDENCE_TOL, CFValue, CoincidenceError
from .fields import angular_weight_kernel_grid
from .kinematics import RotationParams
from .numerics import DEFAULT_SPEC, QuadratureSpec, integrate_sphere

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
    "thermal_integrand_rotation",
    "thermal_integrand_planck",
    "zero_point_integrand",
    "inertial_thermal_cf_integrand",
    "em_cf_discrete",
    "scalar_cf_discrete",
]

RESONANCE_TOL = 1e-9  # distance of phase to 2 pi Z treated as resonant


class ResonanceError(ValueError):
    """Ladder sum requested on (or across) the resonance manifold phase in 2 pi Z."""

    def __init__(self, message, region=None):
        super().__init__(message)
        self.region = region


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
    """phase(delta, ky) = delta - 2 beta ky sin(delta/2); vectorized in ky."""
    return delta - 2.0 * params.beta * np.asarray(ky) * math.sin(delta / 2.0)


def _distance_to_resonance(phase):
    return np.abs(np.remainder(np.asarray(phase) + math.pi, 2.0 * math.pi) - math.pi)


def cubic_ladder_sum_closed(phase):
    """Closed form of the regularized sum over n >= 0 of n^3 cos(n phase).

    Equals (3 - 2 sin^2(phase/2)) / (8 sin^4(phase/2)); the two formally
    divergent 6/phase^4 bookkeeping terms of the split representation cancel
    algebraically.  Resonant at phase in 2 pi Z.
    """
    phase = np.asarray(phase, dtype=float)
    if np.any(_distance_to_resonance(phase) < RESONANCE_TOL):
        raise ResonanceError("cubic ladder sum diverges at phase in 2 pi Z")
    s2 = np.sin(phase / 2.0) ** 2
    out = (3.0 - 2.0 * s2) / (8.0 * s2 * s2)
    return float(out) if out.ndim == 0 else out


def linear_ladder_sum_closed(phase):
    """Closed form of the regularized sum over n >= 0 of n cos(n phase):
    -1 / (4 sin^2(phase/2))."""
    phase = np.asarray(phase, dtype=float)
    if np.any(_distance_to_resonance(phase) < RESONANCE_TOL):
        raise ResonanceError("linear ladder sum diverges at phase in 2 pi Z")
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
    if np.any(np.abs(phase) >= 2.0 * math.pi):
        raise ResonanceError(
            f"thermal integral diverges for |phase| = {float(np.max(np.abs(phase)))!r} >= 2 pi"
        )
    x = phase / (2.0 * math.pi)
    out = (polygamma(p, 1.0 + x) + polygamma(p, 1.0 - x)) / (2.0 * math.pi) ** (p + 1)
    return float(out) if out.ndim == 0 else out


def cubic_ladder_split(phase: float, omega0: float = 1.0) -> ThermalSplit:
    """Zero-point / thermal split of the cubic ladder sum, in omega0^4 units.

    zero_point_part is the regularized frequency integral 6 / time_lag^4;
    thermal_part is the convergent Planck-weighted integral.  total / omega0^4
    reproduces cubic_ladder_sum_closed(phase).
    """
    zp = omega0**4 * 6.0 / phase**4
    th = omega0**4 * thermal_ladder_integral(phase, p=3)
    return ThermalSplit(zero_point_part=zp, thermal_part=th)


def linear_ladder_split(phase: float, omega0: float = 1.0) -> ThermalSplit:
    """Split of the linear ladder sum (scalar case), in omega0^2 units.

    The zero-point part carries the regularized value -1/time_lag^2 and the
    thermal part enters with a minus sign.
    """
    zp = -(omega0**2) / phase**2
    th = -(omega0**2) * thermal_ladder_integral(phase, p=1)
    return ThermalSplit(zero_point_part=zp, thermal_part=th)


def zero_point_integrand(omega, time_lag, p: int = 3):
    """Integrand omega^p cos(omega time_lag) of the divergent zero-point
    integral (never integrated numerically; kept for pointwise comparisons)."""
    return np.asarray(omega) ** p * np.cos(np.asarray(omega) * time_lag)


def thermal_integrand_rotation(omega, time_lag, omega0: float):
    """Thermal integrand 2 w^3 cosh(w lag) / (e^(2 pi w / omega0) - 1)."""
    w = np.asarray(omega, dtype=float)
    return 2.0 * w**3 * np.cosh(w * time_lag) / np.expm1(2.0 * math.pi * w / omega0)


def thermal_integrand_planck(omega, time_lag, temperature: float, const: Constants):
    """Same integrand written with the Planck occupancy at a temperature."""
    w = np.asarray(omega, dtype=float)
    return 2.0 * w**3 * np.cosh(w * time_lag) * planck_occupancy(w, temperature, const)


def inertial_thermal_cf_integrand(omega, t, temperature: float, const: Constants):
    """Thermal integrand 2 w^3 cos(w t) / (e^(hbar w / k_B T) - 1) of the
    rest-frame Planck-spectrum correlation function."""
    w = np.asarray(omega, dtype=float)
    return 2.0 * w**3 * np.cos(w * t) * planck_occupancy(w, temperature, const)


def _resonance_scan(delta: float, params: RotationParams):
    """Range of phase over the sphere and any 2 pi multiples crossed by it."""
    half = 2.0 * abs(params.beta * math.sin(delta / 2.0))
    lo, hi = delta - half, delta + half
    m_lo = math.ceil(lo / (2.0 * math.pi) - 1e-12)
    m_hi = math.floor(hi / (2.0 * math.pi) + 1e-12)
    crossings = []
    for m in range(m_lo, m_hi + 1):
        target = 2.0 * math.pi * m
        if lo - RESONANCE_TOL <= target <= hi + RESONANCE_TOL:
            if half > RESONANCE_TOL:
                ky = (delta - target) / (2.0 * params.beta * math.sin(delta / 2.0))
            else:
                ky = None  # phase is constant over the sphere
            crossings.append({"multiple": m, "ky": ky})
    return lo, hi, crossings


def _check_resonances(delta: float, params: RotationParams):
    lo, hi, crossings = _resonance_scan(delta, params)
    if crossings:
        region = [
            {"ky": c["ky"], "multiple": c["multiple"],
             "description": ("entire sphere (phase is constant at a multiple of 2 pi)"
                             if c["ky"] is None else
                             f"directions with sin(theta) sin(phi) = {c['ky']:.6f}")}
            for c in crossings
        ]
        raise ResonanceError(
            f"phase range [{lo:.6f}, {hi:.6f}] crosses the resonance manifold; "
            "the ladder sum has non-integrable poles there",
            region=region,
        )
    return lo, hi


def _ladder_cf(kind: str, pair, pref: float, tau1, tau2, params: RotationParams,
               spec: QuadratureSpec, split: bool, weight, ladder, zero_point,
               p: int, sign: float):
    """CF whose value is pref times the sphere integral of
    weight(theta, phi, delta) times ladder(phase(delta, k_y)).  With
    split=True also returns the same integrals of zero_point(phase) and of
    sign * thermal_ladder_integral(phase, p) as a ThermalSplit.
    """
    delta = params.alpha(tau2) - params.alpha(tau1)
    if abs(delta) < COINCIDENCE_TOL:
        raise CoincidenceError("discrete CF diverges at coincidence; use the energy-density split")
    lo, hi = _check_resonances(delta, params)

    def over_sphere(f):
        def integrand(theta, phi):
            ky = np.sin(theta) * np.sin(phi)
            return weight(theta, phi, delta) * f(ladder_phase(delta, ky, params))
        val, _ = integrate_sphere(integrand, spec)
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
        zero_point_part=over_sphere(zero_point),
        thermal_part=over_sphere(lambda ph: sign * thermal_ladder_integral(ph, p)))


def em_cf_discrete(tau1, tau2, params: RotationParams,
                   spec: QuadratureSpec = DEFAULT_SPEC, split: bool = False):
    """Periodic electromagnetic CF (first tetrad axis, electric pair).

    Value is (2 hbar omega^4 / (3 pi c^3)) times the sphere integral of the
    angular weight kernel against the cubic ladder sum at the direction-
    dependent phase.  With split=True also returns the angular integrals of
    the zero-point and thermal parts (requires |phase| < 2 pi everywhere).

    Periodic in delta with period 2 pi; resonant configurations raise
    ResonanceError carrying the offending directions.
    """
    const = params.constants
    pref = 2.0 * const.hbar * params.omega**4 / (3.0 * math.pi * const.c**3)
    return _ladder_cf(
        "EE", (1, 1), pref, tau1, tau2, params, spec, split,
        weight=lambda theta, phi, delta: angular_weight_kernel_grid(theta, phi, delta, params),
        ladder=cubic_ladder_sum_closed, zero_point=lambda ph: 6.0 / ph**4, p=3, sign=1.0)


def scalar_cf_discrete(tau1, tau2, params: RotationParams,
                       spec: QuadratureSpec = DEFAULT_SPEC, split: bool = False):
    """Periodic massless-scalar CF.

    (hbar c k0^2 / (4 pi^2)) times the sphere integral of the linear ladder
    sum; the split exposes the regularized zero-point part -1/time_lag^2 and
    the (negative) Planck-weighted thermal part.
    """
    const = params.constants
    k0 = params.omega / const.c
    pref = const.hbar * const.c * k0**2 / (4.0 * math.pi**2)
    return _ladder_cf(
        "scalar", (0, 0), pref, tau1, tau2, params, spec, split,
        weight=lambda theta, phi, delta: 1.0,
        ladder=linear_ladder_sum_closed, zero_point=lambda ph: -1.0 / ph**2, p=1, sign=-1.0)
