"""Energy densities with zero-point/thermal split, the vacuum force curve,
the Casimir-model comparison, and hadron-scale estimates.

Each thermal density has two routes.  The closed forms are the EM factor
2 (4 gamma^2 - 1) / 3 times the blackbody density (4 sigma / c) T_rot^4, and
the scalar factor (4 gamma^2 - 1) / 3 times the inertial bath, whose Planck
integral is pi^4 / 15.  The quadrature route integrates the comoving Doppler
weight gamma^2 (1 - beta k_y)^2 over the sphere on the thermal ladder and
uses neither factor nor sigma.  The scalar ratio it measures is
(4 gamma^2 - 1) / 3, not the 2 (4 gamma^2 - 1) / 9 of the paper's abstract.
The divergent zero-point parts are always reported with their cutoff.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .constants import SI, Constants
from .cf_discrete import rotation_temperature, thermal_ladder_integral
from .kinematics import LuminalOrbitError, RotationParams
from .numerics import _power, integrate_sphere

__all__ = [
    "ThermoReport",
    "ForcePoint",
    "CasimirResult",
    "HadronEstimate",
    "em_anisotropy_factor",
    "scalar_bath_factor",
    "em_energy_density",
    "scalar_energy_density",
    "em_thermal_density_quadrature",
    "scalar_bath_thermal_density",
    "scalar_thermal_density_quadrature",
    "em_thermal_density_at",
    "vacuum_force_density",
    "casimir_force",
    "hadron_estimates",
    "CASIMIR_MODEL_C",
    "QUARK_GLUON_PLASMA_T",
]

# charged-particle Casimir-model constant (literature value; energy positive)
CASIMIR_MODEL_C = -0.09

# quark-gluon-plasma creation temperature quoted for context only, K
QUARK_GLUON_PLASMA_T = 1.90e12


@dataclass(frozen=True)
class ThermoReport:
    field_kind: str          # "em" | "scalar"
    T_rot: float             # K
    w_zp_cutoff: float       # truncated zero-point part, J/m^3
    w_thermal: float         # convergent thermal part, J/m^3
    w_total_cutoff: float    # w_zp_cutoff + w_thermal
    anisotropy_factor: float
    cutoff_n_max: int
    mixed_moment_residual: Optional[float] = None  # <E1 H3> - <E3 H1> cross-check; EM only


@dataclass(frozen=True)
class ForcePoint:
    r: float            # m
    x: float            # r / r0
    f_vac: float        # N / m^3
    F_sphere: Optional[float] = None  # N, for a given particle radius


@dataclass(frozen=True)
class CasimirResult:
    energy: float  # J
    force: float   # N


@dataclass(frozen=True)
class HadronEstimate:
    force_newton: float
    force_gev_per_fermi: float
    T_rot: float
    f_vac: float           # N / m^3
    prefactor_j_per_m: float  # (4 c hbar / 135 pi) a^3 / r0^5
    x: float


def em_anisotropy_factor(params: RotationParams) -> float:
    """2 (4 gamma^2 - 1) / 3; equals 2 at beta = 0."""
    g2 = params.gamma**2
    return 2.0 * (4.0 * g2 - 1.0) / 3.0


def scalar_bath_factor(params: RotationParams) -> float:
    """(4 gamma^2 - 1) / 3: the rotating scalar energy density over the
    inertial bath at T_rot, for the zero-point and thermal parts alike."""
    g2 = params.gamma**2
    return (4.0 * g2 - 1.0) / 3.0


def _ladder_cubic_sum(n_max: int) -> float:
    # sum_{n<=N} n^3 = N^2 (N+1)^2 / 4
    return n_max * n_max * (n_max + 1.0) * (n_max + 1.0) / 4.0


def _finite(value: float, name: str, nonzero: bool = False) -> float:
    """value, or OverflowError when a product has left the float64 range: it
    overflowed or, known to be non-zero, flushed to zero or a subnormal."""
    if not math.isfinite(value):
        raise OverflowError(f"{name} is {value!r}")
    if nonzero and abs(value) < sys.float_info.min:
        raise OverflowError(f"{name} flushes to {value!r} from a non-zero value")
    return value


def _report(field_kind: str, params: RotationParams, cutoff_n_max: int, factor: float,
            T: float, w_zp: float, w_t: float, **extra) -> ThermoReport:
    """ThermoReport with every value checked by _finite: for omega > 0 each
    one is positive, so a zero or subnormal value has underflowed."""
    positive = params.omega > 0.0
    T, w_zp, w_t, total = (_finite(v, name, positive) for v, name in (
        (T, "T_rot"), (w_zp, "w_zp_cutoff"), (w_t, "w_thermal"),
        (w_zp + w_t, "w_total_cutoff")))
    return ThermoReport(field_kind=field_kind, T_rot=T, w_zp_cutoff=w_zp, w_thermal=w_t,
                        w_total_cutoff=total, anisotropy_factor=factor,
                        cutoff_n_max=cutoff_n_max, **extra)


def _blackbody(factor: float, T: float, const: Constants) -> float:
    """factor * (4 sigma / c) T^4, multiplied left to right."""
    return factor * 4.0 * const.sigma / const.c * _power(T, 4, "T_rot")


def _doppler_ladder_integral(params: RotationParams) -> float:
    """thermal_ladder_integral(0, p=3) * int dOmega gamma^2 (1 - beta k_y)^2:
    the thermal ladder at coincidence in every direction, times the squared
    rate k0 gamma (1 - beta k_y) of its phase per unit c tau over k0."""
    g2 = params.gamma**2
    beta = params.beta

    def doppler_weight(khat):
        return g2 * (1.0 - beta * khat[..., 1]) ** 2

    weight, _ = integrate_sphere(doppler_weight)
    return thermal_ladder_integral(0.0, p=3) * weight


def _mixed_moment_residual() -> float:
    """Angular integral behind <E1 H3> - <E3 H1> at one point; identically
    zero (odd integrand), evaluated by quadrature as a cross-check."""
    def integrand(khat):
        return -2.0 * khat[..., 1]  # eps_{3 a 1} khat_a summed over both orderings
    val, _ = integrate_sphere(integrand)
    return val


def em_energy_density(params: RotationParams, cutoff_n_max: int) -> ThermoReport:
    """Electromagnetic energy density seen on the rotating worldline.

    w_thermal is the exact closed form anisotropy * (4 sigma / c) T_rot^4.
    w_zp_cutoff is the zero-point ladder truncated at n_max,
    anisotropy * (hbar omega^4 / (2 pi^2 c^3)) * sum n^3; it grows without
    bound with the cutoff and is always reported together with it.
    """
    if cutoff_n_max < 1:
        raise ValueError("cutoff_n_max must be >= 1")
    const = params.constants
    T = rotation_temperature(params)
    aniso = em_anisotropy_factor(params)
    w_t = _blackbody(aniso, T, const)
    w_zp = aniso * const.hbar * _power(params.omega, 4, "omega") \
        / (2.0 * math.pi**2 * const.c**3) * _ladder_cubic_sum(cutoff_n_max)
    return _report("em", params, cutoff_n_max, aniso, T, w_zp, w_t,
                   mixed_moment_residual=_mixed_moment_residual())


def em_thermal_density_quadrature(params: RotationParams) -> float:
    """w_thermal by the Doppler quadrature, oracle for em_anisotropy_factor
    and sigma: hbar omega^4 / (2 pi^2 c^3) times 2 polarizations times the
    sphere average (the 1 / 4 pi).  OverflowError when it leaves the float64
    range."""
    const = params.constants
    w_t = (const.hbar * params.omega**4 / (2.0 * math.pi**2 * const.c**3)
           * 2.0 / (4.0 * math.pi) * _doppler_ladder_integral(params))
    return _finite(w_t, "Doppler-quadrature w_thermal")


def scalar_bath_thermal_density(temperature: float, const: Constants = SI) -> float:
    """Thermal part of the inertial scalar-bath energy density at T:
    (2 hbar / pi c^3) (k_B T / hbar)^4 int u^3 / (e^u - 1) du, the integral
    being pi^4 / 15.  ValueError unless 0 <= T < inf; OverflowError when
    the density leaves the float64 range."""
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature!r}")
    scale = const.k_B * temperature / const.hbar
    return _finite(2.0 * const.hbar / (math.pi * const.c**3) * _power(scale, 4, "k_B T / hbar")
                   * math.pi**4 / 15.0, f"bath density at T = {temperature!r}")


def scalar_thermal_density_quadrature(params: RotationParams) -> float:
    """Thermal part of the rotating scalar energy density, measured by the
    Doppler quadrature with the scalar CF prefactor hbar c k0^4 / (4 pi^2);
    oracle for scalar_bath_factor.  OverflowError when it leaves the float64
    range."""
    const = params.constants
    k0 = params.omega / const.c
    w_t = const.hbar * const.c * k0**4 / (4.0 * math.pi**2) * _doppler_ladder_integral(params)
    return _finite(w_t, "Doppler-quadrature scalar w_thermal")


def scalar_energy_density(params: RotationParams, cutoff_n_max: int) -> ThermoReport:
    """Massless-scalar energy density on the rotating worldline.

    The thermal part equals scalar_bath_factor(params) times the bath
    reference at T_rot; the zero-point ladder is truncated at the cutoff with
    matching bookkeeping, factor * (hbar omega^4 / pi c^3) * sum n^3.
    """
    if cutoff_n_max < 1:
        raise ValueError("cutoff_n_max must be >= 1")
    const = params.constants
    T = rotation_temperature(params)
    factor = scalar_bath_factor(params)
    w_t = factor * scalar_bath_thermal_density(T, const)
    w_zp = factor * const.hbar * _power(params.omega, 4, "omega") / (math.pi * const.c**3) \
        * _ladder_cubic_sum(cutoff_n_max)
    return _report("scalar", params, cutoff_n_max, factor, T, w_zp, w_t)


def em_thermal_density_at(omega: float, r: float, const: Constants = SI) -> float:
    """w_thermal as a function of orbit radius at fixed angular velocity."""
    params = RotationParams(omega=omega, radius=r, constants=const)
    T = rotation_temperature(params)
    return _finite(_blackbody(em_anisotropy_factor(params), T, const), "w_thermal")


def vacuum_force_density(params: RotationParams, r: float,
                         sphere_radius: Optional[float] = None) -> ForcePoint:
    """Radial volume force density -d w_thermal / d r at fixed omega.

    Closed form: -(8/3) (omega/c)^2 * 2 r / (1 - (omega r / c)^2)^2
    * (4 sigma / c) T_rot^4.  Negative (directed to the orbit center) for all
    0 < r < c / omega; orbits at or beyond c / omega do not exist.
    """
    const = params.constants
    omega = params.omega
    if omega <= 0:
        raise ValueError("vacuum force requires omega > 0")
    if sphere_radius is not None and not 0.0 < sphere_radius < math.inf:
        raise ValueError(f"sphere radius must be finite and positive, got {sphere_radius!r}")
    r0 = const.c / omega
    if not r >= 0:
        raise ValueError("radius must be non-negative")
    if r >= r0:
        raise LuminalOrbitError(f"no orbit at r = {r!r} >= c/omega = {r0!r}")
    T = rotation_temperature(params)
    x = r / r0
    f = _blackbody(-(8.0 / 3.0) * (omega / const.c) ** 2 * 2.0 * r / (1.0 - x * x) ** 2,
                   T, const)
    F = (None if sphere_radius is None
         else f * (4.0 / 3.0) * math.pi * _power(sphere_radius, 3, "sphere radius"))
    return ForcePoint(r=r, x=x, f_vac=_finite(f, "f_vac"),
                      F_sphere=None if F is None else _finite(F, "F_sphere"))


def casimir_force(a_shell: float) -> CasimirResult:
    """Charged-particle Casimir-model energy -C hbar c / 2a and its force
    -C hbar c / 2a^2, with C = CASIMIR_MODEL_C, in SI units.

    With the literature C < 0 the energy is positive and the force repulsive,
    opposite in direction to the vacuum force.  OverflowError when the force
    leaves the float64 range.
    """
    if not 0.0 < a_shell < math.inf:
        raise ValueError(f"shell radius must be finite and positive, got {a_shell!r}")
    energy = -CASIMIR_MODEL_C * SI.hbar * SI.c / (2.0 * a_shell)
    force = _finite(energy / a_shell, f"Casimir-model force at a = {a_shell!r}", nonzero=True)
    return CasimirResult(energy=energy, force=force)


def hadron_estimates(a_sphere: float, r0: float, x: float,
                     const: Constants = SI) -> HadronEstimate:
    """Order-of-magnitude force and temperature at hadronic scales.

    Evaluates F = -(x / (1 - x^2)^2) (4 c hbar / 135 pi) a^3 / r0^5 for a
    sphere of radius a_sphere on an orbit at x = r / r0 with omega = c / r0,
    plus T_rot = hbar omega / (2 pi k_B) (rotation_temperature).  a_sphere is
    the particle size and is distinct from the orbit radius x * r0.  Every constant, the elementary
    charge of the GeV/fermi conversion included, comes from const.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must be in (0, 1)")
    # the prefactor divides by r0^5, which must not underflow
    if not (0.0 < a_sphere < math.inf and 0.0 < _power(r0, 5, "r0") < math.inf):
        raise ValueError(f"radii must be finite and positive, got a = {a_sphere!r}, r0 = {r0!r}")
    omega = const.c / r0
    params = RotationParams(omega=omega, radius=x * r0, constants=const)
    point = vacuum_force_density(params, x * r0, sphere_radius=a_sphere)
    prefactor = _finite(4.0 * const.c * const.hbar / (135.0 * math.pi)
                        * _power(a_sphere, 3, "sphere radius") / r0**5, "prefactor_j_per_m")
    return HadronEstimate(
        force_newton=point.F_sphere,
        force_gev_per_fermi=point.F_sphere / const.gev_per_fermi,
        T_rot=rotation_temperature(params),
        f_vac=point.f_vac,
        prefactor_j_per_m=prefactor,
        x=x,
    )
