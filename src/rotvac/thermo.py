"""Energy densities with zero-point/thermal split, the vacuum force curve,
the Casimir-model comparison, and hadron-scale estimates.

The rotating detector's electromagnetic energy density follows the harmonic
ladder; its convergent thermal part equals the blackbody density at the
rotation temperature times the anisotropy factor 2 (4 gamma^2 - 1) / 3.  The
divergent zero-point part is always reported with its cutoff attached.

For the massless scalar the analogous factor relating the detector's density
to the inertial thermal-bath reference is (4 gamma^2 - 1) / 3.  The bath
reference is computed from the thermal spectral function, and
scalar_thermal_density_quadrature measures the detector's thermal density
independently, by sphere quadrature of the periodic scalar correlation
function's thermal part; their ratio reproduces (4 gamma^2 - 1) / 3 and not
the 2 (4 gamma^2 - 1) / 9 stated in the paper's abstract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import SI, Constants
from .cf_discrete import rotation_temperature, thermal_ladder_integral
from .kinematics import LuminalOrbitError, RotationParams
from .numerics import DEFAULT_SPEC, QuadratureSpec, integrate_1d, integrate_sphere

__all__ = [
    "ThermoReport",
    "ForcePoint",
    "CasimirResult",
    "HadronEstimate",
    "em_anisotropy_factor",
    "scalar_bath_factor",
    "em_energy_density",
    "scalar_energy_density",
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
    mixed_moment_residual: float = 0.0  # <E1 H3> - <E3 H1> cross-check


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
    """(4 gamma^2 - 1) / 3: ratio of the rotating scalar energy density to
    the inertial thermal-bath reference at T_rot (both the zero-point and
    thermal parts scale with this same factor); the thermal part is measured
    by scalar_thermal_density_quadrature."""
    g2 = params.gamma**2
    return (4.0 * g2 - 1.0) / 3.0


def _ladder_cubic_sum(n_max: int) -> float:
    # sum_{n<=N} n^3 = N^2 (N+1)^2 / 4
    return n_max * n_max * (n_max + 1.0) * (n_max + 1.0) / 4.0


def _bose_integrand(u: float) -> float:
    # u^3 / (e^u - 1), overflow-safe at the large arguments quadrature probes
    return u**3 * math.exp(-u) / (1.0 - math.exp(-u)) if u > 0.0 else 0.0


def _mixed_moment_residual(spec: QuadratureSpec) -> float:
    """Angular integral behind <E1 H3> - <E3 H1> at one point; identically
    zero (odd integrand), evaluated by quadrature as a cross-check."""
    def integrand(theta, phi):
        ky = np.sin(theta) * np.sin(phi)
        return -2.0 * ky  # eps_{3 a 1} khat_a summed over both orderings
    val, _ = integrate_sphere(integrand, spec)
    return val


def em_energy_density(params: RotationParams, cutoff_n_max: int,
                      spec: QuadratureSpec = DEFAULT_SPEC) -> ThermoReport:
    """Electromagnetic energy density seen on the rotating worldline.

    w_thermal is the exact closed form anisotropy * (4 sigma / c) T_rot^4.
    w_zp_cutoff is the zero-point ladder truncated at n_max with the same
    prefactor bookkeeping, anisotropy * (hbar omega^4 / (2 pi^2 c^3))
    * sum n^3; it grows without bound as the cutoff is raised and is always
    reported together with the cutoff.
    """
    if cutoff_n_max < 1:
        raise ValueError("cutoff_n_max must be >= 1")
    const = params.constants
    T = rotation_temperature(params)
    aniso = em_anisotropy_factor(params)
    w_t = aniso * 4.0 * const.sigma / const.c * T**4
    w_zp = aniso * const.hbar * params.omega**4 / (2.0 * math.pi**2 * const.c**3) \
        * _ladder_cubic_sum(cutoff_n_max)
    resid = _mixed_moment_residual(spec)
    return ThermoReport(
        field_kind="em", T_rot=T, w_zp_cutoff=w_zp, w_thermal=w_t,
        w_total_cutoff=w_zp + w_t, anisotropy_factor=aniso,
        cutoff_n_max=cutoff_n_max, mixed_moment_residual=resid,
    )


def em_thermal_density_quadrature(params: RotationParams,
                                  spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """w_thermal evaluated by integrating the Planck spectrum numerically;
    oracle for the sigma T^4 closed form."""
    const = params.constants
    T = rotation_temperature(params)
    if T == 0.0:
        return 0.0
    scale = const.k_B * T / const.hbar
    val, _ = integrate_1d(_bose_integrand, 0.0, math.inf, spec)
    bose = scale**4 * val
    return em_anisotropy_factor(params) * const.hbar / (const.c**3 * math.pi**2) * bose


def scalar_bath_thermal_density(temperature: float, const: Constants = SI,
                                spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Thermal part of the inertial scalar-bath energy density at T.

    Computed from the thermal spectral function: (2 hbar / pi c^3) times the
    Planck-weighted cubic frequency integral.
    """
    if temperature == 0.0:
        return 0.0
    scale = const.k_B * temperature / const.hbar
    val, _ = integrate_1d(_bose_integrand, 0.0, math.inf, spec)
    return 2.0 * const.hbar / (math.pi * const.c**3) * scale**4 * val


def scalar_thermal_density_quadrature(params: RotationParams,
                                      spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Thermal part of the rotating scalar energy density, measured from the
    periodic scalar correlation function; oracle for scalar_bath_factor.

    The thermal part of the linear ladder, differentiated twice in the lag at
    coincidence, is thermal_ladder_integral(0, p=3) in every direction; the
    lag enters through the ladder phase, whose rate per unit c tau there is
    k0 gamma (1 - beta k_y).  The comoving Doppler weight
    gamma^2 (1 - beta k_y)^2 is integrated over the sphere and scaled by the
    scalar CF prefactor hbar c k0^2 / (4 pi^2) and by k0^2.
    """
    const = params.constants
    k0 = params.omega / const.c
    pref = const.hbar * const.c * k0**2 / (4.0 * math.pi**2)
    g2 = params.gamma**2
    beta = params.beta

    def doppler_weight(theta, phi):
        ky = np.sin(theta) * np.sin(phi)
        return g2 * (1.0 - beta * ky) ** 2

    weight, _ = integrate_sphere(doppler_weight, spec)
    return pref * k0**2 * thermal_ladder_integral(0.0, p=3) * weight


def scalar_energy_density(params: RotationParams, cutoff_n_max: int,
                          spec: QuadratureSpec = DEFAULT_SPEC) -> ThermoReport:
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
    w_t = factor * scalar_bath_thermal_density(T, const, spec)
    w_zp = factor * const.hbar * params.omega**4 / (math.pi * const.c**3) \
        * _ladder_cubic_sum(cutoff_n_max)
    return ThermoReport(
        field_kind="scalar", T_rot=T, w_zp_cutoff=w_zp, w_thermal=w_t,
        w_total_cutoff=w_zp + w_t, anisotropy_factor=factor,
        cutoff_n_max=cutoff_n_max,
    )


def em_thermal_density_at(omega: float, r: float, const: Constants = SI) -> float:
    """w_thermal as a function of orbit radius at fixed angular velocity."""
    params = RotationParams(omega=omega, radius=r, constants=const)
    T = rotation_temperature(params)
    return em_anisotropy_factor(params) * 4.0 * const.sigma / const.c * T**4


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
    r0 = const.c / omega
    if r < 0:
        raise ValueError("radius must be non-negative")
    if r >= r0:
        raise LuminalOrbitError(
            f"no orbit at r = {r!r} >= c/omega = {r0!r}"
        )
    T = rotation_temperature(params)
    x = r / r0
    f = -(8.0 / 3.0) * (omega / const.c) ** 2 * 2.0 * r / (1.0 - x * x) ** 2 \
        * 4.0 * const.sigma / const.c * T**4
    F = f * (4.0 / 3.0) * math.pi * sphere_radius**3 if sphere_radius is not None else None
    return ForcePoint(r=r, x=x, f_vac=f, F_sphere=F)


def casimir_force(a_shell: float, C: float = CASIMIR_MODEL_C,
                  const: Constants = SI) -> CasimirResult:
    """Charged-particle Casimir-model energy -C hbar c / 2a and its force.

    With the literature C < 0 the energy is positive and the force repulsive,
    opposite in direction to the vacuum force.
    """
    if a_shell <= 0:
        raise ValueError("shell radius must be positive")
    energy = -C * const.hbar * const.c / (2.0 * a_shell)
    force = -C * const.hbar * const.c / (2.0 * a_shell**2)
    return CasimirResult(energy=energy, force=force)


def hadron_estimates(a_sphere: float, r0: float, x: float,
                     const: Constants = SI) -> HadronEstimate:
    """Order-of-magnitude force and temperature at hadronic scales.

    Evaluates F = -(x / (1 - x^2)^2) (4 c hbar / 135 pi) a^3 / r0^5 for a
    sphere of radius a_sphere on an orbit at x = r / r0 with omega = c / r0,
    plus T_rot = hbar c / (2 pi k_B r0).  a_sphere is the particle size and
    is distinct from the orbit radius x * r0.  Every constant, the elementary
    charge of the GeV/fermi conversion included, comes from const.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must be in (0, 1)")
    if a_sphere <= 0 or r0 <= 0:
        raise ValueError("radii must be positive")
    omega = const.c / r0
    params = RotationParams(omega=omega, radius=x * r0, constants=const)
    point = vacuum_force_density(params, x * r0, sphere_radius=a_sphere)
    prefactor = 4.0 * const.c * const.hbar / (135.0 * math.pi) * a_sphere**3 / r0**5
    T = const.hbar * const.c / (2.0 * math.pi * const.k_B * r0)
    return HadronEstimate(
        force_newton=point.F_sphere,
        force_gev_per_fermi=point.F_sphere / const.gev_per_fermi,
        T_rot=T,
        f_vac=point.f_vac,
        prefactor_j_per_m=prefactor,
        x=x,
    )
