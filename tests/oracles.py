"""Independent reference implementations that only the tests use.

Each one reaches a number that the package computes by another route: the
field-tensor contraction checks the projection matrix, the polarization sum
checks the basis, the partial-fraction series checks the closed ladder sum,
the QUADPACK Planck-weighted integral checks the polygamma form of the
thermal ladder integral, the quadrature stress moments check the scalar
isotropy, and the kernel record checks the ladder phase bookkeeping.
"""

import math
from dataclasses import dataclass

import numpy as np

from rotvac.cf_discrete import ladder_phase
from rotvac.fields import Direction, FieldTriplet, FrameError, polarization_basis
from rotvac.kinematics import RotationParams, frenet_serret_tetrad
from rotvac.numerics import QuadratureSpec, integrate_1d, integrate_sphere


def field_tensor(E, H) -> np.ndarray:
    """Antisymmetric field tensor F_ik on (x, y, z, ct) slots.

    Convention fixed by the identity-frame reduction: F_4k = E_k and
    (F_23, F_31, F_12) = (H_1, H_2, H_3).
    """
    E = np.asarray(E, dtype=float)
    H = np.asarray(H, dtype=float)
    F = np.zeros((4, 4))
    F[3, 0], F[3, 1], F[3, 2] = E
    F[0, 3], F[1, 3], F[2, 3] = -E
    F[1, 2], F[2, 1] = H[0], -H[0]
    F[2, 0], F[0, 2] = H[1], -H[1]
    F[0, 1], F[1, 0] = H[2], -H[2]
    return F


def project_fields_via_tensor(lab: FieldTriplet, params: RotationParams, tau: float) -> FieldTriplet:
    """Contract mu_(a) mu_(b) with the field tensor; oracle for
    project_fields_to_tetrad, which must agree to roundoff for every input."""
    if lab.frame != "lab":
        raise FrameError("project_fields_via_tensor expects a lab-frame triplet")
    mu = frenet_serret_tetrad(params, tau).matrix()
    Fab = mu @ field_tensor(lab.E, lab.H) @ mu.T
    E = np.array([Fab[3, 0], Fab[3, 1], Fab[3, 2]])
    H = np.array([Fab[1, 2], Fab[2, 0], Fab[0, 1]])
    return FieldTriplet(E=E, H=H, frame="tetrad", tau=tau)


def polarization_sum_matrix(direction: Direction) -> np.ndarray:
    """Sum over polarizations of eps_i eps_j; equals delta_ij - khat_i khat_j."""
    e1, e2 = polarization_basis(direction)
    return np.outer(e1, e1) + np.outer(e2, e2)


def cubic_ladder_partial_fraction(phase: float, n_terms: int = 10000) -> float:
    """Partial-fraction series 6 sum_{m in Z} (phase + 2 pi m)^-4, truncated.

    Independent route to cubic_ladder_sum_closed; converges like n_terms^-3.
    """
    m = np.arange(1, n_terms + 1, dtype=float)
    tail = np.sum((2.0 * math.pi * m + phase) ** -4 + (2.0 * math.pi * m - phase) ** -4)
    return 6.0 * (phase**-4 + float(tail))


def _stable_thermal_term(u, phase, p):
    # 2 u^p cosh(u phase) / (e^{2 pi u} - 1) without overflow, |phase| < 2 pi
    decay = -np.expm1(-2.0 * math.pi * u)
    return u**p * (np.exp(-(2.0 * math.pi - phase) * u) + np.exp(-(2.0 * math.pi + phase) * u)) / decay


def thermal_ladder_quadpack(phase: float, p: int) -> float:
    """int_0^inf 2 u^p cosh(u phase) / (e^(2 pi u) - 1) du by QUADPACK.

    Independent route to thermal_ladder_integral; |phase| < 2 pi.
    """
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-15, max_subdivisions=200)
    val, _ = integrate_1d(lambda u: _stable_thermal_term(u, phase, p), 0.0, math.inf, spec)
    return val


def scalar_lab_stress_diagonal(params: RotationParams, cutoff_n_max: int):
    """Lab-frame diagonal stress expectations (T11, T22, T33, T44) for the
    truncated scalar ladder, with the angular moments done by quadrature.

    Isotropy makes each spatial entry one third of the energy entry.
    """
    const = params.constants
    ladder = sum(n**3 for n in range(1, cutoff_n_max + 1))
    base = const.hbar * params.omega**4 / (math.pi * const.c**3) * ladder
    out = []
    for i in range(3):
        def integrand(theta, phi, i=i):
            st = np.sin(theta)
            k = [st * np.cos(phi), st * np.sin(phi), np.cos(theta)][i]
            return k * k
        moment, _ = integrate_sphere(integrand)
        out.append(base * moment / (4.0 * math.pi))
    out.append(base)
    return tuple(out)


@dataclass(frozen=True)
class DiscreteKernel:
    """Direction-resolved phase bookkeeping for the harmonic ladder."""

    phase: float      # dimensionless; omega * time_lag
    time_lag: float   # s
    omega0: float     # rad/s
    k0: float         # 1/m, omega0 / c


def make_kernel(delta: float, ky: float, params: RotationParams) -> DiscreteKernel:
    ph = float(ladder_phase(delta, ky, params))
    return DiscreteKernel(phase=ph, time_lag=ph / params.omega, omega0=params.omega,
                          k0=params.omega / params.constants.c)
