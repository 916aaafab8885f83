"""Independent reference implementations, and helpers that only the tests
use.

Each one reaches a number that the package computes by another route: the
field-tensor contraction checks the projection matrix, the polarization sum
checks the basis, the partial-fraction series checks the closed ladder sum,
the QUADPACK Planck-weighted integrals check the polygamma form of the
thermal ladder integral and the pi^4 / 15 closed form of the scalar bath,
the quadrature stress moments check the scalar
isotropy, the kernel record checks the ladder phase bookkeeping, the
mode-by-mode field sum checks eval_lab_fields and the ModeSet arrays, the
per-seed field evaluation checks the seed-block Monte Carlo CF engine, the
six-column lab-field design checks the engine's folded design, the per-term
Abel weights check numerics.abel_sum, and the lab-frame tensor integrand
written term by term checks the one-product integrand of the tensor
quadrature.  The worldline 4-velocity and acceleration, the
projection of one field triplet, the
single-direction polarization basis and angular kernel (with the Direction
and FrameError types) and the manifest writer have no caller outside the
tests.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from rotvac.cf_discrete import ladder_phase
from rotvac.constants import SI, Constants
from rotvac.fields import (FieldTriplet, angular_weight_kernel_grid, polarization_grid,
                           projection_matrix)
from rotvac.kinematics import (METRIC, FourVector, RotationParams, fermi_walker_tetrad,
                               frenet_serret_tetrad, lab_position)
from rotvac.montecarlo import ModeSet, draw_phases, eval_lab_fields
from rotvac.numerics import ABEL_ETA_GRID, integrate_1d, integrate_sphere


class FrameError(ValueError):
    """Field triplet is in the wrong frame for the requested operation."""


@dataclass(frozen=True)
class Direction:
    """Propagation direction in spherical angles, theta in [0, pi], phi in [0, 2 pi)."""

    theta: float
    phi: float

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)])


def four_velocity(params: RotationParams, tau: float) -> FourVector:
    """4-velocity c (-beta gamma sin a, beta gamma cos a, 0, gamma), a = omega gamma tau."""
    b, g, c = params.beta, params.gamma, params.constants.c
    a = params.alpha(tau)
    return FourVector(-c * b * g * math.sin(a), c * b * g * math.cos(a), 0.0, c * g)


def coordinate_acceleration(params: RotationParams, tau: float) -> FourVector:
    """dU/dtau along the worldline."""
    g = params.gamma
    a = params.alpha(tau)
    mag = params.radius * params.omega**2 * g**2
    return FourVector(-mag * math.cos(a), -mag * math.sin(a), 0.0, 0.0)


def tetrad_acceleration(params: RotationParams, tau: float, kind: str = "frenet-serret") -> np.ndarray:
    """Acceleration components mu_(a) . dU/dtau in the chosen comoving frame."""
    if kind == "frenet-serret":
        frame = frenet_serret_tetrad(params, tau)
    elif kind == "fermi-walker":
        frame = fermi_walker_tetrad(params, tau)
    else:
        raise ValueError(f"unknown tetrad kind {kind!r}")
    acc = coordinate_acceleration(params, tau).as_array()
    return frame.matrix() @ METRIC @ acc


def angular_weight_kernel(direction: Direction, delta: float, params: RotationParams) -> float:
    """angular_weight_kernel_grid for a single direction."""
    kx, ky, _ = direction.unit_vector
    return float(angular_weight_kernel_grid(kx, ky, delta, params))


def write_manifest(path, manifest: dict) -> None:
    """A Monte Carlo run manifest as sorted, indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def project_fields_to_tetrad(lab: FieldTriplet, params: RotationParams, tau: float) -> FieldTriplet:
    """Project lab-frame (E, H) into the Frenet-Serret frame at proper time tau."""
    if lab.frame != "lab":
        raise FrameError("project_fields_to_tetrad expects a lab-frame triplet")
    m = projection_matrix(params.alpha(tau), params.beta)
    out = m @ np.concatenate([lab.E, lab.H])
    return FieldTriplet(E=out[:3], H=out[3:], frame="tetrad", tau=tau)


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


def polarization_basis(direction: Direction):
    """polarization_grid for a single direction."""
    e1, e2 = polarization_grid(direction.unit_vector[None, :])
    return e1[0], e2[0]


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
    val, _ = quad(lambda u: _stable_thermal_term(u, phase, p), 0.0, math.inf,
                  epsabs=1e-15, epsrel=1e-10, limit=200)
    return val


def _bose_integrand(u: float) -> float:
    # u^3 / (e^u - 1), overflow-safe at the large arguments quadrature probes
    return u**3 * math.exp(-u) / (1.0 - math.exp(-u)) if u > 0.0 else 0.0


def scalar_bath_quadpack(temperature: float, const: Constants = SI) -> float:
    """(2 hbar / pi c^3) (k_B T / hbar)^4 int_0^inf u^3 / (e^u - 1) du by
    QUADPACK.

    Independent route to the closed scalar_bath_thermal_density.
    """
    if temperature == 0.0:
        return 0.0
    scale = const.k_B * temperature / const.hbar
    val, _ = integrate_1d(_bose_integrand, 0.0, math.inf)
    return 2.0 * const.hbar / (math.pi * const.c**3) * scale**4 * val


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
        def integrand(k, i=i):
            return k[..., i] ** 2
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


def lab_fields_mode_sum(mode_set: ModeSet, phases: np.ndarray, params: RotationParams,
                        tau: float):
    """Lab (E, H) at the detector as a plain sum over modes of
    sqrt(amp2) cos(k . r - c k t - phi) [eps, khat x eps].

    Reference for montecarlo.eval_lab_fields; reads neither it nor the
    ModeSet's precomputed amplitudes and polarization columns.
    """
    t, x, y, z = lab_position(params, tau)
    c = params.constants.c
    E, H = np.zeros(3), np.zeros(3)
    for m, khat in enumerate(mode_set.khat):
        kr = khat[0] * x + khat[1] * y + khat[2] * z
        for lam, eps in enumerate((mode_set.eps1[m], mode_set.eps2[m])):
            heps = np.cross(khat, eps)
            for q, k in enumerate(mode_set.wavenumbers):
                a = math.sqrt(mode_set.amp2[m, q]) * math.cos(k * kr - c * k * t
                                                              - phases[m, q, lam])
                E += a * eps
                H += a * heps
    return E, H


def empirical_cf_per_seed(pair, kind, tau1, tau2, params: RotationParams,
                          mode_set: ModeSet, n_seeds: int, seed: int) -> np.ndarray:
    """Per-seed products c1(tau1) c2(tau2) of the tetrad components, one seed
    at a time: draw the phases, evaluate the lab fields mode by mode at each
    time, project them into the tetrad.

    Reference for montecarlo.empirical_cf, whose mean and standard error
    are those of these values.
    """
    a, b = pair
    vals = np.empty(n_seeds)
    for i in range(n_seeds):
        ph = draw_phases(mode_set, seed, i)
        f1, f2 = (project_fields_to_tetrad(eval_lab_fields(mode_set, ph, params, tau),
                                           params, tau) for tau in (tau1, tau2))
        vals[i] = getattr(f1, kind[0])[a - 1] * getattr(f2, kind[1])[b - 1]
    return vals


def lab_field_design(mode_set: ModeSet, params: RotationParams, taus) -> np.ndarray:
    """Stacked (2N x 6T) design of the lab (E, H) at the T proper times taus.

    With b = k . r - c k t the base phase of a mode at a time, cos(b - phi) =
    cos b cos phi + sin b sin phi, so the interleaved (cos phi_0, sin phi_0,
    cos phi_1, ...) @ design is the (E, H) of eval_lab_fields at every time.
    Rows 2n and 2n + 1 hold amp cos b [eps, khat x eps] and amp sin b [eps,
    khat x eps] of mode n for each time; modes run in the (node, radial,
    polarization) order of draw_phases.

    Reference for montecarlo._lab_field_design, whose column of a tetrad
    row at time j is this design's six columns of time j times the row.
    """
    const = params.constants
    k = mode_set.wavenumbers
    base = np.empty(mode_set.amp2.shape + (len(taus),))
    for j, tau in enumerate(taus):
        t, x, y, z = lab_position(params, tau)
        base[:, :, j] = np.outer(mode_set.khat @ np.array([x, y, z]), k) - const.c * t * k
    # (M, 1, lam, 1, field, 3) against the (M, Q, 1, T, 1, 1) amplitudes
    pol = np.moveaxis(mode_set.pol, 2, 0)[:, None, :, None]
    amp = mode_set.amp[:, :, None]
    design = np.empty(mode_set.amp2.shape + (2, 2, len(taus), 2, 3))
    for half, trig in enumerate((np.cos, np.sin)):
        np.multiply((amp * trig(base))[:, :, None, :, None, None], pol,
                    out=design[:, :, :, half])
    return design.reshape(2 * mode_set.mode_count, 6 * len(taus))


def lab_tensor_integrand(row1, row2, chord):
    """khat -> 6 row1^T M(khat) row2 / (khat . chord - 1)^4 for khat of shape
    (..., 3), from five separate products with khat, np.cross and one float
    power; M is the lab-frame polarization-summed kernel of
    cf_continuous._lab_kernel.

    Reference for the integrand of cf_continuous.em_cf_tensor_quadrature,
    which takes all six projections of khat from one matrix product.
    """
    e1, h1, e2, h2 = row1[:3], row1[3:], row2[:3], row2[3:]
    const = e1 @ e2 + h1 @ h2
    eh = np.cross([e1, -h1], [h2, e2]).sum(axis=0)   # e1 x h2 - h1 x e2

    def integrand(khat):
        kernel = (const - (khat @ e1) * (khat @ e2) - (khat @ h1) * (khat @ h2)
                  + khat @ eh)
        return kernel * 6.0 / (khat @ chord - 1.0) ** 4
    return integrand


def abel_stops(etas=ABEL_ETA_GRID):
    """Prefix length of each eta for the reference sums: up to eta n = 3 ln(3 /
    eta) + 80, longer than numerics.abel_sum's prefix (+ 50), so that the
    reference also checks that the terms abel_sum leaves out are negligible."""
    return [int((3.0 * math.log(max(4.0, 3.0 / eta)) + 80.0) / eta) + 10 for eta in etas]


def abel_sums_per_eta(terms):
    """sum_{n <= stop} a_n e^(-eta n) for each eta of ABEL_ETA_GRID, with one
    80-bit exp per term and eta over its whole prefix.

    Reference for numerics.abel_sum, which builds the same weights from two
    short exponential ladders per eta; extrapolate with neville_to_zero.
    """
    stops = abel_stops()
    n = np.arange(1, max(stops) + 1, dtype=np.longdouble)
    a = np.asarray(terms(n), dtype=np.longdouble)
    return [(a[:stop] * np.exp(-np.longdouble(eta) * n[:stop])).sum(dtype=np.longdouble)
            for eta, stop in zip(ABEL_ETA_GRID, stops)]


def abel_weights_compensated(eta: float, stop: int) -> np.ndarray:
    """e^(-eta n), n = 1..stop, by one 80-bit exp per term of the argument
    eta n carried as an unevaluated sum hi + lo of two long doubles.

    A plain 80-bit exp(-eta n) rounds eta n to 64 bits once n exceeds 2^12,
    which moves it up to 65 ulp off e^(-eta n) at eta n near 100; here that
    residual lo enters as the factor 1 - lo, so the weight is within about
    one ulp of e^(-eta n) for the float64 eta.
    """
    c = 134217729.0 * eta               # Dekker split: 26-bit head, exact tail
    head = c - (c - eta)
    tail = eta - head
    n = np.arange(1, stop + 1, dtype=np.longdouble)
    x, y = np.longdouble(head) * n, np.longdouble(tail) * n    # both exact
    hi = x + y
    lo = (x - hi) + y                   # Fast2Sum, |x| >= |y|
    return np.exp(-hi) * (1 - lo)
