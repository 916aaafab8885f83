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
six-column lab-field design checks the engine's folded design, the exact
phase-ensemble mean checks the Monte Carlo CFs, their design and the
angular resolution of the mode grid, the per-term
Abel weights check numerics.abel_sum, the lab-frame tensor integrand
written term by term checks the one-product integrand of the tensor
quadrature, and the printed rotated-frame brackets, their angular weight,
ladder phase and stationary quadrature check the lab kernel that both
spectra integrate, and 40-digit mpmath values of the continuous scalar and
EE CFs and of the periodic scalar CF, from the lab positions at the
caller's orbit phases, check the digits of the lag-frame routes near the
light cylinder.  The worldline 4-velocity and acceleration, the proper time
of an angular lag, the finite-difference step, the projection of one field
6-vector, the
single-direction polarization basis and angular kernel (with the Direction
type) and the manifest writer have no caller outside the tests.  Like the
package, they take and return plain arrays: 4-vectors on (x, y, z, ct)
slots and fields as 6-vectors (E1, E2, E3, H1, H2, H3).
"""

import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad

from rotvac.constants import SI, Constants
from rotvac.fields import polarization_grid, projection_matrix, projection_rows
from rotvac.kinematics import (METRIC, RotationParams, fermi_walker_tetrad,
                               frenet_serret_tetrad, lab_position)
from rotvac.montecarlo import ModeSet, draw_phases, eval_lab_fields
from rotvac.numerics import ABEL_ETA_GRID, DEFAULT_TOL, integrate_1d, integrate_sphere


@dataclass(frozen=True)
class Direction:
    """Propagation direction in spherical angles, theta in [0, pi], phi in [0, 2 pi)."""

    theta: float
    phi: float

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)])


def four_velocity(params: RotationParams, tau: float) -> np.ndarray:
    """4-velocity c (-beta gamma sin a, beta gamma cos a, 0, gamma), a = omega gamma tau."""
    b, g, c = params.beta, params.gamma, params.constants.c
    a = params.alpha(tau)
    return np.array([-c * b * g * math.sin(a), c * b * g * math.cos(a), 0.0, c * g])


def delta_to_tau(params: RotationParams, delta: float) -> float:
    """Proper-time separation giving angular lag delta."""
    return delta / (params.omega * params.gamma)


def fd_step(params: RotationParams) -> float:
    """Central-difference step: 1e-7 of the proper rotation period."""
    return 1e-7 * (2.0 * math.pi / (params.omega * params.gamma))


def coordinate_acceleration(params: RotationParams, tau: float) -> np.ndarray:
    """dU/dtau along the worldline."""
    g = params.gamma
    a = params.alpha(tau)
    mag = params.radius * params.omega**2 * g**2
    return np.array([-mag * math.cos(a), -mag * math.sin(a), 0.0, 0.0])


def tetrad_acceleration(params: RotationParams, tau: float, kind: str = "frenet-serret") -> np.ndarray:
    """Acceleration components mu_(a) . dU/dtau in the chosen comoving frame."""
    if kind == "frenet-serret":
        legs = frenet_serret_tetrad(params, tau)
    elif kind == "fermi-walker":
        legs = fermi_walker_tetrad(params, tau)
    else:
        raise ValueError(f"unknown tetrad kind {kind!r}")
    return legs @ METRIC @ coordinate_acceleration(params, tau)


def diag_bracket(pair, params: RotationParams, delta: float, kx, ky):
    """Printed angular bracket c0 + cy ky + cxx kx^2 + cyy ky^2 of the
    diagonal pair (a, a) at the unit-vector components (kx, ky); vectorized
    in them.

    It is the polarization-summed kernel of the tetrad components a at lags
    0 and delta, seen in the frame rotated by delta/2 about z: the lab
    kernel fields._lab_kernel at k = R_z(delta/2) k'.  delta is the angular
    lag omega gamma (tau2 - tau1); ValueError unless it is finite.
    """
    if not math.isfinite(delta):
        raise ValueError(f"lag delta must be finite, got {delta!r}")
    b, g = params.beta, params.gamma
    ch, sh = math.cos(delta / 2.0), math.sin(delta / 2.0)
    cd = math.cos(delta)
    if pair == (1, 1):
        c0, cy, cxx, cyy = (g * g * cd, 2.0 * b * g * g * ch,
                            g * g * (b * b - ch * ch), g * g * (b * b + sh * sh))
    elif pair == (2, 2):
        c0, cy, cxx, cyy = (cd, 0.0, sh * sh, -ch * ch)
    elif pair == (3, 3):
        c0, cy, cxx, cyy = (g * g * b * b * cd, 2.0 * b * g * g * ch,
                            g * g * (1.0 - b * b * ch * ch), g * g * (1.0 + b * b * sh * sh))
    else:
        raise ValueError(f"no angular bracket for pair {pair!r}")
    return c0 + cy * ky + cxx * kx * kx + cyy * ky * ky


def angular_weight_kernel_grid(kx, ky, delta: float, params: RotationParams):
    """Angular weight of the printed periodic CF at the unit-vector
    components (kx, ky), vectorized in them: 3 / (8 pi) times the (1, 1)
    bracket, so that the beta = 0, delta = 0 kernel integrates to 1 over the
    sphere.  It multiplies the cubic ladder at ladder_phase under the
    prefactor 2 hbar omega^4 / (3 pi c^3).
    """
    return (3.0 / (8.0 * math.pi)) * diag_bracket((1, 1), params, delta, kx, ky)


def ladder_phase(delta, ky, params: RotationParams):
    """Printed ladder phase delta - 2 beta ky sin(delta/2) in the frame of
    diag_bracket; vectorized in ky.  ValueError unless delta is finite."""
    if not math.isfinite(delta):
        raise ValueError(f"lag delta must be finite, got {delta!r}")
    return delta - 2.0 * params.beta * np.asarray(ky) * math.sin(delta / 2.0)


def bracket_quadrature(pair, params: RotationParams, tau1: float, tau2: float,
                       tol: float = DEFAULT_TOL) -> float:
    """Diagonal continuous EE (or HH) CF by the stationary route: the sphere
    integral of the printed bracket against the regularized radial factor
    (1 + k ky)^-4, k = -beta sin(delta/2) / (delta/2), times
    3 hbar c / (2 pi^2 (c dt)^4), with delta = omega gamma s and
    c dt = c gamma s at the lag s = tau2 - tau1.

    Independent route to the lab-kernel quadrature of em_cf_continuous: it
    forms its lag, chord and scale from params alone.
    """
    const = params.constants
    s = tau2 - tau1
    delta = params.omega * params.gamma * s
    k = -params.beta * math.sin(delta / 2.0) / (delta / 2.0)

    def integrand(khat):
        ky = khat[..., 1]
        return diag_bracket(pair, params, delta, khat[..., 0], ky) / (1.0 + k * ky) ** 4

    val, _ = integrate_sphere(integrand, tol)
    cdt = const.c * params.gamma * s
    return 3.0 * const.hbar * const.c / (2.0 * math.pi**2 * cdt**4) * val


def angular_weight_kernel(direction: Direction, delta: float, params: RotationParams) -> float:
    """angular_weight_kernel_grid for a single direction."""
    kx, ky, _ = direction.unit_vector
    return float(angular_weight_kernel_grid(kx, ky, delta, params))


def write_manifest(path, manifest: dict) -> None:
    """A Monte Carlo run manifest as sorted, indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def field_tensor(f) -> np.ndarray:
    """Antisymmetric field tensor F_ik on (x, y, z, ct) slots of the field
    6-vector f = (E, H).

    Convention fixed by the identity-frame reduction: F_4k = E_k and
    (F_23, F_31, F_12) = (H_1, H_2, H_3).
    """
    f = np.asarray(f, dtype=float)
    E, H = f[:3], f[3:]
    F = np.zeros((4, 4))
    F[3, 0], F[3, 1], F[3, 2] = E
    F[0, 3], F[1, 3], F[2, 3] = -E
    F[1, 2], F[2, 1] = H[0], -H[0]
    F[2, 0], F[0, 2] = H[1], -H[1]
    F[0, 1], F[1, 0] = H[2], -H[2]
    return F


def project_fields_to_tetrad(lab, params: RotationParams, tau: float) -> np.ndarray:
    """Project the lab-frame 6-vector (E, H) into the Frenet-Serret frame at
    proper time tau."""
    return projection_matrix(params, tau) @ np.asarray(lab, dtype=float)


def project_fields_via_tensor(lab, params: RotationParams, tau: float) -> np.ndarray:
    """Contract mu_(a) mu_(b) with the field tensor; oracle for
    project_fields_to_tetrad, which must agree to roundoff for every input."""
    mu = frenet_serret_tetrad(params, tau)
    Fab = mu @ field_tensor(lab) @ mu.T
    return np.array([Fab[3, 0], Fab[3, 1], Fab[3, 2], Fab[1, 2], Fab[2, 0], Fab[0, 1]])


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
                        tau: float) -> np.ndarray:
    """Lab 6-vector (E, H) at the detector as a plain sum over modes of
    amp cos(k . r - c k t - phi) [eps, khat x eps].

    Reference for montecarlo.eval_lab_fields; reads the ModeSet's amp and
    eps columns, mode by mode, and takes khat x eps afresh.
    """
    t, x, y, z = lab_position(params, tau)
    c = params.constants.c
    E, H = np.zeros(3), np.zeros(3)
    for m, khat in enumerate(mode_set.khat):
        kr = khat[0] * x + khat[1] * y + khat[2] * z
        for lam, eps in enumerate(mode_set.pol[:, 0, m]):
            heps = np.cross(khat, eps)
            for q, k in enumerate(mode_set.wavenumbers):
                a = mode_set.amp[m, q] * math.cos(k * kr - c * k * t - phases[m, q, lam])
                E += a * eps
                H += a * heps
    return np.concatenate([E, H])


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
        vals[i] = f1[a - 1 + 3 * (kind[0] == "H")] * f2[b - 1 + 3 * (kind[1] == "H")]
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
    base = np.empty(mode_set.amp.shape + (len(taus),))
    for j, tau in enumerate(taus):
        t, x, y, z = lab_position(params, tau)
        base[:, :, j] = np.outer(mode_set.khat @ np.array([x, y, z]), k) - const.c * t * k
    # (M, 1, lam, 1, field, 3) against the (M, Q, 1, T, 1, 1) amplitudes
    pol = np.moveaxis(mode_set.pol, 2, 0)[:, None, :, None]
    amp = mode_set.amp[:, :, None]
    design = np.empty(mode_set.amp.shape + (2, 2, len(taus), 2, 3))
    for half, trig in enumerate((np.cos, np.sin)):
        np.multiply((amp * trig(base))[:, :, None, :, None, None], pol,
                    out=design[:, :, :, half])
    return design.reshape(2 * mode_set.mode_count, 6 * len(taus))


def mc_exact_cf_mean(mode_set: ModeSet, params: RotationParams, pair, kind: str,
                     tau1: float, tau2: float):
    """Phase-ensemble mean of one seed's Monte Carlo CF value, with no draws,
    and its Cauchy-Schwarz scale: (mean, scale), |mean| <= scale.

    A seed's components are c_j = sum_n amp_n (pol_n . row_j) cos(b_n(tau_j)
    - phi_n), with independent uniform phases phi_n, so E c_1 c_2 = 1/2
    sum_n amp_n^2 (pol_n . row_1)(pol_n . row_2) cos(b_n(tau1) - b_n(tau2)),
    and b_n(tau1) - b_n(tau2) = k (khat . (r1 - r2) - c (t1 - t2)).  The
    scale is 1/2 (sum amp^2 (pol . row_1)^2 sum amp^2 (pol . row_2)^2)^(1/2).

    Reference for the mean of montecarlo.empirical_cfs and the design of
    montecarlo._lab_field_design; reads the ModeSet arrays, projection_rows
    and lab_position only.
    """
    rows = projection_rows(pair, kind, params, tau1, tau2)
    # pol . row of each polarization and node: (2, M) per row
    proj = [np.einsum("lfmi,fi->lm", mode_set.pol, row.reshape(2, 3)) for row in rows]
    (t1, *r1), (t2, *r2) = (lab_position(params, tau) for tau in (tau1, tau2))
    k = mode_set.wavenumbers
    db = (np.outer(mode_set.khat @ (np.array(r1) - np.array(r2)), k)
          - params.constants.c * (t1 - t2) * k)
    amp2 = mode_set.amp**2
    mean = 0.5 * np.sum(amp2 * np.cos(db) * (proj[0] * proj[1]).sum(axis=0)[:, None])
    power = [np.sum(amp2 * (p**2).sum(axis=0)[:, None]) for p in proj]
    return float(mean), 0.5 * math.sqrt(power[0] * power[1])


def lab_tensor_integrand(row1, row2, chord):
    """khat -> 6 row1^T M(khat) row2 / (khat . chord - 1)^4 for khat of shape
    (..., 3), from five separate products with khat, np.cross and one float
    power; M is the lab-frame polarization-summed kernel of
    fields._lab_kernel.

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


def _mp_chord(params: RotationParams, tau1: float, tau2: float):
    """beta, gamma, the two orbit phases, the lab chord (r1 - r2) / c (t1 -
    t2) as (x, y) and c (t2 - t1) of the float inputs, from the lab positions
    at the caller's orbit phases, in mpmath at the working precision."""
    c, omega, r = (mpmath.mpf(v) for v in (params.constants.c, params.omega, params.radius))
    beta = omega * r / c
    gam = 1 / mpmath.sqrt(1 - beta**2)
    a1, a2 = omega * gam * mpmath.mpf(tau1), omega * gam * mpmath.mpf(tau2)
    cdt = c * gam * (mpmath.mpf(tau2) - mpmath.mpf(tau1))
    chord = (r * (mpmath.cos(a2) - mpmath.cos(a1)) / cdt,
             r * (mpmath.sin(a2) - mpmath.sin(a1)) / cdt)
    return beta, gam, (a1, a2), chord, cdt


def scalar_cf_mp(params: RotationParams, tau1: float, tau2: float) -> float:
    """The continuous scalar CF -(hbar c / pi) / ((c dt)^2 - |r1 - r2|^2) of
    the float inputs, to 40 digits (mpmath at 50).

    Reference for the digits of scalar_cf_continuous and scalar_cf_quadrature
    near the light cylinder, where 1 - |chord| is small."""
    with mpmath.workdps(50):
        _, _, _, (cx, cy), cdt = _mp_chord(params, tau1, tau2)
        hbar_c = mpmath.mpf(params.constants.hbar) * mpmath.mpf(params.constants.c)
        return float(-hbar_c / mpmath.pi / (cdt**2 * (1 - cx**2 - cy**2)))


def em_cf_ee_mp(pair, params: RotationParams, tau1: float, tau2: float) -> float:
    """The continuous EE CF of the tetrad components pair at the float inputs,
    to 40 digits (mpmath at 50): hbar c / (4 pi^2 (c dt)^4) times 2 pi int du
    (a0 + a1 u + a2 u^2) 6 / (1 - n u)^4 over [-1, 1], the sphere integral
    of the lab kernel reduced along the lab chord n chat by its circle
    averages <k> = u chat and <k_i k_j> = u^2 chat_i chat_j + (1 - u^2)/2
    (delta_ij - chat_i chat_j).  The electric rows are those of
    projection_matrix at the caller's orbit phases.

    Reference for the digits of the tensor route near the light cylinder."""
    with mpmath.workdps(50):
        beta, gam, phases, chord, cdt = _mp_chord(params, tau1, tau2)

        def e_row(a, alpha):     # (E, H) lab components of tetrad E_(a)
            ca, sa = mpmath.cos(alpha), mpmath.sin(alpha)
            return [[gam * ca, gam * sa, 0, 0, 0, -beta * gam], [-sa, ca, 0, 0, 0, 0],
                    [0, 0, gam, beta * gam * ca, beta * gam * sa, 0]][a - 1]
        r1, r2 = (e_row(a, alpha) for a, alpha in zip(pair, phases))
        n = mpmath.sqrt(chord[0] ** 2 + chord[1] ** 2)
        chat = [chord[0] / n, chord[1] / n, 0]

        def dot(a, b):
            return sum(x * y for x, y in zip(a, b))
        e1, h1, e2, h2 = r1[:3], r1[3:], r2[:3], r2[3:]
        eh = [e1[1] * h2[2] - e1[2] * h2[1] - h1[1] * e2[2] + h1[2] * e2[1],
              e1[2] * h2[0] - e1[0] * h2[2] - h1[2] * e2[0] + h1[0] * e2[2],
              e1[0] * h2[1] - e1[1] * h2[0] - h1[0] * e2[1] + h1[1] * e2[0]]
        along = dot(e1, chat) * dot(e2, chat) + dot(h1, chat) * dot(h2, chat)
        across = dot(e1, e2) + dot(h1, h2) - along
        a0 = dot(r1, r2) - across / 2
        a1 = dot(eh, chat)
        a2 = across / 2 - along
        val = mpmath.quad(lambda u: (a0 + a1 * u + a2 * u * u) * 6 / (1 - n * u) ** 4, [-1, 1])
        hbar_c = mpmath.mpf(params.constants.hbar) * mpmath.mpf(params.constants.c)
        return float(hbar_c / (4 * mpmath.pi**2 * cdt**4) * 2 * mpmath.pi * val)


def scalar_cf_discrete_mp(params: RotationParams, tau1: float, tau2: float) -> float:
    """The periodic scalar CF of the float inputs in closed form, to 40
    digits (mpmath at 50): hbar c k0^2 (-1 / 2 pi) [cot((delta - a)/2) -
    cot((delta + a)/2)] / (2 a), the sphere integral of the linear ladder at
    the phase delta - a u, u = khat . chat, a = delta |chord|.

    Reference for scalar_cf_discrete at every orbit phase."""
    with mpmath.workdps(50):
        _, _, (a1, a2), chord, _ = _mp_chord(params, tau1, tau2)
        delta = a2 - a1
        a = delta * mpmath.sqrt(chord[0] ** 2 + chord[1] ** 2)
        k0 = mpmath.mpf(params.omega) / mpmath.mpf(params.constants.c)
        hbar_c = mpmath.mpf(params.constants.hbar) * mpmath.mpf(params.constants.c)
        return float(-hbar_c * k0**2 / (2 * mpmath.pi)
                     * (mpmath.cot((delta - a) / 2) - mpmath.cot((delta + a) / 2)) / (2 * a))
