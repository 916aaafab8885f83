"""Continuous-spectrum two-point correlation functions along the rotating
worldline: printed closed forms, their angular-quadrature counterparts, and a
fully general tensor-contraction path usable for any component pair.

All two-time functions are stationary (depend on tau2 - tau1 only) and carry
the universal (lab time difference)^-4 scaling for the electromagnetic field,
(difference)^-2 for the massless scalar.  The coincidence limit is singular
and guarded; one-point quantities live in the thermo module.

The dimensionless shape parameters are

    delta = omega gamma (tau2 - tau1)          angular lag
    shape_k = -beta sin(delta/2) / (delta/2)   radial-integral constant

and the divergent radial integrals int_0^inf k^p cos(k G) dk enter through
their Abel-regularized values (6/G^4 for p = 3, -1/G^2 for p = 1), which the
series machinery in cf_discrete cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .fields import diag_bracket, projection_rows
from .kinematics import RotationParams, lab_position
from .numerics import DEFAULT_SPEC, QuadratureSpec, integrate_sphere

__all__ = [
    "CoincidenceError",
    "CFValue",
    "shape_constant",
    "sin_power_integral",
    "phi_kernel_integral",
    "em_cf_continuous",
    "em_cf_tensor_quadrature",
    "scalar_cf_continuous",
    "scalar_cf_quadrature",
]

COINCIDENCE_TOL = 1e-9  # |delta| below this raises (physical divergence)


class CoincidenceError(ValueError):
    """Two-point function requested at (numerically) coincident times."""


@dataclass(frozen=True)
class CFValue:
    kind: str                 # "EE" | "HH" | "EH" | "scalar"
    pair: Tuple[int, int]     # tetrad component indices, 1-based; (0, 0) for scalar
    tau1: float
    tau2: float
    spectrum: str             # "continuous" | "discrete"
    value: float
    method: str               # "closed-form" | "quadrature" | "monte-carlo"
    stat_error: Optional[float] = None


def shape_constant(params: RotationParams, delta: float) -> float:
    """The constant -beta sin(delta/2)/(delta/2) entering all radial integrals,
    with np.sinc stable near delta = 0."""
    return -params.beta * float(np.sinc(delta / (2.0 * math.pi)))


def sin_power_integral(p: int, k: float) -> float:
    """int_0^pi sin^p(theta) / (1 - k^2 sin^2 theta)^(7/2) dtheta for p = 1, 3, 5.

    Rational in 1/(1 - k^2); requires |k| < 1.
    """
    if not abs(k) < 1.0:     # NaN included
        raise ValueError(f"|k| must be < 1, got {k!r}")
    om = 1.0 / ((1.0 - k) * (1.0 + k))
    if p == 1:
        return 2.0 / 5.0 * om + 8.0 / 15.0 * om**2 + 16.0 / 15.0 * om**3
    if p == 3:
        return 4.0 / 15.0 * om**2 + 16.0 / 15.0 * om**3
    if p == 5:
        return 16.0 / 15.0 * om**3
    raise ValueError(f"p must be 1, 3 or 5, got {p!r}")


def phi_kernel_integral(m: int, b: float) -> float:
    """int_0^{2 pi} sin^m(phi) / (1 + b sin phi)^4 dphi for m = 0, 1, 2; |b| < 1."""
    if not abs(b) < 1.0:     # NaN included
        raise ValueError(f"|b| must be < 1, got {b!r}")
    w = ((1.0 - b) * (1.0 + b)) ** -3.5
    if m == 0:
        return math.pi * (2.0 + 3.0 * b * b) * w
    if m == 1:
        return -b * math.pi * (4.0 + b * b) * w
    if m == 2:
        return math.pi * (1.0 + 4.0 * b * b) * w
    raise ValueError(f"m must be 0, 1 or 2, got {m!r}")


def _lag(params: RotationParams, tau1: float, tau2: float):
    delta = params.alpha(tau2) - params.alpha(tau1)
    if abs(delta) < COINCIDENCE_TOL:
        raise CoincidenceError(
            f"|delta| = {abs(delta)!r} below the coincidence guard; "
            "two-point functions diverge there"
        )
    dt_lab = params.gamma * (tau2 - tau1)
    # every CF carries hbar c / (c dt)^p, p <= 4: keep (c dt)^4 and the EM scale in range
    hbar_c, cdt = params.constants.hbar * params.constants.c, params.constants.c * dt_lab
    log_cdt4 = 4.0 * math.log2(abs(cdt))
    if not (abs(log_cdt4) < 1000.0 and abs(math.log2(hbar_c) - log_cdt4) < 1000.0):
        raise ValueError(f"lag c dt = c delta / (omega gamma) = {cdt!r} puts the CF "
                         "scale hbar c / (c dt)^4 outside the float64 range")
    return delta, dt_lab


def _em_prefactor(params: RotationParams, dt_lab: float) -> float:
    const = params.constants
    return 3.0 * const.hbar * const.c / (2.0 * math.pi**2 * (const.c * dt_lab) ** 4)


def _closed_form_11(params: RotationParams, delta: float, dt_lab: float) -> float:
    b = params.beta
    k = shape_constant(params, delta)
    chalf = math.cos(delta / 2.0)
    c2 = chalf * chalf
    br1 = 2.0 * math.pi * math.cos(delta)
    br3 = math.pi * (3.0 * k * k * math.cos(delta) - 2.0 * c2 + 2.0 * b * b
                     - 8.0 * b * k * chalf + 1.0)
    br5 = math.pi * (-3.0 * k * k * c2 + 3.0 * b * b * k * k
                     - 2.0 * b * k**3 * chalf + 4.0 * k * k)
    return _em_prefactor(params, dt_lab) * params.gamma**2 * (
        br1 * sin_power_integral(1, k)
        + br3 * sin_power_integral(3, k)
        + br5 * sin_power_integral(5, k)
    )


def _bracket_quadrature(pair, params, delta, dt_lab, spec) -> float:
    """Stationary quadrature path: angular integral of the printed bracket
    against the regularized radial factor (1 + k ky)^-4."""
    k = shape_constant(params, delta)

    def integrand(khat):
        ky = khat[..., 1]
        return diag_bracket(pair, params, delta, khat[..., 0], ky) / (1.0 + k * ky) ** 4

    val, _ = integrate_sphere(integrand, spec)
    return _em_prefactor(params, dt_lab) * val


def _lab_kernel(row1, row2, chord):
    """The function khat -> (row1^T M(khat) row2, khat . chord) for khat of
    shape (..., 3), both of shape khat.shape[:-1]; rows are 6-vectors (E, H).

    M is the lab-frame polarization-summed kernel: 1 - khat khat^T in the EE
    and HH blocks, <E_i H_j> ~ eps_{ijl} khat_l in the EH block and its
    negative transpose in the HE block.  The six projections of khat that
    both need come from one matrix product with the columns e1, e2, h1, h2,
    e1 x h2 - h1 x e2 and chord.
    """
    e1, h1, e2, h2 = row1[:3], row1[3:], row2[:3], row2[3:]
    const = e1 @ e2 + h1 @ h2
    # e1 x h2 - h1 x e2 by components: np.cross costs more per CF value
    eh = [e1[1] * h2[2] - e1[2] * h2[1] - (h1[1] * e2[2] - h1[2] * e2[1]),
          e1[2] * h2[0] - e1[0] * h2[2] - (h1[2] * e2[0] - h1[0] * e2[2]),
          e1[0] * h2[1] - e1[1] * h2[0] - (h1[0] * e2[1] - h1[1] * e2[0])]
    cols = np.column_stack([e1, e2, h1, h2, eh, chord])

    def kernel(khat):
        p = khat.reshape(-1, 3) @ cols
        shape = khat.shape[:-1]
        return ((const - p[:, 0] * p[:, 1] - p[:, 2] * p[:, 3] + p[:, 4]).reshape(shape),
                p[:, 5].reshape(shape))
    return kernel


def em_cf_tensor_quadrature(pair, kind, tau1, tau2, params: RotationParams,
                            spec: QuadratureSpec = DEFAULT_SPEC) -> CFValue:
    """General two-point CF via direct lab-frame tensor contraction.

    Makes no use of the stationarity variable change: the two projection rows
    are taken at their own worldline phases and the mode-phase difference is
    evaluated from the actual lab positions.  Works for any component pair
    and for kinds "EE", "HH", "EH"; serves as the independent oracle for the
    closed forms and brackets.  Each integrand call takes the kernel's five
    projections of khat and the phase's khat . chord from one (3 x 6) matrix
    product, and the phase's fourth power by squaring twice.
    """
    row1, row2 = projection_rows(pair, kind, params, tau1, tau2)
    delta, dt_lab = _lag(params, tau1, tau2)
    const = params.constants

    t1, x1, y1, _ = lab_position(params, tau1)
    t2, x2, y2, _ = lab_position(params, tau2)
    dr = np.array([x1 - x2, y1 - y2, 0.0])
    cdt = const.c * (t1 - t2)
    # the phase coefficient over c dt, so that the integrand is
    # dimensionless and abs_tol means the same in every unit system
    kernel = _lab_kernel(row1, row2, dr / cdt)

    def integrand(khat):
        value, phase = kernel(khat)
        geom = phase - 1.0
        geom *= geom
        return value * 6.0 / (geom * geom)

    # the phase depends on the direction only through khat . dr: put the pole
    # of the rule on the chord (any axis at delta in 2 pi Z, where dr = 0)
    val, _ = integrate_sphere(integrand, spec, axis=dr if dr.any() else (0.0, 1.0, 0.0))
    value = const.hbar * const.c / (4.0 * math.pi**2) * val / cdt**4
    return CFValue(kind=kind, pair=pair, tau1=tau1, tau2=tau2,
                   spectrum="continuous", value=value, method="quadrature")


def em_cf_continuous(pair, kind, tau1, tau2, params: RotationParams,
                     method: str = "closed-form",
                     spec: QuadratureSpec = DEFAULT_SPEC) -> CFValue:
    """Electromagnetic two-point CF for the continuous zero-point spectrum.

    kind is "EE", "HH" or "EH"; pair indexes tetrad components (1-based).
    The closed form exists for the (1,1) pair (EE and, by the exact electric/
    magnetic symmetry of the stationary kernel, HH).  The quadrature method
    uses the stationary angular bracket for the diagonal pairs and falls back
    to the tensor-contraction path otherwise.

    Note on off-diagonals: the (1,3) and (2,3) pairs vanish identically (the
    integrand is odd in the z direction); the (1,2) pair does *not* vanish
    for separated times (it is antisymmetric under swapping the component
    order and only dies at coincidence), so it is computed honestly.
    """
    projection_rows(pair, kind, params, tau1, tau2)  # validates pair and kind
    delta, dt_lab = _lag(params, tau1, tau2)

    if method == "closed-form":
        if pair != (1, 1) or kind == "EH":
            raise ValueError(
                f"no closed form for pair {pair!r} kind {kind!r}; use method='quadrature'"
            )
        value = _closed_form_11(params, delta, dt_lab)
    elif method == "quadrature":
        if kind in ("EE", "HH") and pair in ((1, 1), (2, 2), (3, 3)):
            value = _bracket_quadrature(pair, params, delta, dt_lab, spec)
        else:
            return em_cf_tensor_quadrature(pair, kind, tau1, tau2, params, spec)
    else:
        raise ValueError(f"unknown method {method!r}")
    return CFValue(kind=kind, pair=pair, tau1=tau1, tau2=tau2,
                   spectrum="continuous", value=value, method=method)


def _scalar_closed_form(params: RotationParams, delta: float, dt_lab: float) -> float:
    const = params.constants
    denom = (const.c * dt_lab) ** 2 - 4.0 * params.radius**2 * math.sin(delta / 2.0) ** 2
    return -const.hbar * const.c / math.pi / denom


def scalar_cf_continuous(tau1, tau2, params: RotationParams) -> CFValue:
    """Massless-scalar two-point CF, closed form.

    -(hbar c / pi) / [ (gamma c (tau2 - tau1))^2
                       - 4 r^2 sin^2(omega gamma (tau2 - tau1) / 2) ].
    The denominator is positive for all separations while beta < 1.
    """
    value = _scalar_closed_form(params, *_lag(params, tau1, tau2))
    return CFValue(kind="scalar", pair=(0, 0), tau1=tau1, tau2=tau2,
                   spectrum="continuous", value=value, method="closed-form")


def scalar_cf_quadrature(tau1, tau2, params: RotationParams,
                         spec: QuadratureSpec = DEFAULT_SPEC) -> CFValue:
    """Scalar CF via angular quadrature of the regularized radial integral.

    The radial integral int_0^inf k cos(k G) dk carries its regularized value
    -1/G^2 with G the direction-dependent phase coefficient; the directions
    are integrated numerically.  Oracle for scalar_cf_continuous.
    """
    delta, dt_lab = _lag(params, tau1, tau2)
    const = params.constants
    B = const.c * dt_lab
    E0 = 2.0 * params.radius * math.sin(delta / 2.0)

    def integrand(khat):
        # G / B, dimensionless as in em_cf_tensor_quadrature
        return -1.0 / (1.0 - (E0 / B) * khat[..., 1]) ** 2

    val, _ = integrate_sphere(integrand, spec)
    value = const.hbar * const.c / (4.0 * math.pi**2) * val / B**2
    return CFValue(kind="scalar", pair=(0, 0), tau1=tau1, tau2=tau2,
                   spectrum="continuous", value=value, method="quadrature")
