"""Continuous-spectrum two-point correlation functions along the rotating
worldline: printed closed forms, and one angular quadrature for any
component pair and for the scalar.  Every CF quadrature, here and in
cf_discrete, integrates the one sphere integrand of _cf_sphere: a weight,
the lab-frame kernel of the two projection rows (fields._lab_kernel) or 1
for the scalar, times a radial factor of 1 - khat . chord, with the pole of
the sphere rule on the chord.  Every CF is evaluated in the lag frame, at
the times 0 and s = tau2 - tau1, where the chord is -shape_k (-sin(delta/2),
cos(delta/2), 0) in closed form.

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

from .fields import _lab_kernel, projection_rows
from .kinematics import RotationParams
from .numerics import DEFAULT_TOL, QuadratureError, integrate_sphere

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
    1 at delta = 0; ValueError unless delta is finite."""
    if not math.isfinite(delta):
        raise ValueError(f"lag delta must be finite, got {delta!r}")
    h = delta / 2.0
    return -params.beta * (math.sin(h) / h if h else 1.0)


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
    """(delta, dt_lab) = (omega gamma s, gamma s), both from the one lag
    s = tau2 - tau1, so that no orbit phase enters a CF."""
    s = tau2 - tau1
    delta = params.alpha(s)
    if abs(delta) < COINCIDENCE_TOL:
        raise CoincidenceError(
            f"|delta| = {abs(delta)!r} below the coincidence guard; "
            "two-point functions diverge there"
        )
    dt_lab = params.gamma * s
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


def _cf_sphere(field, params: RotationParams, tau1: float, tau2: float, tol: float):
    """(delta, dt_lab, axis, weighted), the one sphere integrand of every CF
    quadrature, in the lag frame: times 0 and s = tau2 - tau1 (_lag).  field
    is the public caller's (pair, kind) of the electromagnetic field, never
    None there, so that no EM route takes the scalar's weight, or None for
    the scalar; its rows, projection_rows(pair, kind, params, 0.0, s), are
    checked before the lag.  The chord (r(0) - r(s)) / c (t(0) - t(s)) is
    n chat, n = -shape_constant = 2 r sin(delta/2) / (c dt), and axis, the
    rule's pole, is chat = (-sin(delta/2), cos(delta/2), 0).
    weighted(radial) is khat -> weight(khat) radial(g), the weight the lab
    kernel of the rows or 1, with g = 1 - khat . chord formed as (1 - n) +
    n |khat - chat|^2 / 2, which keeps the digits of 1 - n next to the pole.
    QuadratureError when tol is below q eps |n| / (1 - |n|), q 4 (EM) or 2,
    the error that the rounding of g puts into g^-q there, which the rule's
    error estimate does not see."""
    kernel = None if field is None else _lab_kernel(
        *projection_rows(*field, params, 0.0, tau2 - tau1))
    delta, dt_lab = _lag(params, tau1, tau2)
    n = -shape_constant(params, delta)
    floor = (2 if field is None else 4) * math.ulp(1.0) * abs(n) / (1.0 - abs(n))
    if 0.0 < tol < floor:      # a tol out of range is integrate_sphere's ValueError
        raise QuadratureError(
            f"sphere quadrature did not converge: tol {tol!r} is below the conditioning "
            f"floor {floor:.3g} of 1 - khat . chord at |chord| = {abs(n)!r}")
    cx, cy = -math.sin(delta / 2.0), math.cos(delta / 2.0)

    def weighted(radial):
        def integrand(khat):
            k = khat.reshape(-1, 3)
            f = radial((1.0 - n) + 0.5 * n * ((k[:, 0] - cx) ** 2 + (k[:, 1] - cy) ** 2
                                              + k[:, 2] ** 2))
            return (f if kernel is None else kernel(k) * f).reshape(khat.shape[:-1])
        return integrand
    return delta, dt_lab, (cx, cy, 0.0), weighted


def _quadrature(field, params: RotationParams, tau1: float, tau2: float,
                tol: float) -> CFValue:
    """hbar c / (4 pi^2 (c dt)^q) times the sphere integral of the weight of
    field (_cf_sphere) against the regularized radial integral of that field
    at g = 1 - khat . chord: 6 / g^4 and q = 4 for the electromagnetic
    field (pair, kind), -1 / g^2 and q = 2 for the scalar (None).  The
    integrand is dimensionless, so that the rule's absolute floor means the
    same in every unit system.
    """
    _, dt_lab, axis, weighted = _cf_sphere(field, params, tau1, tau2, tol)
    if field is None:
        q, radial = 2, lambda g: -1.0 / g**2
    else:   # the fourth power as two squarings
        q, radial = 4, lambda g: 6.0 / (g**2) ** 2
    val, _ = integrate_sphere(weighted(radial), tol, axis=axis)
    const = params.constants
    value = const.hbar * const.c / (4.0 * math.pi**2) * val / (const.c * dt_lab) ** q
    pair, kind = field or ((0, 0), "scalar")
    return CFValue(kind=kind, pair=pair, tau1=tau1, tau2=tau2, spectrum="continuous",
                   value=value, method="quadrature")


def em_cf_tensor_quadrature(pair, kind, tau1, tau2, params: RotationParams,
                            tol: float = DEFAULT_TOL) -> CFValue:
    """General two-point CF via direct lab-frame tensor contraction, for any
    component pair and kind "EE", "HH" or "EH", in the lag frame of
    _cf_sphere.  The quadrature route of em_cf_continuous.
    """
    return _quadrature((pair, kind), params, tau1, tau2, tol)


def em_cf_continuous(pair, kind, tau1, tau2, params: RotationParams,
                     method: str = "closed-form",
                     tol: float = DEFAULT_TOL) -> CFValue:
    """Electromagnetic two-point CF for the continuous zero-point spectrum.

    kind is "EE", "HH" or "EH"; pair indexes tetrad components (1-based).
    The closed form exists for the (1,1) pair (EE and, by the exact electric/
    magnetic symmetry of the stationary kernel, HH).  The quadrature method
    integrates the lab-frame tensor kernel for every pair and kind, the
    route of em_cf_tensor_quadrature.

    Note on off-diagonals: the (1,3) and (2,3) pairs vanish identically (the
    integrand is odd in the z direction); the (1,2) pair does *not* vanish
    for separated times (it is antisymmetric under swapping the component
    order and only dies at coincidence), so it is computed honestly.
    """
    if method == "quadrature":
        return _quadrature((pair, kind), params, tau1, tau2, tol)
    if method != "closed-form":
        raise ValueError(f"unknown method {method!r}")
    if not (pair == (1, 1) and kind in ("EE", "HH")):
        raise ValueError(f"no closed form for pair {pair!r} kind {kind!r}; "
                         "use method='quadrature'")
    value = _closed_form_11(params, *_lag(params, tau1, tau2))
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
                         tol: float = DEFAULT_TOL) -> CFValue:
    """Scalar CF via angular quadrature of the regularized radial integral.

    The radial integral int_0^inf k cos(k G) dk carries its regularized value
    -1/G^2 with G = c dt (1 - khat . chord) the direction-dependent phase
    coefficient; the directions are integrated numerically, with the pole of
    the rule on the chord as for every CF quadrature.  Oracle for
    scalar_cf_continuous.
    """
    return _quadrature(None, params, tau1, tau2, tol)
