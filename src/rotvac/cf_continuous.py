"""Continuous-spectrum two-point correlation functions along the rotating
worldline: printed closed forms, and one angular quadrature for any
component pair and for the scalar.  Every CF quadrature, here and in
cf_discrete, integrates the one sphere integrand of _cf_sphere: a weight,
the lab-frame kernel of the two projection rows (fields._lab_kernel) or 1
for the scalar, times a radial factor of 1 - khat . chord, with the pole of
the sphere rule on the chord.

All two-time functions are stationary (depend on tau2 - tau1 only), so
every CF, closed form or quadrature, here and in cf_discrete, reads one lag
record (_lag), taken at the times 0 and s = tau2 - tau1:

    delta = omega gamma s                  angular lag
    cdt = c gamma s                        c times the lab time of the lag
    n chat, n = beta sin(delta/2)/(delta/2)   the chord, chat a unit vector
    gap = 1 - n                            formed without cancellation

and takes its dimension, hbar c / (4 pi^2 cdt^q) with q = 4 for the
electromagnetic field and 2 for the massless scalar, from _scaled.  The
coincidence limit is singular and guarded; one-point quantities live in the
thermo module.  The divergent radial integrals int_0^inf k^p cos(k G) dk
enter through their Abel-regularized values (6/G^4 for p = 3, -1/G^2 for
p = 1), which the series machinery in cf_discrete cross-checks.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Tuple

from .fields import _lab_kernel, projection_rows
from .kinematics import RotationParams
from .numerics import DEFAULT_TOL, QuadratureError, integrate_sphere

__all__ = [
    "CoincidenceError",
    "CFValue",
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


def _sin_power(p: int, om: float) -> float:
    """sin_power_integral(p, k) at om = 1 / (1 - k^2)."""
    if p == 1:
        return 2.0 / 5.0 * om + 8.0 / 15.0 * om**2 + 16.0 / 15.0 * om**3
    if p == 3:
        return 4.0 / 15.0 * om**2 + 16.0 / 15.0 * om**3
    if p == 5:
        return 16.0 / 15.0 * om**3
    raise ValueError(f"p must be 1, 3 or 5, got {p!r}")


def sin_power_integral(p: int, k: float) -> float:
    """int_0^pi sin^p(theta) / (1 - k^2 sin^2 theta)^(7/2) dtheta for p = 1, 3, 5.

    Rational in 1/(1 - k^2); requires |k| < 1.
    """
    if not abs(k) < 1.0:     # NaN included
        raise ValueError(f"|k| must be < 1, got {k!r}")
    return _sin_power(p, 1.0 / ((1.0 - k) * (1.0 + k)))


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


_Lag = namedtuple("_Lag", "delta cdt n chat gap")


def _lag(params: RotationParams, tau1: float, tau2: float) -> _Lag:
    """The lag frame of a CF at tau1, tau2, the times 0 and s = tau2 - tau1,
    so that no orbit phase enters a CF: delta = omega gamma s, cdt = c gamma
    s, and the chord (r(0) - r(s)) / c (t(0) - t(s)) = n chat, with n = beta
    sin(h) / h, h = delta / 2, and chat = (-sin h, cos h, 0).  gap = 1 - n is
    (1 - beta) + beta (1 - sin(h) / h), by its series, where |h| < 1; 1 - n
    elsewhere, which keeps the bits of periodic values next to 2 pi.
    CoincidenceError where |delta| < COINCIDENCE_TOL; ValueError where the
    CF scale hbar c / (c dt)^4 leaves the float64 range."""
    s = tau2 - tau1
    delta = params.alpha(s)
    if abs(delta) < COINCIDENCE_TOL:
        raise CoincidenceError(
            f"|delta| = {abs(delta)!r} below the coincidence guard; "
            "two-point functions diverge there"
        )
    const = params.constants
    hbar_c, cdt = const.hbar * const.c, const.c * (params.gamma * s)
    log_cdt4 = 4.0 * math.log2(abs(cdt))
    if not (abs(log_cdt4) < 1000.0 and abs(math.log2(hbar_c) - log_cdt4) < 1000.0):
        raise ValueError(f"lag c dt = c delta / (omega gamma) = {cdt!r} puts the CF "
                         "scale hbar c / (c dt)^4 outside the float64 range")
    h = delta / 2.0
    n = params.beta * (math.sin(h) / h)
    gap = 1.0 - n
    if abs(h) < 1.0:
        x, series = h * h, 1.0
        for d in (342.0, 272.0, 210.0, 156.0, 110.0, 72.0, 42.0, 20.0):  # (2j)(2j + 1)
            series = 1.0 - x / d * series
        gap = (1.0 - params.beta) + params.beta * (x / 6.0 * series)
    return _Lag(delta, cdt, n, (-math.sin(h), math.cos(h), 0.0), gap)


def _scaled(params: RotationParams, lag: _Lag, q: int, x: float, what: str) -> float:
    """hbar c x / (4 pi^2 (c dt)^q), the dimension of every CF, q 4 for the
    electromagnetic field and 2 for the scalar; OverflowError naming what
    and delta unless it is finite."""
    const = params.constants
    value = const.hbar * const.c / (4.0 * math.pi**2) * x / lag.cdt**q
    if not math.isfinite(value):
        raise OverflowError(f"{what} = {value!r} at delta = {lag.delta!r}")
    return value


def _closed_form_11(params: RotationParams, lag: _Lag) -> float:
    b, k, chalf = params.beta, -lag.n, lag.chat[1]
    c2 = chalf * chalf
    br1 = 2.0 * math.pi * math.cos(lag.delta)
    br3 = math.pi * (3.0 * k * k * math.cos(lag.delta) - 2.0 * c2 + 2.0 * b * b
                     - 8.0 * b * k * chalf + 1.0)
    br5 = math.pi * (-3.0 * k * k * c2 + 3.0 * b * b * k * k
                     - 2.0 * b * k**3 * chalf + 4.0 * k * k)
    om = 1.0 / (lag.gap * (1.0 + lag.n))     # 1 / (1 - k^2)
    return _scaled(params, lag, 4, 6.0 * params.gamma**2 * (
        br1 * _sin_power(1, om) + br3 * _sin_power(3, om) + br5 * _sin_power(5, om)),
        "continuous (1, 1) CF")


def _cf_sphere(field, params: RotationParams, tau1: float, tau2: float, tol: float):
    """(lag, weighted), the one sphere integrand of every CF quadrature, in
    the lag frame of _lag, whose chat is the rule's pole.  field is the
    public caller's (pair, kind) of the electromagnetic field, never None
    there, so that no EM route takes the scalar's weight, or None for the
    scalar; its rows, projection_rows(pair, kind, params, 0.0, s), are
    checked before the lag.  weighted(radial) is khat -> weight(khat)
    radial(g), the weight the lab kernel of the rows or 1, with g = 1 -
    khat . chord formed as gap + n |khat - chat|^2 / 2, which keeps the
    digits of 1 - n next to the pole.  QuadratureError when tol is below
    q eps |n| / (1 - |n|), q 4 (EM) or 2: the lab kernel of some rows, (2,2)
    EE among them, cancels next to the pole and costs the value up to that,
    which the rule's error estimate does not see (a bound for (1,1) and 1).
    """
    kernel = None if field is None else _lab_kernel(
        *projection_rows(*field, params, 0.0, tau2 - tau1))
    lag = _lag(params, tau1, tau2)
    n, (cx, cy, _) = lag.n, lag.chat
    floor = (2 if field is None else 4) * math.ulp(1.0) * abs(n) / min(lag.gap, 1.0 + n)
    if 0.0 < tol < floor:      # a tol out of range is integrate_sphere's ValueError
        raise QuadratureError(
            f"sphere quadrature did not converge: tol {tol!r} is below the conditioning "
            f"floor {floor:.3g} of 1 - khat . chord at |chord| = {abs(n)!r}")

    def weighted(radial):
        def integrand(khat):
            k = khat.reshape(-1, 3)
            f = radial(lag.gap + 0.5 * n * ((k[:, 0] - cx) ** 2 + (k[:, 1] - cy) ** 2
                                            + k[:, 2] ** 2))
            return (f if kernel is None else kernel(k) * f).reshape(khat.shape[:-1])
        return integrand
    return lag, weighted


def _quadrature(field, params: RotationParams, tau1: float, tau2: float,
                tol: float) -> CFValue:
    """The sphere integral of the weight of field (_cf_sphere) against the
    regularized radial integral at g = 1 - khat . chord, 6 / g^4 (q = 4) for
    the electromagnetic field (pair, kind) or -1 / g^2 (q = 2) for the scalar
    (None), scaled by _scaled.  The integrand is dimensionless, so that the
    rule's absolute floor means the same in every unit system."""
    lag, weighted = _cf_sphere(field, params, tau1, tau2, tol)
    if field is None:
        q, radial = 2, lambda g: -1.0 / g**2
    else:   # the fourth power as two squarings
        q, radial = 4, lambda g: 6.0 / (g**2) ** 2
    val, _ = integrate_sphere(weighted(radial), tol, axis=lag.chat)
    pair, kind = field or ((0, 0), "scalar")
    return CFValue(kind=kind, pair=pair, tau1=tau1, tau2=tau2, spectrum="continuous",
                   value=_scaled(params, lag, q, val, f"continuous {kind} {pair} CF"),
                   method="quadrature")


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
    value = _closed_form_11(params, _lag(params, tau1, tau2))
    return CFValue(kind=kind, pair=pair, tau1=tau1, tau2=tau2,
                   spectrum="continuous", value=value, method=method)


def _scalar_closed_form(params: RotationParams, lag: _Lag) -> float:
    # (c dt)^2 - 4 r^2 sin^2(delta/2) = (c dt)^2 gap (1 + n)
    return _scaled(params, lag, 2, -4.0 * math.pi / (lag.gap * (1.0 + lag.n)),
                   "continuous scalar CF")


def scalar_cf_continuous(tau1, tau2, params: RotationParams) -> CFValue:
    """Massless-scalar two-point CF, closed form.

    -(hbar c / pi) / [ (gamma c (tau2 - tau1))^2
                       - 4 r^2 sin^2(omega gamma (tau2 - tau1) / 2) ].
    The denominator is positive for all separations while beta < 1.
    """
    value = _scalar_closed_form(params, _lag(params, tau1, tau2))
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
