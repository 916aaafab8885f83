"""Continuous-spectrum two-point correlation functions along the rotating
worldline: one closed form and one angular quadrature for every component
pair and kind of the electromagnetic field, and for the massless scalar.

Every CF, here and in cf_discrete, is stationary (depends on s = tau2 - tau1
only) and reads one lag record (_lag), taken in the symmetric lag frame at
the times -s/2 and s/2, where the chord (r1 - r2) / c (t1 - t2) is n yhat:

    delta = omega gamma s                  angular lag
    cdt = c gamma s                        c times the lab time of the lag
    n = beta sin(delta/2) / (delta/2)      gap = 1 - n, without cancellation
    rows                                   the projection rows at -s/2, s/2

It is the sphere integral of a weight, the lab-frame kernel of the rows
(fields._lab_kernel) or 1 for the scalar, against the Abel-regularized
radial integral int_0^inf k^p cos(k G) dk at G = cdt (1 - n k_y): 6/G^4 for
p = 3, the field correlator of random classical zero-point radiation
(Boyer, PRD 11, 790, 1975), and -1/G^2 for p = 1, which the ladders of
cf_discrete cross-check.  _quadrature integrates it with the pole of the
sphere rule on the chord, _closed_form exactly, and _scaled gives it its
dimension, hbar c / (4 pi^2 cdt^q), q = 4 (EM) or 2 (scalar).  The
coincidence limit is singular and guarded; one-point quantities live in the
thermo module.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Tuple

from .fields import _lab_kernel, _row_entries
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


def sin_power_integral(p: int, k: float) -> float:
    """int_0^pi sin^p(theta) / (1 - k^2 sin^2 theta)^(7/2) dtheta for p = 1, 3, 5.

    Rational in om = 1/(1 - k^2); requires |k| < 1.
    """
    if not abs(k) < 1.0:     # NaN included
        raise ValueError(f"|k| must be < 1, got {k!r}")
    if p not in (1, 3, 5):
        raise ValueError(f"p must be 1, 3 or 5, got {p!r}")
    om = 1.0 / ((1.0 - k) * (1.0 + k))
    c1, c2 = {1: (2.0 / 5.0, 8.0 / 15.0), 3: (0.0, 4.0 / 15.0), 5: (0.0, 0.0)}[p]
    return c1 * om + c2 * om**2 + 16.0 / 15.0 * om**3


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


_Lag = namedtuple("_Lag", "delta cdt n gap rows")


def _lag(field, params: RotationParams, tau1: float, tau2: float) -> _Lag:
    """The lag record of a CF of field at tau1, tau2, in the frame at -s/2
    and s/2, so that no orbit phase enters it; n and gap are _chord's.  rows
    are the projection rows of field, (pair, kind), as tuples of floats,
    checked first, or None for the scalar.
    CoincidenceError where |delta| < COINCIDENCE_TOL; ValueError where the
    CF scale hbar c / (c dt)^4 leaves the float64 range."""
    s = tau2 - tau1
    rows = None if field is None else _row_entries(*field, params, -0.5 * s, 0.5 * s)
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
    return _Lag(delta, cdt, *_chord(params.beta, delta), rows)


def _chord(beta: float, delta: float):
    """(n, gap): n = beta sin(h) / h, h = delta / 2, and gap = 1 - n, by the
    series of (1 - beta) + beta (1 - sin(h) / h) where |h| < 1, which keeps
    its digits; 1 - n elsewhere, which keeps the bits next to 2 pi."""
    h = delta / 2.0
    n = beta * (math.sin(h) / h)
    gap = 1.0 - n
    if abs(h) < 1.0:
        x, series = h * h, 1.0
        for d in (342.0, 272.0, 210.0, 156.0, 110.0, 72.0, 42.0, 20.0):  # (2j)(2j + 1)
            series = 1.0 - x / d * series
        gap = (1.0 - beta) + beta * (x / 6.0 * series)
    return n, gap


def _scaled(params: RotationParams, lag: _Lag, x: float, what: str) -> float:
    """hbar c x / (4 pi^2 (c dt)^q), the dimension of every CF, q 4 for the
    electromagnetic field (a lag with rows) and 2 for the scalar;
    OverflowError naming what and delta unless it is finite."""
    const, q = params.constants, 2 if lag.rows is None else 4
    value = const.hbar * const.c / (4.0 * math.pi**2) * x / lag.cdt**q
    if not math.isfinite(value):
        raise OverflowError(f"{what} = {value!r} at delta = {lag.delta!r}")
    return value


def _closed_form(lag: _Lag) -> float:
    """The sphere integral of _quadrature in closed form, from the lag
    record alone.  With g = 1 - n k_y the sphere moments of 6 / g^4 give
    16 pi N / (1 - n^2)^3 for the rows (e1, h1), (e2, h2) of the lag frame,

        N = (1 + n^2) (e1x e2x + e1z e2z + h1x h2x + h1z h2z)
            + (1 - n^2) (e1y e2y + h1y h2y) + 2 n (e1 x h2 - h1 x e2)_y,

    and those of -1 / g^2 give -4 pi / (1 - n^2) for the scalar (no rows);
    1 - n^2 is gap (1 + n), which keeps its digits where n nears 1."""
    return _image_form(_row_sums(lag.rows), lag.n, lag.gap * (1.0 + lag.n))


def _row_sums(rows):
    """The three sums of N, or None for the scalar (rows None)."""
    if rows is None:
        return None
    (e1x, e1y, e1z, h1x, h1y, h1z), (e2x, e2y, e2z, h2x, h2y, h2z) = rows
    return (e1x * e2x + e1z * e2z + h1x * h2x + h1z * h2z, e1y * e2y + h1y * h2y,
            e1z * h2x - e1x * h2z - (h1z * e2x - h1x * e2z))


def _image_form(sums, n, m):
    """_closed_form at the chord n yhat, m = 1 - n^2, from the _row_sums."""
    if sums is None:
        return -4.0 * math.pi / m
    axz, ay, cy = sums
    return 16.0 * math.pi * ((1.0 + n * n) * axz + m * ay + 2.0 * n * cy) / m**3


def _cf_sphere(field, params: RotationParams, tau1: float, tau2: float, tol: float):
    """(lag, weighted), the one sphere integrand of every CF quadrature.
    field is the public caller's (pair, kind), never None there, so that no
    EM route takes the scalar's weight, or None for the scalar.
    weighted(radial) is khat -> weight(khat) radial(g), g = 1 - n k_y formed
    as gap + n |khat - yhat|^2 / 2, which keeps the digits of 1 - n next to
    yhat, the rule's default pole.  QuadratureError when tol is below q eps
    |n| / (1 - |n|): the lab kernel of some rows, (2,2) EE among them,
    cancels next to the pole and costs the value up to that, which the
    rule's error estimate does not see (a bound for (1,1) and 1)."""
    lag = _lag(field, params, tau1, tau2)
    kernel = None if field is None else _lab_kernel(*lag.rows)
    n = lag.n
    floor = (2 if field is None else 4) * math.ulp(1.0) * abs(n) / min(lag.gap, 1.0 + n)
    if 0.0 < tol < floor:      # a tol out of range is integrate_sphere's ValueError
        raise QuadratureError(
            f"sphere quadrature did not converge: tol {tol!r} is below the conditioning "
            f"floor {floor:.3g} of 1 - khat . chord at |chord| = {abs(n)!r}")

    def weighted(radial):
        def integrand(khat):
            k = khat.reshape(-1, 3)
            f = radial(lag.gap + 0.5 * n * (k[:, 0] ** 2 + (k[:, 1] - 1.0) ** 2
                                            + k[:, 2] ** 2))
            return (f if kernel is None else kernel(k) * f).reshape(khat.shape[:-1])
        return integrand
    return lag, weighted


def _quadrature(field, params: RotationParams, tau1: float, tau2: float, tol: float):
    """(lag, x), x the sphere integral of the weight of field (_cf_sphere)
    against the regularized radial integral, 6 / g^4 (EM) or -1 / g^2
    (scalar); it is dimensionless, so that the rule's absolute floor means
    the same in every unit system."""
    lag, weighted = _cf_sphere(field, params, tau1, tau2, tol)
    if field is None:
        radial = lambda g: -1.0 / g**2
    else:   # the fourth power as two squarings
        radial = lambda g: 6.0 / (g**2) ** 2
    return lag, integrate_sphere(weighted(radial), tol)[0]


def _continuous(field, tau1: float, tau2: float, params: RotationParams, method: str,
                tol: float = DEFAULT_TOL) -> CFValue:
    """The continuous CF of field, (pair, kind) or None for the scalar, by
    method, "closed-form" (_closed_form) or "quadrature" (_quadrature),
    scaled by _scaled; cf_discrete._periodic takes the same arguments."""
    if method == "quadrature":
        lag, x = _quadrature(field, params, tau1, tau2, tol)
    elif method == "closed-form":
        lag = _lag(field, params, tau1, tau2)
        x = _closed_form(lag)
    else:
        raise ValueError(f"unknown method {method!r}")
    pair, kind = field or ((0, 0), "scalar")
    return CFValue(kind=kind, pair=pair, tau1=tau1, tau2=tau2, spectrum="continuous",
                   value=_scaled(params, lag, x, f"continuous {kind} {pair} CF"), method=method)


def em_cf_tensor_quadrature(pair, kind, tau1, tau2, params: RotationParams,
                            tol: float = DEFAULT_TOL) -> CFValue:
    """General two-point CF via direct lab-frame tensor contraction, for any
    component pair and kind "EE", "HH" or "EH": the quadrature route of
    em_cf_continuous."""
    return _continuous((pair, kind), tau1, tau2, params, "quadrature", tol)


def em_cf_continuous(pair, kind, tau1, tau2, params: RotationParams,
                     method: str = "closed-form",
                     tol: float = DEFAULT_TOL) -> CFValue:
    """Electromagnetic two-point CF for the continuous zero-point spectrum.

    kind is "EE", "HH" or "EH"; pair indexes tetrad components (1-based).
    Both methods serve every pair and kind: the closed form of the sphere
    integral and its quadrature, the route of em_cf_tensor_quadrature.

    Note on off-diagonals: the (1,3) and (2,3) EE and HH pairs vanish
    identically (the integrand is odd in z); the (1,2) pair does *not*
    vanish for separated times (it is antisymmetric under swapping the
    component order and only dies at coincidence), so it is computed honestly.
    """
    return _continuous((pair, kind), tau1, tau2, params, method, tol)


def scalar_cf_continuous(tau1, tau2, params: RotationParams) -> CFValue:
    """Massless-scalar two-point CF, closed form.

    -(hbar c / pi) / [ (gamma c (tau2 - tau1))^2
                       - 4 r^2 sin^2(omega gamma (tau2 - tau1) / 2) ].
    The denominator is positive for all separations while beta < 1.
    """
    return _continuous(None, tau1, tau2, params, "closed-form")


def scalar_cf_quadrature(tau1, tau2, params: RotationParams,
                         tol: float = DEFAULT_TOL) -> CFValue:
    """Scalar CF via angular quadrature of the regularized radial integral.

    The radial integral int_0^inf k cos(k G) dk carries its regularized value
    -1/G^2 with G = c dt (1 - khat . chord) the direction-dependent phase
    coefficient; the directions are integrated numerically, with the pole of
    the rule on the chord as for every CF quadrature.  Oracle for
    scalar_cf_continuous.
    """
    return _continuous(None, tau1, tau2, params, "quadrature", tol)
