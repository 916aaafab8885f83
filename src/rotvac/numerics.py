"""Shared numerical engines: adaptive 1-D quadrature, graded sphere
quadrature, Abel-regularized summation of divergent oscillatory series, and an
Abel-Plana identity checker.

Both integrators share one tolerance policy: a relative tolerance with an
absolute floor ABS_PER_REL times smaller, and a fixed budget.  The 1-D
integrator wraps QUADPACK (scipy.integrate.quad) at DEFAULT_TOL.  The sphere
rule takes the relative tolerance as its only setting and is the one place
that parametrizes directions: tanh-sinh (Takahashi & Mori 1974)
in u = k . axis times a periodic trapezoid in the azimuth about axis.  It is
nested: it starts at 129 u nodes by 8 azimuths, where most stationary
integrands converge in one call, the error estimates come from subsets of the
evaluated grid, each direction is refined on its own while its estimate is
too large, and no node is evaluated twice.  Integrands receive unit vectors k
(trailing axis of 3); the double-exponential grading towards u = +/-1
resolves the near-luminal (1 + k u)^-4 peaks when the axis is the one the
integrand depends on.  Abel summation has one route, since every series
that the package sums diverges; it evaluates the terms once, in extended
precision, sums a_n e^(-eta n) over a prefix of them for each eta of a
geometric grid, and extrapolates eta -> 0 with a Neville table; the weights e^(-eta n) of each
eta come from two short exponential ladders, in blocks of ABEL_BLOCK terms.
The grid, 15 etas three to an octave from 0.14 down to 0.0055, was chosen by
a scan against the closed ladder sums sum n^p cos(n phi), p = 3 and 1: on 52
phases in [0.6, 5.7] the cubic relative error has p90 2.8e-8 and max 3.5e-8
(the linear 2.0e-13 and 3.8e-13), and at ten phases within 0.45 of a
resonance, from 0.1 to 2 pi - 0.08, every error is below that of the sparser,
longer grid 0.1 * 2^-j, j < 7.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

__all__ = [
    "QuadratureError",
    "SeriesError",
    "SeriesSumResult",
    "integrate_1d",
    "integrate_sphere",
    "abel_sum",
    "abel_plana_check",
    "neville_to_zero",
]

# Abel eta grid 0.14 * 2^(-j/3), j < 15, from 0.14 to 0.0055.  Scanned against
# the closed cubic and linear ladders: smaller etas (0.1 * 2^-j reached
# 0.0016, on 46,525 terms) let the 80-bit roundoff of the cubic sums dominate,
# and larger ones (0.3 * 2^(-j/2), j < 11) no longer resolve phases within
# 0.2 of resonance, where the extrapolation fails to stabilize
ABEL_ETA_GRID = tuple(0.14 * 2.0**(-j / 3) for j in range(15))
ABEL_BLOCK = 256  # Abel weights e^(-eta n) are built in blocks of this many terms

# tanh-sinh sphere rule: the base step in t, whose halvings are the t levels,
# and the half-width of the t range.  The rule starts at SPHERE_H0 / 8 = 1/16,
# 129 u nodes, and its t estimate compares against the level at 1/8.  Beyond
# SPHERE_T_MAX 1 - |u| < 2e-37, which leaves out less than 1e-28 of the
# integral of (1 + k u)^-4 for any 1 - |k| >= 1e-6
SPHERE_H0 = 0.5
SPHERE_T_MAX = 4.0

# every quadrature's relative tolerance has an absolute floor ABS_PER_REL
# times smaller (a division, so the default's floor is exactly 1e-14)
DEFAULT_TOL = 1e-10
ABS_PER_REL = 1e4
SPHERE_MAX_NODES = 128_000


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries the best estimate found."""

    def __init__(self, message, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class SeriesError(RuntimeError):
    """Series summation or extrapolation failed; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _power(x: float, n: int, name: str) -> float:
    """x**n, or an OverflowError naming x where Python's float ** raises one."""
    try:
        return x**n
    except OverflowError:
        raise OverflowError(f"{name} = {x!r} overflows at the power {n}") from None


def integrate_1d(f: Callable[[float], float], a: float, b: float):
    """Adaptive integral of f over [a, b] (b may be inf), to the relative
    tolerance DEFAULT_TOL with its absolute floor, on at most 2,000
    subintervals.

    Returns (value, error_estimate); raises QuadratureError with the best
    estimate attached when the subdivision budget is exhausted or QUADPACK
    reports non-convergence beyond the tolerance.
    """
    abs_tol = DEFAULT_TOL / ABS_PER_REL
    value, err, info, *tail = quad(f, a, b, epsabs=abs_tol, epsrel=DEFAULT_TOL,
                                   limit=2000, full_output=True)
    if tail:  # non-empty means a warning message was produced
        tol = max(abs_tol, DEFAULT_TOL * abs(value))
        if err > 10.0 * tol:
            raise QuadratureError(tail[0], best_estimate=value, error_estimate=err)
    return value, err


@functools.lru_cache(maxsize=16)
def _azimuths(m: int):
    """sin and cos of the m azimuths 2 pi j / m, from one quarter turn of
    sines, so that psi -> -psi and psi -> pi - psi map nodes onto nodes
    exactly and odd integrands cancel on every subset of the grid.  Cached,
    so read-only."""
    q = np.sin(np.arange(m // 4 + 1) * (2.0 * np.pi / m))
    sin = np.concatenate([q, q[-2::-1], -q[1:], -q[-2:0:-1]])
    cos = np.roll(sin, -(m // 4))
    sin.flags.writeable = cos.flags.writeable = False
    return sin, cos


@functools.lru_cache(maxsize=16)
def _t_level(h: float):
    """The tanh-sinh level of step h: nodes t = j h on [-SPHERE_T_MAX,
    SPHERE_T_MAX], their weights w = du/dt, and u = tanh x and s = sech x =
    sqrt(1 - u^2) (without cancellation) at x = pi/2 sinh t.  The odd entries
    are the nodes that halving the step from 2 h adds.  Cached, so read-only."""
    n = int(round(SPHERE_T_MAX / h))
    t = np.arange(-n, n + 1) * h             # exact: multiples of a power of 2
    x = 0.5 * np.pi * np.sinh(t)
    w = 0.5 * np.pi * np.cosh(t) / np.cosh(x) ** 2
    u, s = np.tanh(x), 1.0 / np.cosh(x)
    for arr in (t, w, u, s):
        arr.flags.writeable = False
    return t, w, u, s


def _interleave(even, odd, axis: int):
    """even and odd merged along axis, even first: the grid after a step is
    halved, from the old nodes and the new ones between them."""
    shape = list(even.shape)
    shape[axis] += odd.shape[axis]
    out = np.empty(shape)
    lead = (slice(None),) * axis
    out[lead + (slice(0, None, 2),)] = even
    out[lead + (slice(1, None, 2),)] = odd
    return out


def integrate_sphere(f, tol: float = DEFAULT_TOL, axis=(0.0, 1.0, 0.0)):
    """Integral of f(k) over the unit sphere, with the pole of the rule on an
    axis in the xy plane.

    f receives unit vectors k as an array with a trailing axis of 3 and must
    return values broadcastable to k.shape[:-1].  The rule is tanh-sinh in
    u = k . axis, graded double-exponentially towards u = +/-1, times a
    trapezoid in the azimuth psi about axis, with k_z = sqrt(1 - u^2) sin(psi)
    exactly; integrands peaked along +/-axis are resolved up to |u| -> 1.

    The grid starts at step SPHERE_H0 / 8 = 1/16 in t, 129 u nodes, with 8
    azimuths, and every node is evaluated once; stationary CF integrands
    converge there, in one call, up to beta 0.9 (near-luminal ones at small
    lags take one t refinement more).  Both error estimates come from
    subsets of the grid: against every other t node at all azimuths (t),
    and against every other azimuth at all t nodes (psi), so that neither
    direction's error refines the other.  Each direction is refined by
    halving its step, evaluating only the new nodes, while its estimate
    exceeds the tolerance; an integrand that is a trig polynomial of degree
    <= 3 in psi never doubles its 8 azimuths.  The t levels and the azimuths
    are memoised (_t_level, _azimuths), so their hyperbolic and
    trigonometric functions are computed once per level, not per call;
    halving the t step reads the odd entries of the finer level.  The
    accepted error is max(tol / ABS_PER_REL, tol |I|, 100 eps (L1 - |I|))
    with L1 the integral of |f|: the roundoff floor covers only the
    cancelled share of the mass, so cancelling integrands return at roundoff
    while a sign-definite one is held to the demanded accuracy.  ValueError
    unless 0 < tol < inf.  Raises QuadratureError, carrying the best
    estimate, once the grid exceeds SPHERE_MAX_NODES nodes, and at once on a
    non-finite value or error estimate.  Returns (value, error_estimate).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    abs_tol = tol / ABS_PER_REL
    a = np.asarray(axis, dtype=float)
    # math.hypot scales by the larger component, so no tiny axis's norm underflows
    norm = math.hypot(a[0], a[1]) if a.shape == (3,) else 0.0
    if a.shape != (3,) or a[2] != 0.0 or not 0.0 < norm < math.inf:
        raise ValueError(f"axis must be a finite non-zero vector in the xy plane, got {axis!r}")
    a = a / norm
    e1, e2 = np.array([a[1], -a[0], 0.0]), np.array([0.0, 0.0, 1.0])

    def evaluate(u, s, sin, cos):
        """f on the nodes (u, s) x azimuths."""
        k = u[:, None, None] * a + s[:, None, None] * (cos[:, None] * e1 + sin[:, None] * e2)
        return np.broadcast_to(np.asarray(f(k), dtype=float), k.shape[:-1])

    h = SPHERE_H0 / 8
    _, w, u, s = _t_level(h)
    sin, cos = _azimuths(8)
    vals = evaluate(u, s, sin, cos)
    while True:
        m = vals.shape[1]
        rows, half = vals.sum(axis=1), vals[:, ::2].sum(axis=1)
        cur = h * (2.0 * np.pi / m) * float(w @ rows)
        err_psi = abs(cur - h * (4.0 * np.pi / m) * float(w @ half))
        err_t = abs(cur - 2.0 * h * (2.0 * np.pi / m) * float(w[::2] @ rows[::2]))
        l1 = h * (2.0 * np.pi / m) * float(w @ np.abs(vals).sum(axis=1))
        floor = 100.0 * np.finfo(float).eps * (l1 - abs(cur))
        accept = max(abs_tol, tol * abs(cur), floor)
        err = max(err_t, err_psi)
        if not math.isfinite(cur + err_t + err_psi):
            raise QuadratureError(f"sphere integrand not finite on the grid of {vals.size} nodes",
                                  best_estimate=cur, error_estimate=err)
        if err <= accept:
            return cur, err
        if vals.size > SPHERE_MAX_NODES:
            break
        if err_t > accept:
            h /= 2
            _, w, u, s = _t_level(h)
            vals = _interleave(vals, evaluate(u[1::2], s[1::2], sin, cos), 0)
        if err_psi > accept:
            sin, cos = _azimuths(2 * m)
            vals = _interleave(vals, evaluate(u, s, sin[1::2], cos[1::2]), 1)
    raise QuadratureError(
        f"sphere quadrature did not converge at {vals.size} nodes",
        best_estimate=cur, error_estimate=err,
    )


def neville_to_zero(xs: Sequence[float], ys: Sequence):
    """Polynomial extrapolation of (xs, ys) to x = 0.

    Returns (value, error_estimate) where the estimate is the change from the
    previous Neville column, computed in extended precision.
    """
    xs = [float(x) for x in xs]
    col = [np.longdouble(y) for y in ys]
    if len(xs) < 2:
        return float(col[0]), math.inf
    prev_apex = col[0]
    for k in range(1, len(xs)):
        col = [
            ((-xs[i + k]) * col[i] - (-xs[i]) * col[i + 1]) / (xs[i] - xs[i + k])
            for i in range(len(xs) - k)
        ]
        if k == len(xs) - 2:
            prev_apex = col[0]
    return float(col[0]), abs(float(prev_apex) - float(col[0]))


@dataclass(frozen=True)
class SeriesSumResult:
    value: float
    extrapolation_error_estimate: float


def _abel_weights(eta: float, stop: int) -> np.ndarray:
    """e^(-eta n), n = 1..stop, in extended precision from two short ladders:
    with n = q B + r and B = ABEL_BLOCK it is e^(-eta B q) e^(-eta r).  Both
    arguments are exact while q < 2^11 and the product rounds once, so each
    weight is within a few 80-bit ulp of e^(-eta n)."""
    eta = np.longdouble(eta)
    q = np.arange(stop // ABEL_BLOCK + 1, dtype=np.longdouble)
    r = np.arange(ABEL_BLOCK, dtype=np.longdouble)
    w = np.multiply.outer(np.exp(-(eta * ABEL_BLOCK) * q), np.exp(-eta * r))
    return w.ravel()[1:stop + 1]


def _abel_sums(terms: Callable) -> list:
    """sum_{n <= stop} a_n e^(-eta n) for each eta of ABEL_ETA_GRID, with the
    terms evaluated once, in extended precision, on the longest prefix."""
    # each eta sums a prefix of the terms, up to eta n = 3 ln(3 / eta) + 50: the
    # tail of a cubic-growth series beyond it is below the 80-bit roundoff of
    # the sum of |a_n| e^(-eta n)
    stops = [int((3.0 * math.log(max(4.0, 3.0 / eta)) + 50.0) / eta) + 10
             for eta in ABEL_ETA_GRID]
    n = np.arange(1, max(stops) + 1, dtype=np.longdouble)
    a = np.asarray(terms(n), dtype=np.longdouble)
    return [(a[:stop] * _abel_weights(eta, stop)).sum(dtype=np.longdouble)
            for eta, stop in zip(ABEL_ETA_GRID, stops)]


def abel_sum(terms: Callable) -> SeriesSumResult:
    """Abel-regularized value of sum_{n>=1} a_n for polynomially bounded a_n.

    ``terms`` maps an array of indices n to a_n.  abel_sum evaluates
    sum a_n e^(-eta n) on a decreasing eta grid and extrapolates eta -> 0; a
    convergent series gets its ordinary sum.  The terms are evaluated once,
    in extended precision; each eta weighs its prefix by _abel_weights:
    stop / ABEL_BLOCK + ABEL_BLOCK exps, not stop.  The n = 0 term of the
    target ladders vanishes identically and is omitted.  SeriesError when the
    extrapolation does not stabilize.
    """
    sums = _abel_sums(terms)
    value, err = neville_to_zero(ABEL_ETA_GRID, sums)
    if not math.isfinite(value) or err > 1e-4 * max(1.0, abs(value)):
        raise SeriesError(
            "Abel extrapolation did not stabilize",
            diagnostics={"etas": list(ABEL_ETA_GRID), "sums": [float(s) for s in sums],
                         "extrapolant": value, "error_estimate": err},
        )
    return SeriesSumResult(value, err)


def abel_plana_check(f: Callable) -> float:
    """Residual of the Abel-Plana identity for a decaying analytic f.

    Computes | sum_{n>=0} f(n) - [ int_0^inf f + f(0)/2
    + i int_0^inf (f(it) - f(-it)) / (e^(2 pi t) - 1) dt ] |.
    f must accept complex arguments; it is assumed real on the real axis.
    """
    total = 0.0
    n = 0
    while True:
        term = float(np.real(f(n)))
        total += term
        if n > 10 and abs(term) < 1e-17 * max(1.0, abs(total)):
            break
        if n > 100000:
            raise SeriesError("direct sum in abel_plana_check did not converge")
        n += 1

    int_real, _ = integrate_1d(lambda x: float(np.real(f(x))), 0.0, math.inf)

    def imag_part(t):
        if t == 0.0:
            return 0.0
        # i (f(it) - f(-it)) = -2 Im f(it) for f real-analytic
        g = -2.0 * float(np.imag(f(1j * t)))
        return g * math.exp(-2.0 * math.pi * t) / (1.0 - math.exp(-2.0 * math.pi * t))

    int_imag, _ = integrate_1d(imag_part, 0.0, math.inf)
    rhs = int_real + float(np.real(f(0))) / 2.0 + int_imag
    return abs(total - rhs)
