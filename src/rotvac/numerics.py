"""Shared numerical engines: adaptive 1-D quadrature, product sphere
quadrature, Abel-regularized summation of divergent oscillatory series, and an
Abel-Plana identity checker.

The 1-D integrator wraps QUADPACK (scipy.integrate.quad).  The sphere rule is
a Gauss-Legendre x periodic-trapezoid product, refined by doubling until two
successive levels agree; integrands must accept broadcastable (theta, phi)
arrays.  Abel summation evaluates sum a_n e^(-eta n) on a geometric eta grid
in extended precision and extrapolates eta -> 0 with a Neville table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "SeriesError",
    "SeriesSumResult",
    "integrate_1d",
    "integrate_sphere",
    "abel_sum",
    "abel_plana_check",
    "neville_to_zero",
    "sphere_nodes",
]

# default eta grid 0.1 * 2^-j; j > 6 is roundoff-dominated for cubic-growth
# oscillatory terms even in 80-bit floats
ABEL_ETA_GRID = tuple(0.1 * 2.0**-j for j in range(7))


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


DEFAULT_SPEC = QuadratureSpec()


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


def integrate_1d(f: Callable[[float], float], a: float, b: float,
                 spec: QuadratureSpec = DEFAULT_SPEC):
    """Adaptive integral of f over [a, b] (b may be inf).

    Returns (value, error_estimate); raises QuadratureError with the best
    estimate attached when the subdivision budget is exhausted or QUADPACK
    reports non-convergence beyond the requested tolerances.
    """
    value, err, info, *tail = quad(
        f, a, b,
        epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=spec.max_subdivisions, full_output=True,
    )
    if tail:  # non-empty means a warning message was produced
        tol = max(spec.abs_tol, spec.rel_tol * abs(value))
        if err > 10.0 * tol:
            raise QuadratureError(tail[0], best_estimate=value, error_estimate=err)
    return value, err


def sphere_nodes(n_theta: int, n_phi: int):
    """Gauss-Legendre x periodic-trapezoid product grid on the sphere.

    Returns (theta, phi) node arrays of shape (n_theta, n_phi), the
    Gauss-Legendre weights in cos(theta) (the sin(theta) of the area element
    is absorbed) and the uniform azimuthal weight.
    """
    x, wx = leggauss(n_theta)
    theta = np.arccos(x)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    return th, ph, wx, 2.0 * np.pi / n_phi


def _sphere_level(f, n_theta: int, n_phi: int):
    th, ph, wx, wphi = sphere_nodes(n_theta, n_phi)
    vals = np.broadcast_to(np.asarray(f(th, ph), dtype=float), th.shape)
    total = float(np.einsum("i,ij->", wx, vals) * wphi)
    l1 = float(np.einsum("i,ij->", wx, np.abs(vals)) * wphi)
    return total, l1


def integrate_sphere(f, spec: QuadratureSpec = DEFAULT_SPEC, n_start: int = 24):
    """Integral of f(theta, phi) sin(theta) dtheta dphi over the full sphere.

    f must accept broadcastable arrays.  The product rule is refined by
    doubling both directions until two successive levels agree to spec
    tolerances; for cancelling integrands the achievable floor is the
    roundoff of the absolute mass, which caps the demanded accuracy.
    """
    n = n_start
    prev, _ = _sphere_level(f, n, 2 * n)
    for _ in range(8):
        n *= 2
        cur, l1 = _sphere_level(f, n, 2 * n)
        err = abs(cur - prev)
        floor = 100.0 * np.finfo(float).eps * l1
        if err <= max(spec.abs_tol, spec.rel_tol * abs(cur), floor):
            return cur, err
        if n * (2 * n) > 64 * spec.max_subdivisions:
            break
        prev = cur
    raise QuadratureError(
        f"sphere quadrature did not converge at {n} x {2*n} nodes",
        best_estimate=cur, error_estimate=abs(cur - prev),
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
    regularization: str  # "direct" | "abel"
    extrapolation_error_estimate: float


def _converges_directly(terms, probe: int = 4096, tol: float = 1e-14):
    n = np.arange(1, probe + 1, dtype=float)
    t = np.asarray(terms(n), dtype=float)
    total = float(np.sum(t))
    tail = float(np.sum(np.abs(t[probe // 2:])))
    return tail <= tol * max(1.0, abs(total)), total, tail


def _abel_eta_sum(terms, eta: float) -> np.longdouble:
    eta_l = np.longdouble(eta)
    n_peak = max(4.0, 3.0 / eta)
    n_stop = int((3.0 * math.log(n_peak) + 80.0) / eta) + 10
    n = np.arange(1, n_stop + 1, dtype=np.longdouble)
    t = np.asarray(terms(n), dtype=np.longdouble) * np.exp(-eta_l * n)
    return t.sum(dtype=np.longdouble)


def abel_sum(terms: Callable, eta_grid: Optional[Sequence[float]] = None,
             mode: str = "auto") -> SeriesSumResult:
    """Regularized value of sum_{n>=1} a_n for polynomially bounded a_n.

    ``terms`` maps an array of indices n to a_n.  In "direct" mode the series
    must converge absolutely; "abel" evaluates sum a_n e^(-eta n) on a
    decreasing eta grid and extrapolates eta -> 0.  "auto" tries direct first.
    The n = 0 term of the target ladders vanishes identically and is omitted.
    """
    if mode not in ("auto", "direct", "abel"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode in ("auto", "direct"):
        ok, total, tail = _converges_directly(terms)
        if ok:
            return SeriesSumResult(total, "direct", tail)
        if mode == "direct":
            raise SeriesError(
                "series did not pass the convergence check; use abel mode",
                diagnostics={"partial_sum": total, "tail": tail},
            )
    etas = list(eta_grid) if eta_grid is not None else list(ABEL_ETA_GRID)
    if sorted(etas, reverse=True) != etas:
        etas = sorted(etas, reverse=True)
    sums = [_abel_eta_sum(terms, eta) for eta in etas]
    value, err = neville_to_zero(etas, sums)
    if not math.isfinite(value) or err > 1e-4 * max(1.0, abs(value)):
        raise SeriesError(
            "Abel extrapolation did not stabilize",
            diagnostics={"etas": etas, "sums": [float(s) for s in sums],
                         "extrapolant": value, "error_estimate": err},
        )
    return SeriesSumResult(value, "abel", err)


def abel_plana_check(f: Callable, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
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

    int_real, _ = integrate_1d(lambda x: float(np.real(f(x))), 0.0, math.inf, spec)

    def imag_part(t):
        if t == 0.0:
            return 0.0
        # i (f(it) - f(-it)) = -2 Im f(it) for f real-analytic
        g = -2.0 * float(np.imag(f(1j * t)))
        return g * math.exp(-2.0 * math.pi * t) / (1.0 - math.exp(-2.0 * math.pi * t))

    int_imag, _ = integrate_1d(imag_part, 0.0, math.inf, spec)
    rhs = int_real + float(np.real(f(0))) / 2.0 + int_imag
    return abs(total - rhs)
