"""Field projection into the comoving tetrad, the polarization basis shared
by the Monte Carlo mode grid, and the diagonal angular brackets: the bracket
quadrature of the continuous CFs and the angular weight kernel of the
periodic CF evaluate the same table.

The projection of one triplet and the basis of one direction (with their
Direction and FrameError types), and the oracles that check this module,
live with the tests (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .kinematics import RotationParams

__all__ = [
    "FieldTriplet",
    "projection_matrix",
    "projection_rows",
    "polarization_grid",
    "diag_bracket",
    "angular_weight_kernel_grid",
]

POLE_TOL = 1e-8  # directions this close to +/- z use the (x, y) basis


@dataclass(frozen=True)
class FieldTriplet:
    """Electric and magnetic 3-vectors tagged with their frame."""

    E: np.ndarray
    H: np.ndarray
    frame: str  # "lab" | "tetrad"
    tau: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "E", np.asarray(self.E, dtype=float))
        object.__setattr__(self, "H", np.asarray(self.H, dtype=float))
        if self.E.shape != (3,) or self.H.shape != (3,):
            raise ValueError("E and H must be 3-vectors")
        if not (np.all(np.isfinite(self.E)) and np.all(np.isfinite(self.H))):
            raise ValueError("field components must be finite")


def projection_matrix(alpha: float, beta: float) -> np.ndarray:
    """6x6 map from lab (E1,E2,E3,H1,H2,H3) to tetrad (E_(1..3), H_(1..3)).

    Row layout follows the comoving-frame component order; alpha is the
    rotation phase of the tetrad, beta the orbital speed.  ValueError unless
    alpha is finite and 0 <= beta < 1.
    """
    if not (math.isfinite(alpha) and 0.0 <= beta < 1.0):
        raise ValueError(f"need a finite alpha and 0 <= beta < 1, got {alpha!r}, {beta!r}")
    g = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    ca, sa = math.cos(alpha), math.sin(alpha)
    m = np.zeros((6, 6))
    m[0, 0], m[0, 1], m[0, 5] = g * ca, g * sa, -beta * g
    m[1, 0], m[1, 1] = -sa, ca
    m[2, 2], m[2, 3], m[2, 4] = g, beta * g * ca, beta * g * sa
    m[3, 3], m[3, 4], m[3, 2] = g * ca, g * sa, beta * g
    m[4, 3], m[4, 4] = -sa, ca
    m[5, 5], m[5, 0], m[5, 1] = g, -beta * g * ca, -beta * g * sa
    return m


def projection_rows(pair, kind: str, params: RotationParams, tau1: float,
                    tau2: float) -> np.ndarray:
    """The two rows of projection_matrix that a two-point function of
    (kind, pair) contracts: tetrad component pair[0] of field kind[0] at
    tau1, and component pair[1] of field kind[1] at tau2.  Shape (2, 6).

    Raises ValueError unless kind is "EE", "HH" or "EH" and both components
    are 1, 2 or 3.
    """
    if kind not in ("EE", "HH", "EH"):
        raise ValueError(f"unknown kind {kind!r}")
    if len(pair) != 2 or not all(a in (1, 2, 3) for a in pair):
        raise ValueError(f"component indices must be 1..3, got {pair!r}")
    return np.array([
        projection_matrix(params.alpha(tau), params.beta)[int(a) - 1 + (3 if field == "H" else 0)]
        for field, a, tau in zip(kind, pair, (tau1, tau2))])


def polarization_grid(khat):
    """Two unit polarization vectors orthogonal to each row of khat (M, 3).

    Near the poles (within POLE_TOL of +/- z) the basis is pinned to (x, y);
    only the lambda-summed completeness relation enters the physics, so no
    continuity requirement exists.
    """
    zhat = np.array([0.0, 0.0, 1.0])
    e1 = np.cross(np.broadcast_to(zhat, khat.shape), khat)
    norms = np.linalg.norm(e1, axis=1)
    polar = norms < POLE_TOL
    e1[polar] = [1.0, 0.0, 0.0]
    e1[~polar] /= norms[~polar, None]
    e2 = np.cross(khat, e1)
    e2 /= np.linalg.norm(e2, axis=1)[:, None]
    return e1, e2


def diag_bracket(pair: Tuple[int, int], params: RotationParams, delta: float, kx, ky):
    """Angular bracket c0 + cy ky + cxx kx^2 + cyy ky^2 of the diagonal pair
    (a, a) at the unit-vector components (kx, ky); vectorized in them.

    It is the polarization-summed kernel of the tetrad components a at lags
    0 and delta, seen in the frame rotated by delta/2 about z.  delta is the
    angular lag omega gamma (tau2 - tau1); ValueError unless it is finite.
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
    """Angular weight multiplying the spectral ladder in the periodic CF at the
    unit-vector components (kx, ky), vectorized in them: 3 / (8 pi) times the
    (1, 1) bracket.

    delta is the dimensionless lab-angle separation omega gamma (tau2 - tau1).
    Normalized so the beta = 0, delta = 0 kernel integrates to 1 over the
    sphere.
    """
    return (3.0 / (8.0 * math.pi)) * diag_bracket((1, 1), params, delta, kx, ky)

