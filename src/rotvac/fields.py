"""Field projection into the comoving tetrad, the polarization basis shared
by the Monte Carlo mode grid, and the lab-frame kernel of two projection
rows: the one angular kernel that every electromagnetic CF integrates, by
quadrature or in closed form, on the continuous and the periodic spectrum.

A field is a plain 6-vector (E1, E2, E3, H1, H2, H3): projection_matrix maps
the lab one to the tetrad one at a proper time, from the orbit's own beta and
gamma; the CFs read their two rows as floats (_row_entries).  The
projection of one 6-vector and the basis of one direction (with its
Direction type), the printed rotated-frame brackets, and the other oracles
that check this module, live with the tests (tests/oracles.py).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .kinematics import RotationParams

__all__ = [
    "projection_matrix",
    "projection_rows",
    "polarization_grid",
]

POLE_TOL = 1e-8  # directions this close to +/- z use the (x, y) basis


def _projection_entries(params: RotationParams, tau: float):
    """The 36 entries of projection_matrix(params, tau), as six rows of six
    floats: the one implementation of the projection, which
    projection_matrix and the projection rows read."""
    b, g = params.beta, params.gamma
    a = params.alpha(tau)
    ca, sa = math.cos(a), math.sin(a)
    return ((g * ca, g * sa, 0.0, 0.0, 0.0, -b * g),
            (-sa, ca, 0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, g, b * g * ca, b * g * sa, 0.0),
            (0.0, 0.0, b * g, g * ca, g * sa, 0.0),
            (0.0, 0.0, 0.0, -sa, ca, 0.0),
            (-b * g * ca, -b * g * sa, 0.0, 0.0, 0.0, g))


def projection_matrix(params: RotationParams, tau: float) -> np.ndarray:
    """6x6 map from lab (E1,E2,E3,H1,H2,H3) to tetrad (E_(1..3), H_(1..3))
    at proper time tau, rows in the comoving-frame component order.
    ValueError unless the rotation phase params.alpha(tau) is finite."""
    return np.array(_projection_entries(params, tau))


def _row_entries(pair, kind: str, params: RotationParams, tau1: float, tau2: float):
    """projection_rows as two tuples of six floats, with its checks."""
    if kind not in ("EE", "HH", "EH"):
        raise ValueError(f"unknown kind {kind!r}")
    if len(pair) != 2 or not all(a in (1, 2, 3) for a in pair):
        raise ValueError(f"component indices must be 1..3, got {pair!r}")
    return tuple(_projection_entries(params, tau)[int(a) - 1 + (3 if field == "H" else 0)]
                 for field, a, tau in zip(kind, pair, (tau1, tau2)))


def projection_rows(pair, kind: str, params: RotationParams, tau1: float,
                    tau2: float) -> np.ndarray:
    """The two rows of projection_matrix that a two-point function of
    (kind, pair) contracts: tetrad component pair[0] of field kind[0] at
    tau1, and component pair[1] of field kind[1] at tau2.  Shape (2, 6);
    no 6x6 array is built.

    Raises ValueError unless kind is "EE", "HH" or "EH" and both components
    are 1, 2 or 3.
    """
    return np.array(_row_entries(pair, kind, params, tau1, tau2))


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


def _lab_kernel(row1, row2):
    """The function khat -> row1^T M(khat) row2 for khat of shape (..., 3),
    of shape khat.shape[:-1]; rows are 6-vectors (E, H), sequences of six
    floats.

    M is the lab-frame polarization-summed kernel: 1 - khat khat^T in the EE
    and HH blocks, <E_i H_j> ~ eps_{ijl} khat_l in the EH block and its
    negative transpose in the HE block.  The five projections of khat that
    it needs come from one matrix product with the columns e1, e2, h1, h2
    and e1 x h2 - h1 x e2, built from Python floats into a C-contiguous
    (3, 5) array, which costs less per CF value than building it from numpy
    scalars or transposing it.
    """
    e1, h1, e2, h2 = row1[:3], row1[3:], row2[:3], row2[3:]
    const = sum(map(operator.mul, row1, row2))
    # e1 x h2 - h1 x e2 by components: np.cross costs more per CF value
    eh = [e1[1] * h2[2] - e1[2] * h2[1] - (h1[1] * e2[2] - h1[2] * e2[1]),
          e1[2] * h2[0] - e1[0] * h2[2] - (h1[2] * e2[0] - h1[0] * e2[2]),
          e1[0] * h2[1] - e1[1] * h2[0] - (h1[0] * e2[1] - h1[1] * e2[0])]
    cols = np.array(list(zip(e1, e2, h1, h2, eh)))

    def kernel(khat):
        p = khat.reshape(-1, 3) @ cols
        return (const - p[:, 0] * p[:, 1] - p[:, 2] * p[:, 3] + p[:, 4]).reshape(khat.shape[:-1])
    return kernel
