"""Circular-worldline kinematics and orthonormal tetrads.

Conventions: 4-vector slots are (x, y, z, ct) with metric diag(1, 1, 1, -1).
The worldline is a circle of radius ``r`` traversed with angular velocity
``omega`` in the lab frame; proper time tau relates to lab time by t = gamma
tau, and the rotation phase seen along the worldline is alpha = omega gamma
tau.  RotationParams computes beta and gamma once, when it is built.

Two comoving tetrads are provided, each a (4, 4) array whose rows are the
legs mu1..mu4 on those slots.  The Frenet-Serret frame keeps the
detector's 3-acceleration constant (pointing along the inward radial leg);
the Fermi-Walker frame is transported without spatial rotation, so the
acceleration direction precesses in it at the rate omega gamma^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import SI, Constants

__all__ = [
    "LuminalOrbitError",
    "RotationParams",
    "METRIC",
    "orthonormality_residual",
    "lab_position",
    "frenet_serret_tetrad",
    "fermi_walker_tetrad",
]

# g_ik = diag(1, 1, 1, -1) on (x, y, z, ct) slots
METRIC = np.diag([1.0, 1.0, 1.0, -1.0])

# reject orbits with beta >= 1 - BETA_GUARD (gamma overflow control)
BETA_GUARD = 1e-12


class LuminalOrbitError(ValueError):
    """Orbit would move at or beyond the speed of light."""


@dataclass(frozen=True)
class RotationParams:
    """Angular velocity (rad/s) and orbit radius (m), plus the unit system;
    beta = omega radius / c and gamma are computed once, at construction."""

    omega: float
    radius: float
    constants: Constants = SI
    beta: float = field(init=False, repr=False)
    gamma: float = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("omega", "radius"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)!r}")
        beta = self.omega * self.radius / self.constants.c
        if beta >= 1.0 - BETA_GUARD:
            raise LuminalOrbitError(
                f"orbital speed beta = omega radius / c = {beta!r} too close to 1"
            )
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta)))

    @classmethod
    def from_beta(cls, omega: float, beta: float, constants: Constants = SI):
        """Build from (omega, beta); radius follows as beta c / omega."""
        if not 0 < omega < math.inf:
            raise ValueError(f"from_beta requires a finite omega > 0, got {omega!r}")
        if not 0 <= beta < math.inf:
            raise ValueError(f"beta must be finite and non-negative, got {beta!r}")
        radius = beta * constants.c / omega
        if radius == math.inf:
            raise ValueError(f"radius = beta c / omega overflows at omega {omega!r}, beta {beta!r}")
        return cls(omega=omega, radius=radius, constants=constants)

    def alpha(self, tau: float) -> float:
        """Rotation phase omega gamma tau at proper time tau; ValueError
        unless it is finite."""
        a = self.omega * self.gamma * tau
        if not math.isfinite(a):
            raise ValueError(f"rotation phase omega gamma tau at tau = {tau!r} is {a!r}")
        return a


def orthonormality_residual(legs: np.ndarray) -> float:
    """Largest entry of |legs METRIC legs^T - METRIC| for a (4, 4) leg matrix."""
    return float(np.max(np.abs(legs @ METRIC @ legs.T - METRIC)))


def lab_position(params: RotationParams, tau: float):
    """Lab (t, x, y, z) of the detector at proper time tau."""
    a = params.alpha(tau)
    return (
        params.gamma * tau,
        params.radius * math.cos(a),
        params.radius * math.sin(a),
        0.0,
    )


def frenet_serret_tetrad(params: RotationParams, tau: float) -> np.ndarray:
    """Comoving frame whose first leg tracks the (inward) acceleration
    direction: a (4, 4) array whose rows are the legs mu1..mu4."""
    b, g = params.beta, params.gamma
    a = params.alpha(tau)
    ca, sa = math.cos(a), math.sin(a)
    return np.array([
        [ca, sa, 0.0, 0.0],
        [-g * sa, g * ca, 0.0, b * g],
        [0.0, 0.0, 1.0, 0.0],
        [-b * g * sa, b * g * ca, 0.0, g],
    ])


def fermi_walker_tetrad(params: RotationParams, tau: float) -> np.ndarray:
    """Non-rotating comoving frame (real-metric components), as a (4, 4)
    array of legs like frenet_serret_tetrad.

    Relative to the Frenet-Serret legs the spatial pair (mu1, mu2) is rotated
    back by the angle gamma * alpha, which makes the frame obey Fermi-Walker
    transport; verified against the transport equation in the test suite.
    """
    b, g = params.beta, params.gamma
    a = params.alpha(tau)
    ag = g * a
    ca, sa = math.cos(a), math.sin(a)
    cg, sg = math.cos(ag), math.sin(ag)
    return np.array([
        [ca * cg + g * sa * sg, sa * cg - g * ca * sg, 0.0, -b * g * sg],
        [ca * sg - g * sa * cg, sa * sg + g * ca * cg, 0.0, b * g * cg],
        [0.0, 0.0, 1.0, 0.0],
        [-b * g * sa, b * g * ca, 0.0, g],
    ])
