"""Circular-worldline kinematics and orthonormal tetrads.

Conventions: 4-vector slots are (x, y, z, ct) with metric diag(1, 1, 1, -1).
The worldline is a circle of radius ``r`` traversed with angular velocity
``omega`` in the lab frame; proper time tau relates to lab time by t = gamma
tau, and the rotation phase seen along the worldline is alpha = omega gamma
tau.

Two comoving tetrads are provided.  The Frenet-Serret frame keeps the
detector's 3-acceleration constant (pointing along the inward radial leg);
the Fermi-Walker frame is transported without spatial rotation, so the
acceleration direction precesses in it at the rate omega gamma^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SI, Constants

__all__ = [
    "LuminalOrbitError",
    "RotationParams",
    "FourVector",
    "Tetrad",
    "METRIC",
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
    """Angular velocity (rad/s) and orbit radius (m), plus the unit system."""

    omega: float
    radius: float
    constants: Constants = SI

    def __post_init__(self):
        for name in ("omega", "radius"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)!r}")
        if self.beta >= 1.0 - BETA_GUARD:
            raise LuminalOrbitError(
                f"orbital speed beta = omega radius / c = {self.beta!r} too close to 1"
            )

    @property
    def beta(self) -> float:
        return self.omega * self.radius / self.constants.c

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt((1.0 - self.beta) * (1.0 + self.beta))

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


@dataclass(frozen=True)
class FourVector:
    x: float
    y: float
    z: float
    t: float  # ct slot

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.t])

    def dot(self, other: "FourVector") -> float:
        """Minkowski inner product with diag(1, 1, 1, -1)."""
        return self.x * other.x + self.y * other.y + self.z * other.z - self.t * other.t


@dataclass(frozen=True)
class Tetrad:
    """Four orthonormal legs mu1..mu4 attached at proper time tau."""

    mu1: FourVector
    mu2: FourVector
    mu3: FourVector
    mu4: FourVector
    tau: float
    kind: str  # "frenet-serret" | "fermi-walker"

    def matrix(self) -> np.ndarray:
        """Rows are the tetrad legs as 4-arrays."""
        return np.array([m.as_array() for m in (self.mu1, self.mu2, self.mu3, self.mu4)])

    def orthonormality_residual(self) -> float:
        m = self.matrix()
        return float(np.max(np.abs(m @ METRIC @ m.T - METRIC)))


def lab_position(params: RotationParams, tau: float):
    """Lab (t, x, y, z) of the detector at proper time tau."""
    a = params.alpha(tau)
    return (
        params.gamma * tau,
        params.radius * math.cos(a),
        params.radius * math.sin(a),
        0.0,
    )


def frenet_serret_tetrad(params: RotationParams, tau: float) -> Tetrad:
    """Comoving frame whose first leg tracks the (inward) acceleration direction."""
    b, g = params.beta, params.gamma
    a = params.alpha(tau)
    ca, sa = math.cos(a), math.sin(a)
    return Tetrad(
        mu1=FourVector(ca, sa, 0.0, 0.0),
        mu2=FourVector(-g * sa, g * ca, 0.0, b * g),
        mu3=FourVector(0.0, 0.0, 1.0, 0.0),
        mu4=FourVector(-b * g * sa, b * g * ca, 0.0, g),
        tau=tau,
        kind="frenet-serret",
    )


def fermi_walker_tetrad(params: RotationParams, tau: float) -> Tetrad:
    """Non-rotating comoving frame (real-metric components).

    Relative to the Frenet-Serret legs the spatial pair (mu1, mu2) is rotated
    back by the angle gamma * alpha, which makes the frame obey Fermi-Walker
    transport; verified against the transport equation in the test suite.
    """
    b, g = params.beta, params.gamma
    a = params.alpha(tau)
    ag = g * a
    ca, sa = math.cos(a), math.sin(a)
    cg, sg = math.cos(ag), math.sin(ag)
    return Tetrad(
        mu1=FourVector(ca * cg + g * sa * sg, sa * cg - g * ca * sg, 0.0, -b * g * sg),
        mu2=FourVector(ca * sg - g * sa * cg, sa * sg + g * ca * cg, 0.0, b * g * cg),
        mu3=FourVector(0.0, 0.0, 1.0, 0.0),
        mu4=FourVector(-b * g * sa, b * g * ca, 0.0, g),
        tau=tau,
        kind="fermi-walker",
    )

