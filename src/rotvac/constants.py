"""Physical constants and unit systems.

All physics code takes a ``Constants`` instance so the same formulas run in
SI (CODATA 2018) or in natural units (hbar = c = k_B = 1).  The
Stefan-Boltzmann constant is always derived from (hbar, c, k_B) so that
closed-form blackbody identities hold to machine precision, and the
GeV/fermi force unit is derived from the elementary charge e of the same set,
so a non-CODATA set (for example rounded textbook values) is applied
consistently throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Constants",
    "SI",
    "NATURAL",
    "ROUNDED",
]


@dataclass(frozen=True)
class Constants:
    hbar: float  # J s
    c: float     # m / s
    k_B: float   # J / K
    e: float     # C, elementary charge; 1 eV = e J

    @property
    def sigma(self) -> float:
        """Stefan-Boltzmann constant, pi^2 k_B^4 / (60 hbar^3 c^2)."""
        return math.pi**2 * self.k_B**4 / (60.0 * self.hbar**3 * self.c**2)

    @property
    def gev_per_fermi(self) -> float:
        """1 GeV / fermi in force units, e * 1e9 / 1e-15.

        Meaningful for SI-dimensioned sets, where energies are in J and
        lengths in m.
        """
        return self.e * 1e9 * 1e15

    def label(self) -> str:
        return "natural" if self.c == 1.0 and self.hbar == 1.0 else "SI"


# CODATA 2018: h, c, k_B, e are exact; hbar derived.
SI = Constants(hbar=6.62607015e-34 / (2.0 * math.pi), c=299792458.0, k_B=1.380649e-23,
               e=1.602176634e-19)

# Natural units carry no electronvolt scale; e = 1 only completes the set.
NATURAL = Constants(hbar=1.0, c=1.0, k_B=1.0, e=1.0)

# Rounded textbook values.  The hadron-scale reference numbers quoted with the
# paper (-0.44 GeV/fermi, 3.4e11 K) follow from the hadron formulas with this
# set and not with CODATA; the set is inferred from those two numbers, since
# the source states no constants.
ROUNDED = Constants(hbar=1.0e-34, c=3.0e8, k_B=1.38e-23, e=1.6e-19)

