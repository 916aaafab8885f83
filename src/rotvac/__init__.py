"""rotvac: numerics for rotation through classical zero-point radiation.

Tetrad kinematics on a circular worldline, field-frame correlation functions
for continuous and harmonic-ladder spectra, zero-point/thermal splitting via
the Abel-Plana identity, rotating-frame energy densities and the vacuum force
curve, with a random-phase Monte Carlo field simulator as an independent
oracle.
"""

__version__ = "0.1.0"

from .constants import NATURAL, SI, Constants
from .kinematics import (LuminalOrbitError, RotationParams, fermi_walker_tetrad,
                         frenet_serret_tetrad, lab_position, orthonormality_residual)
from .numerics import (QuadratureError, SeriesSumResult, abel_plana_check, abel_sum,
                       integrate_1d, integrate_sphere)
from .cf_continuous import (CFValue, CoincidenceError, em_cf_continuous,
                            em_cf_tensor_quadrature, phi_kernel_integral,
                            scalar_cf_continuous, scalar_cf_quadrature,
                            sin_power_integral)
from .cf_discrete import (ResonanceError, ThermalSplit, cubic_ladder_split,
                          cubic_ladder_sum_closed, em_cf_discrete,
                          linear_ladder_split, linear_ladder_sum_closed,
                          rotation_temperature, scalar_cf_discrete)
from .thermo import (CasimirResult, ForcePoint, HadronEstimate, ThermoReport,
                     casimir_force, em_energy_density, hadron_estimates,
                     scalar_bath_thermal_density, scalar_energy_density,
                     vacuum_force_density)
from .montecarlo import (ModeSet, build_mode_set, draw_phases, empirical_cf,
                         empirical_cfs, empirical_energy_density, eval_lab_fields)
