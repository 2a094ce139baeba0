"""Numerical verification harness for a coupled electro-elastic thin plate.

The package evaluates the rescaled 3D energies of a prestrained dielectric
slab, the effective 2D bending model obtained by relaxation, the lifted
trial states connecting the two, and desk-scale certificates for the
limit statements tying them together.
"""

from .bending2d import E0, F0, M0, CylindricalIsometry, check_virial, saddle_iterate_2d, solve_potential2
from .elastic3d import F_eps, M_eps, apriori_report, flat_deformation, grad_M_eps, grad_y_F_eps
from .electro3d import E_eps, assemble_poisson3, check_pg0, solve_potential3
from .fields import Grid2, Grid3
from .harness import ConfigError, RunConfig, check_conditions, cli_main, saddle_probe, solve3d_alternating
from .material import (
    ChargeModel,
    CouplingConstants,
    ElasticParams,
    HyperParams,
    Material,
    PermittivityModel,
    PrestrainModel,
)
from .recovery import RecoveryInputs, lift_deformation, mollify_field, optimal_corrector, recovery_sweep
from .relaxation import RelaxedQ2, effective_permittivity, m_out_of_plane, relax_over_z

__version__ = "0.1.0"

__all__ = [
    "Grid2",
    "Grid3",
    "Material",
    "ElasticParams",
    "HyperParams",
    "PrestrainModel",
    "PermittivityModel",
    "ChargeModel",
    "CouplingConstants",
    "relax_over_z",
    "RelaxedQ2",
    "effective_permittivity",
    "m_out_of_plane",
    "assemble_poisson3",
    "solve_potential3",
    "E_eps",
    "check_pg0",
    "flat_deformation",
    "M_eps",
    "grad_M_eps",
    "F_eps",
    "grad_y_F_eps",
    "apriori_report",
    "CylindricalIsometry",
    "M0",
    "solve_potential2",
    "E0",
    "F0",
    "saddle_iterate_2d",
    "check_virial",
    "RecoveryInputs",
    "optimal_corrector",
    "lift_deformation",
    "mollify_field",
    "recovery_sweep",
    "ConfigError",
    "RunConfig",
    "check_conditions",
    "saddle_probe",
    "solve3d_alternating",
    "cli_main",
]
