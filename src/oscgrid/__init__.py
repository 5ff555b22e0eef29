"""oscgrid: mean oscillation, level-set and rearrangement analysis on weighted grids.

The package models a nonnegative function and an absolutely continuous
measure on the unit cube by per-cell values and masses on a regular grid,
then measures and verifies the quantitative relationships between the
Gurov-Reshetnyak oscillation condition, Muckenhoupt A-infinity level-set
certificates, and reverse Holder integrability, with every constant either
computed from explicit formulas or measured from the data.
"""

__version__ = "0.1.0"

from .ainfty import (
    LevelParams,
    MarginReport,
    ainfty_to_gr_bound,
    alpha_profile,
    epsilon_and_profile,
    gr_to_ainfty_params,
    level_fraction,
    roundtrip_epsilon,
    verify_ainfty_to_gr,
    verify_gr_to_ainfty,
)
from .covering import CellSet, CoveringResult, build_covering, cell_set, overlap_constant
from .errors import ConfigurationError, DataValidationError, DomainError, PreconditionError
from .generators import GenSpec, generate, measured_epsilon
from .grids import (
    Cube,
    EnumerationMode,
    Grid,
    WeightedGrid,
    cube_mass,
    default_mode,
    enumerate_cubes,
    validate,
)
from .holder import (
    TailBoundParams,
    TailBoundReport,
    TailCheck,
    optimize_rh_exponent,
    rearrangement_bound,
    rh_constant,
    rh_exponent_bound,
    verify_rearrangement_bound,
)
from .oscillation import GRResult, OscStats, gr_epsilon, mean, oscillation
from .rearrangement import StepFunction, average, evaluate, rearrangement
from .wgrid_io import file_digest, load_wgrid, save_wgrid

__all__ = [
    "__version__",
    "Grid", "WeightedGrid", "Cube", "EnumerationMode",
    "validate", "enumerate_cubes", "cube_mass", "default_mode",
    "OscStats", "GRResult", "mean", "oscillation", "gr_epsilon",
    "LevelParams", "MarginReport", "level_fraction", "alpha_profile", "epsilon_and_profile",
    "gr_to_ainfty_params", "ainfty_to_gr_bound", "roundtrip_epsilon",
    "verify_gr_to_ainfty", "verify_ainfty_to_gr",
    "StepFunction", "rearrangement", "evaluate", "average",
    "CellSet", "CoveringResult", "cell_set", "build_covering", "overlap_constant",
    "TailBoundParams", "TailBoundReport", "TailCheck",
    "rearrangement_bound", "rh_exponent_bound", "optimize_rh_exponent",
    "verify_rearrangement_bound", "rh_constant",
    "GenSpec", "generate", "measured_epsilon",
    "load_wgrid", "save_wgrid", "file_digest",
    "ConfigurationError", "DataValidationError", "DomainError", "PreconditionError",
]
