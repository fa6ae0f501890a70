"""Exact rotational self-similar reference solutions of the compressible
Euler equations: construction, integration of the scale-factor dynamics,
finite-difference residual verification, lifespan classification, and
deterministic export for validating external CFD codes.

The names from ``fields`` and ``verify``, the modules that need numpy, are
imported on first access, so that importing the package loads no numpy."""

import importlib

from .classify import (BLOWUP, GLOBAL, OPEN_CASE, Classification,
                       PeriodEstimate, check_no_period_3d, classify_3d,
                       classify_cell, detect_period_2d, probe_open_case,
                       search_period_2d)
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .emden import (EmdenState2D, EmdenState3D, RunStats, Termination, Trajectory,
                    advance, emden_rhs_2d, emden_rhs_3d, energy_2d, energy_3d,
                    integrate)
from .profiles import (DensityProfile, NonSmoothCutoffWarning, PhysParams,
                       similarity_eta, similarity_s)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PhysParams", "DensityProfile", "NonSmoothCutoffWarning",
    "similarity_s", "similarity_eta",
    "EmdenState3D", "EmdenState2D", "Termination", "Trajectory", "RunStats",
    "emden_rhs_3d", "emden_rhs_2d", "energy_3d", "energy_2d",
    "integrate", "advance",
    "Field3D", "Field2D", "FieldSample", "GeneralMassFamily",
    "SnapshotFieldSource", "TrajectoryFieldSource", "GeneralFamilySource",
    "ResidualReport", "MassBudget", "RegularityReport",
    "mass_residual", "euler_residual", "navier_stokes_residual",
    "refined_residual", "total_mass", "cutoff_regularity_check",
    "GLOBAL", "BLOWUP", "OPEN_CASE", "Classification", "PeriodEstimate",
    "classify_3d", "classify_cell", "probe_open_case", "detect_period_2d",
    "search_period_2d",
    "check_no_period_3d",
    "RunConfig", "ConfigError", "parse_config", "serialize_config",
]

# name -> the submodule that defines it, imported by __getattr__ (PEP 562)
_LAZY = {
    **dict.fromkeys(("Field2D", "Field3D", "FieldSample", "GeneralMassFamily"), "fields"),
    **dict.fromkeys(("GeneralFamilySource", "MassBudget", "RegularityReport",
                     "ResidualReport", "SnapshotFieldSource", "TrajectoryFieldSource",
                     "cutoff_regularity_check", "euler_residual", "mass_residual",
                     "navier_stokes_residual", "refined_residual", "total_mass"), "verify"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
