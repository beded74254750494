"""Backward-Euler mixed FEM for degenerate parabolic saddle problems."""

from .mesh import TriMesh, structured_mesh
from .spaces import FeSpace, build_space, interpolate
from .assembly import (Coefficients, OperatorSet, assemble_stokes,
                       assemble_eddy2d, assemble_load)
from .saddle import estimate_infsup, estimate_garding, kernel_basis
from .timestep import TimeGrid, TimeSeriesSolution, run
from .problems import ManufacturedCase, stokes_case, eddy2d_case
from .analysis import ErrorNorms, compute_errors, fit_rates
from .config import ExperimentConfig, load_config, parse_config
from .runner import run_experiment

__version__ = "0.1.0"

__all__ = [
    "TriMesh", "structured_mesh",
    "FeSpace", "build_space", "interpolate",
    "Coefficients", "OperatorSet", "assemble_stokes", "assemble_eddy2d",
    "assemble_load",
    "estimate_infsup", "estimate_garding", "kernel_basis",
    "TimeGrid", "TimeSeriesSolution", "run",
    "ManufacturedCase", "stokes_case", "eddy2d_case",
    "ErrorNorms", "compute_errors", "fit_rates",
    "ExperimentConfig", "load_config", "parse_config", "run_experiment",
]
