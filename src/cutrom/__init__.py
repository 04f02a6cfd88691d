"""Reduced order modeling on cut meshes with certified a posteriori estimators.

Subpackages follow the processing chain: ``geometry`` (background mesh, level
set, cut quadrature), ``assembly`` (stiffness / load / norm / mass), ``fom``
(full-order solves), ``pod`` and ``deim`` (basis construction and operator
interpolation), ``rom`` (offline blocks and the online solve), ``estimators``,
``rates`` (decay-model fits) and ``pipeline`` (orchestration, reports, and the
invariant suite).  ``cutrom.cli`` is the command-line front door.
"""

from .assembly import (
    AssemblyError,
    EntryPlan,
    PhysicsParams,
    SystemPair,
    assemble_mass_matrix,
    assemble_norm_matrix,
    assemble_system,
    evaluate_entries,
)
from .config import Config, ConfigError, load_config, parse_config
from .deim import (
    DeimError,
    DeimOperator,
    UnionPattern,
    build_deim_operator,
    build_union_pattern,
    deim_coefficients,
    reconstruct,
)
from .estimators import EstimatorRecord
from .fom import FomError, FomSolution, residual, solve_fom
from .geometry import (
    BackgroundMesh,
    CutGeometry,
    GeometryError,
    ParameterPoint,
    build_background_mesh,
    build_cut_geometry,
    level_set,
)
from .pod import PodBasis, PodError, SnapshotSet, build_pod_basis, tail_energy
from .rates import FitResult, fit_algebraic, fit_exponential, select_model
from .rom import RomError, RomOffline, RomSolution, build_rom_offline, rom_online_solve

__version__ = "0.1.0"

__all__ = [
    "AssemblyError", "BackgroundMesh", "Config", "ConfigError", "CutGeometry",
    "DeimError", "DeimOperator", "EntryPlan", "EstimatorRecord", "FitResult", "FomError",
    "FomSolution", "GeometryError", "ParameterPoint", "PhysicsParams",
    "PodBasis", "PodError", "RomError", "RomOffline", "RomSolution",
    "SnapshotSet", "SystemPair", "UnionPattern",
    "assemble_mass_matrix", "assemble_norm_matrix", "assemble_system",
    "build_background_mesh", "build_cut_geometry", "build_deim_operator",
    "build_pod_basis", "build_rom_offline", "build_union_pattern",
    "deim_coefficients", "evaluate_entries", "fit_algebraic",
    "fit_exponential", "level_set", "load_config", "parse_config",
    "reconstruct", "residual", "rom_online_solve", "select_model",
    "solve_fom", "tail_energy",
]
