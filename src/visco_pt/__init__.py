"""Incremental minimization time stepping for a finite-strain
Poynting-Thomson solid, its small-strain (linearized) companion, and a
verification harness for the energetic structure of the scheme."""

__version__ = "0.1.0"

from .errors import (
    ConfigParseError,
    InfeasibleState,
    NonFiniteObjective,
    SolverNotConverged,
    StepRejected,
    ValidationError,
    ViscoPTError,
)
from .rheology import MATERIAL_POINT, SHEAR_COLUMN, MaterialModel
from .domain import (
    Loading,
    ShearColumnMesh,
    State,
    TimeGrid,
    dissipation_increment,
    elastic_strain,
    energy_value,
    total_energy,
)
from .stepper import (
    PhiTau,
    Trajectory,
    equilibrate_elastic,
    phi_tau,
    run_evolution,
)
from .linearized import linear_column, rescale_displacements, rescaled_energies
from .analysis import (
    VerificationReport,
    check_energy_inequality,
    check_monotonicity,
    density_convergence,
    eps_sweep,
    epsilon_study,
    semistability_sweep,
    tau_convergence,
    tau_sweep,
    viscous_flow,
)
from .config import ScenarioConfig, load_config, parse_config

__all__ = [
    "MATERIAL_POINT",
    "SHEAR_COLUMN",
    "ConfigParseError",
    "InfeasibleState",
    "Loading",
    "MaterialModel",
    "NonFiniteObjective",
    "PhiTau",
    "ScenarioConfig",
    "ShearColumnMesh",
    "SolverNotConverged",
    "State",
    "StepRejected",
    "TimeGrid",
    "Trajectory",
    "ValidationError",
    "VerificationReport",
    "ViscoPTError",
    "check_energy_inequality",
    "check_monotonicity",
    "density_convergence",
    "dissipation_increment",
    "elastic_strain",
    "energy_value",
    "eps_sweep",
    "epsilon_study",
    "equilibrate_elastic",
    "linear_column",
    "load_config",
    "parse_config",
    "phi_tau",
    "rescale_displacements",
    "rescaled_energies",
    "run_evolution",
    "semistability_sweep",
    "tau_convergence",
    "tau_sweep",
    "total_energy",
    "viscous_flow",
]
