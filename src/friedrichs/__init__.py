"""Thresholds and bound states of rank-one perturbed dispersion models on T^3."""

from .critical import CriticalPointInfo, find_maximizer
from .errors import (
    BelowThresholdError,
    BracketingError,
    ConfigError,
    DegenerateMaximumError,
    ExpansionFitError,
    FriedrichsError,
    InvalidDispersionError,
    InvalidInputError,
    ModelValidityError,
    NewtonConvergenceError,
    NonUniqueMaximumError,
    QuadratureError,
    QuadratureNotConvergedError,
    TrivialFormFactorError,
    UnsupportedFamilyError,
)
from .models import (
    DispersionModel,
    ModelConfig,
    two_particle_model,
)
from .oracle import (
    ConvergenceReport,
    OracleResult,
    convergence_report,
    dense_spectrum,
    discrete_omega,
    richardson_omega_threshold,
    secular_root,
)
from .quadrature import (
    OmegaEvaluator,
    OmegaValue,
    QuadratureSpec,
    state_norm_diagnostics,
)
from .solver import (
    Classification,
    ClassificationResult,
    EigenfunctionEval,
    ExpansionFit,
    SpectralReport,
    analyze,
    classify_threshold,
    coupling_threshold,
    eigenfunction,
    eigenvalue_error_estimate,
    expansion_fit,
    fredholm_det,
    solve_eigenvalue,
    tau0_closed_form,
)
from .torus import torus_distance

__version__ = "0.1.0"

__all__ = [
    "BelowThresholdError", "BracketingError", "Classification",
    "ClassificationResult", "ConfigError", "ConvergenceReport",
    "CriticalPointInfo", "DegenerateMaximumError", "DispersionModel",
    "EigenfunctionEval", "ExpansionFit", "ExpansionFitError",
    "FriedrichsError", "InvalidDispersionError", "InvalidInputError",
    "ModelConfig", "ModelValidityError", "NewtonConvergenceError",
    "NonUniqueMaximumError", "OmegaEvaluator", "OmegaValue", "OracleResult",
    "QuadratureError", "QuadratureNotConvergedError", "QuadratureSpec",
    "SpectralReport", "TrivialFormFactorError", "UnsupportedFamilyError",
    "analyze", "classify_threshold", "convergence_report",
    "coupling_threshold", "dense_spectrum", "discrete_omega", "eigenfunction",
    "eigenvalue_error_estimate", "expansion_fit", "find_maximizer",
    "fredholm_det", "richardson_omega_threshold", "secular_root",
    "solve_eigenvalue", "state_norm_diagnostics", "tau0_closed_form",
    "torus_distance", "two_particle_model", "__version__",
]
