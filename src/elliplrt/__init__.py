"""elliplrt: elliptical-model regression with higher-order-adjusted LR tests.

Fits the general multivariate elliptical regression model (per-observation
mean and scatter indexed by a common parameter vector, errors normal,
Student-t or power exponential) by maximum likelihood, and computes the
standard and adjusted test statistics r, r*, LR, LR* and LR** together
with a seeded Monte Carlo harness for null-rejection-rate studies.
"""

from .ancillary import (
    AncillaryBundle,
    SampleSpaceDerivs,
    build_ancillary,
    cholesky_derivative,
    cholesky_lower,
    doubletilde_info,
    sample_space_gradients,
)
from .families import EllipticalFamily, SingularWeightError
from .inference import (
    FitError,
    FitResult,
    Hypothesis,
    HypothesisError,
    StageError,
    TestReport,
    adjusted_statistics,
    adjustment_factors,
    fit,
    lr_and_r,
    p_values,
    run_test,
)
from .likelihood import ScoreInfo, loglik, score_info
from .model import (
    MODELS,
    Dataset,
    ModelEval,
    ModelSpec,
    NonSPDError,
    Observation,
    evaluate,
    mixed_model2,
    model1_dataset,
    model1_design,
    model2_dataset,
    model2_design,
    nonlinear_model1,
    read_dataset_csv,
    write_dataset_csv,
)
from .montecarlo import (
    SimulationConfig,
    SimulationError,
    SimulationSummary,
    pvalue_discrepancy,
    run_simulation,
    simulate_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "MODELS",
    "AncillaryBundle",
    "Dataset",
    "EllipticalFamily",
    "FitError",
    "FitResult",
    "Hypothesis",
    "HypothesisError",
    "ModelEval",
    "ModelSpec",
    "NonSPDError",
    "Observation",
    "SampleSpaceDerivs",
    "ScoreInfo",
    "SimulationConfig",
    "SimulationError",
    "SimulationSummary",
    "SingularWeightError",
    "StageError",
    "TestReport",
    "adjusted_statistics",
    "adjustment_factors",
    "build_ancillary",
    "cholesky_derivative",
    "cholesky_lower",
    "doubletilde_info",
    "evaluate",
    "fit",
    "loglik",
    "lr_and_r",
    "mixed_model2",
    "model1_dataset",
    "model1_design",
    "model2_dataset",
    "model2_design",
    "nonlinear_model1",
    "p_values",
    "pvalue_discrepancy",
    "read_dataset_csv",
    "run_simulation",
    "run_test",
    "sample_space_gradients",
    "score_info",
    "simulate_dataset",
    "write_dataset_csv",
]
