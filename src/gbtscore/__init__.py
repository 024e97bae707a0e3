"""Score inference from paired comparisons.

Exponential tilting of a symmetric comparison law turns score differences
into comparison distributions; this package fits the reverse map with a
certified strongly convex solver and ships the diagnostics (monotonicity,
bounded influence of single edits, neutral comparisons) that make the
estimator auditable.
"""

__version__ = "0.1.0"

from .comparisons import (AlternativeSet, ComparisonEdit, ComparisonMatrix,
                          EditKind, read_comparisons_csv, read_scores_csv,
                          write_comparisons_csv, write_scores_csv)
from .diagnostics import (MonotoneStepResult, ResilienceProbe,
                          ResilienceProbeConfig, check_monotone_step,
                          measure_resilience, monotonicity_sweep,
                          neutral_comparison, resilience_bound,
                          write_probe_csv)
from .errors import (EditError, GbtError, InputError, MismatchError,
                     ParameterError, SolverError, SupportError)
from .rootlaws import Family, RootLaw, parse_model_spec
from .sim import (ExperimentConfig, ExperimentResult, SweepPoint,
                  default_alternatives, erdos_renyi_graph, norm_error,
                  restrict_matrix, run_experiment_discretization,
                  run_experiment_regularization, run_experiment_sparsity,
                  sample_ground_truth, synthesize_comparisons)
from .solver import (PriorConfig, ScoreVector, SolveReport, SolverOptions,
                     connected_components, gradient, hessian, loss,
                     map_estimate, map_estimate_gaussian)

__all__ = [
    "__version__",
    "AlternativeSet", "ComparisonEdit", "ComparisonMatrix", "EditKind",
    "read_comparisons_csv", "read_scores_csv", "write_comparisons_csv",
    "write_scores_csv",
    "MonotoneStepResult", "ResilienceProbe", "ResilienceProbeConfig",
    "check_monotone_step", "measure_resilience", "monotonicity_sweep",
    "neutral_comparison", "resilience_bound", "write_probe_csv",
    "EditError", "GbtError", "InputError", "MismatchError", "ParameterError",
    "SolverError", "SupportError",
    "Family", "RootLaw", "parse_model_spec",
    "ExperimentConfig", "ExperimentResult", "SweepPoint",
    "default_alternatives", "erdos_renyi_graph", "norm_error",
    "restrict_matrix", "run_experiment_discretization",
    "run_experiment_regularization", "run_experiment_sparsity",
    "sample_ground_truth", "synthesize_comparisons",
    "PriorConfig", "ScoreVector", "SolveReport", "SolverOptions",
    "connected_components", "gradient", "hessian", "loss", "map_estimate",
    "map_estimate_gaussian",
]
