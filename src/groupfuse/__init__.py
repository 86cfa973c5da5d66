"""Fused and adaptive fused group regression with change detection.

Estimates grouped linear models under a penalty on successive coefficient
block differences, for both the least-squares and the quantile check loss,
and reports which successive groups genuinely differ.
"""

__version__ = "0.1.0"

from .model import (DimensionMismatchError, FitResult, GroupedCoefficients,
                    GroupedDesign, ProblemSpec, objective)
from .losses import check_value, prox_check
from .penalties import adaptive_weights
from .solver import (DiffOperator, SolverConfig, SolverError,
                     default_schedules, fit)
from .detection import (DetectionReport, detect_differences, mad_metric,
                        med_metric, score_detection, segments_from_detected)
from .simulation import (McReport, ScenarioSpec, generate_instance,
                         load_scenario_grid, run_monte_carlo)

__all__ = [
    "DimensionMismatchError", "FitResult", "GroupedCoefficients",
    "GroupedDesign", "ProblemSpec", "objective",
    "check_value", "prox_check", "adaptive_weights",
    "DiffOperator", "SolverConfig", "SolverError", "default_schedules",
    "fit",
    "DetectionReport", "detect_differences", "mad_metric", "med_metric",
    "score_detection", "segments_from_detected",
    "McReport", "ScenarioSpec", "generate_instance", "load_scenario_grid",
    "run_monte_carlo",
]
