"""Simulation and importance-weighted estimation for diffusions conditioned
on partial linear observations at multiple times.

The package simulates a guided process whose drift steers each coordinate
combination ``L_k y`` toward its observed value ``v_k`` over a window before
the observation time, then corrects the induced bias with explicit
path-by-path importance weights.  Linear models come with an exact Gaussian
reference used for validation and reporting.
"""
from .bridge import BatchPaths, simulate_batch, simulate_free_batch
from .config import (FunctionalSpec, GridSettings, RunConfig, config_digest,
                     parse_config)
from .errors import (BridgeSimError, DegenerateConditioningError,
                     DegenerateEnsembleError, EllipticityViolationError,
                     InvalidConfigurationError, InvalidObservationError,
                     UnstableRunError, error_kind)
from .estimator import (EstimateReport, MomentEstimate, WeightedEnsemble,
                        conditional_moments, coordinate_at, estimate,
                        run_ensemble)
from .models import (BuiltModel, brownian, build_model, double_well,
                     drifted_brownian, ou)
from .observations import Observation, ObservationSet, validate
from .oracle import (GaussianLaw, LinearModel, condition, joint_law,
                     observation_selector)
from .sde import ModelSpec, TimeGrid, build_grid
from .weights import batch_breakdown, normalize_log_weights

__version__ = "0.1.0"

__all__ = [
    "BatchPaths", "BridgeSimError", "BuiltModel",
    "DegenerateConditioningError", "DegenerateEnsembleError",
    "EllipticityViolationError", "EstimateReport", "FunctionalSpec",
    "GaussianLaw", "GridSettings", "InvalidConfigurationError",
    "InvalidObservationError", "LinearModel", "ModelSpec",
    "MomentEstimate", "Observation", "ObservationSet", "RunConfig",
    "TimeGrid", "UnstableRunError", "WeightedEnsemble", "batch_breakdown",
    "brownian", "build_grid", "build_model", "conditional_moments",
    "condition", "config_digest", "coordinate_at", "double_well",
    "drifted_brownian", "error_kind", "estimate", "joint_law",
    "normalize_log_weights", "observation_selector", "ou", "parse_config",
    "run_ensemble", "simulate_batch", "simulate_free_batch", "validate",
]
