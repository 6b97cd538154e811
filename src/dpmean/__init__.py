"""Person-level differentially private mean estimation for heavy-tailed
(bounded k-th moment) distributions, with a tail-bound verification lab."""

from .core import (
    ClipBall,
    ConfigurationError,
    EstimateReport,
    EstimationFailedError,
    ParameterError,
    PersonDataset,
    PersonMeans,
    PrivacyBudget,
    ProblemParams,
    SyntheticSpec,
    derive_rng,
    derive_seed,
)
from .est1d import estimate_mean_1d
from .esthd_approx import clip_and_noise, estimate_single_round, estimate_two_round
from .esthd_pure import estimate_pure_full, fine_est_pure

__version__ = "0.1.0"

__all__ = [
    "ClipBall",
    "ConfigurationError",
    "EstimateReport",
    "EstimationFailedError",
    "ParameterError",
    "PersonDataset",
    "PersonMeans",
    "PrivacyBudget",
    "ProblemParams",
    "SyntheticSpec",
    "derive_rng",
    "derive_seed",
    "estimate_mean_1d",
    "clip_and_noise",
    "estimate_single_round",
    "estimate_two_round",
    "estimate_pure_full",
    "fine_est_pure",
    "__version__",
]
