"""Truth inference and annotation automation for crowd-labeled tasks.

Crowd responses over C answer categories plus "can't solve" are aggregated
into Dirichlet posteriors; a lightweight prediction head maps task features
to the same parameter space; confidence thresholds calibrated by bootstrap
decide which tasks are safe to auto-annotate and which go back to the crowd,
optionally seeded with the model's prediction as prior.
"""

__version__ = "0.1.0"

from .bayes import (
    marginal_conditional,
    marginal_solvability,
    posterior,
    posterior_mean,
    posterior_mode,
    uniform_prior,
)
from .core import (
    CategoryScheme,
    DirichletParams,
    InputError,
    SoftLabel,
    empirical_soft_label,
    split_dataset,
    tally,
    task_rng,
)
from .head import (
    HeadModel,
    TrainConfig,
    chernoff,
    chernoff_grad,
    head_forward,
    load_model,
    save_model,
    train_head,
)
from .metrics import (
    AmbiguityConfig,
    ambiguity,
    confidence,
    cross_entropy,
    evaluate,
    geometric_median,
    hard_weights,
    soft_distance,
    soft_weight,
)
from .priors import blend_prior, repeats_run, repeats_summary
from .sim import SimConfig, simulate_dataset

__all__ = [
    "__version__",
    "AmbiguityConfig",
    "CategoryScheme",
    "DirichletParams",
    "HeadModel",
    "InputError",
    "SimConfig",
    "SoftLabel",
    "TrainConfig",
    "ambiguity",
    "blend_prior",
    "chernoff",
    "chernoff_grad",
    "confidence",
    "cross_entropy",
    "empirical_soft_label",
    "evaluate",
    "geometric_median",
    "hard_weights",
    "head_forward",
    "load_model",
    "marginal_conditional",
    "marginal_solvability",
    "posterior",
    "posterior_mean",
    "posterior_mode",
    "repeats_run",
    "repeats_summary",
    "save_model",
    "simulate_dataset",
    "soft_distance",
    "soft_weight",
    "split_dataset",
    "tally",
    "task_rng",
    "train_head",
    "uniform_prior",
]
