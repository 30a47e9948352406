"""Synthetic crowd generator.

Tasks carry a latent answer distribution drawn from a Dirichlet prior;
annotators respond i.i.d. from it, features are a fixed noisy linear map
of its log, and a controllable synthetic predictor exposes the accuracy
knobs needed to exercise the downstream pipeline without training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import (
    CategoryScheme,
    DirichletParams,
    InputError,
    SoftLabel,
    TaskRecord,
    task_rng,
)
from .head import softmax

_FEATURE_MAP_KEY = "__feature_map__"
_LOG_FLOOR = 1e-6


@dataclass(frozen=True)
class SimConfig:
    num_tasks: int = 1000
    num_proper: int = 2              # proper categories; "can't solve" is added on top
    repeats: int = 20                # responses per task
    alpha0: Optional[Tuple[float, ...]] = None   # None: 0.5 per category (sparse crowd)
    feature_dim: int = 8
    feature_noise: float = 0.1
    predictor_temperature: float = 1.0
    predictor_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_tasks < 1:
            raise InputError("num_tasks must be at least 1")
        if self.num_proper < 1:
            raise InputError("need at least one proper category")
        if self.repeats < 0:
            raise InputError("repeats must be non-negative")
        if self.feature_dim < 1:
            raise InputError("feature_dim must be at least 1")
        for name, scale in (("feature_noise", self.feature_noise),
                            ("predictor_noise", self.predictor_noise)):
            if not 0 <= scale < math.inf:
                raise InputError(f"{name} must be non-negative and finite, got {scale}")
        if not 0 < self.predictor_temperature < math.inf:
            raise InputError(f"predictor_temperature must be positive and finite, "
                             f"got {self.predictor_temperature}")
        if self.alpha0 is not None:
            object.__setattr__(self, "alpha0", tuple(float(a) for a in self.alpha0))
            if len(self.alpha0) != self.num_proper + 1:
                raise InputError("alpha0 must have num_proper + 1 components")
            if any(a <= 0 for a in self.alpha0):
                raise InputError("alpha0 components must be positive")

    @property
    def num_categories(self) -> int:
        return self.num_proper + 1

    def generation_prior(self) -> DirichletParams:
        if self.alpha0 is None:
            return DirichletParams(np.full(self.num_categories, 0.5))
        return DirichletParams(np.array(self.alpha0))


def scheme_for(config: SimConfig) -> CategoryScheme:
    return CategoryScheme(tuple(f"c{i}" for i in range(config.num_proper)))


def feature_map(config: SimConfig) -> np.ndarray:
    """Fixed seed-derived linear map from log answer distributions to features."""
    rng = task_rng(config.seed, _FEATURE_MAP_KEY)
    return rng.standard_normal((config.feature_dim, config.num_categories))


def gen_features(task: TaskRecord, config: SimConfig, rng: np.random.Generator,
                 fmap: Optional[np.ndarray] = None) -> np.ndarray:
    if task.true_q is None:
        raise ValueError(f"task {task.task_id} lacks a latent answer distribution")
    if fmap is None:
        fmap = feature_map(config)
    x = fmap @ np.log(task.true_q.q + _LOG_FLOOR)
    if config.feature_noise > 0:
        x = x + config.feature_noise * rng.standard_normal(config.feature_dim)
    return x


def gen_responses(task: TaskRecord, repeats: int, rng: np.random.Generator) -> np.ndarray:
    """``repeats`` answers drawn i.i.d. from the task's latent distribution,
    as category indices."""
    if task.true_q is None:
        raise ValueError(f"task {task.task_id} lacks a latent answer distribution")
    if repeats < 0:
        raise ValueError("repeats must be non-negative")
    return rng.choice(len(task.true_q.q), size=repeats, p=task.true_q.q)


def _task_stream(config: SimConfig, index: int) -> Tuple[str, np.random.Generator]:
    tid = f"t{index:06d}"
    return tid, task_rng(config.seed, tid)


def _gen_task(config: SimConfig, index: int, prior: DirichletParams,
              fmap: np.ndarray) -> Tuple[TaskRecord, np.random.Generator]:
    """Draw one task from its own named stream: latent label, then features.

    Returns the still-open stream so callers can continue it for responses.
    """
    tid, rng = _task_stream(config, index)
    q = SoftLabel(rng.dirichlet(prior.alpha))
    task = TaskRecord(tid, None, q)
    task.features = gen_features(task, config, rng, fmap)
    return task, rng


def gen_tasks(config: SimConfig) -> List[TaskRecord]:
    """Tasks with latent labels and features, no responses yet."""
    prior = config.generation_prior()
    fmap = feature_map(config)
    return [_gen_task(config, i, prior, fmap)[0] for i in range(config.num_tasks)]


def simulate_dataset(config: SimConfig) -> Tuple[CategoryScheme, List[TaskRecord]]:
    """Generate the full synthetic dataset.

    Per-task streams draw the latent label, features, then responses, so the
    output is a pure function of the config regardless of generation order.
    """
    prior = config.generation_prior()
    fmap = feature_map(config)
    tasks: List[TaskRecord] = []
    for i in range(config.num_tasks):
        task, rng = _gen_task(config, i, prior, fmap)
        task.responses = gen_responses(task, config.repeats, rng)
        tasks.append(task)
    return scheme_for(config), tasks


def synthetic_predictor(task: TaskRecord, n: int, config: SimConfig,
                        rng: np.random.Generator) -> DirichletParams:
    """Stand-in for a trained head: softmax of the perturbed, tempered log
    answer distribution, scaled so the components sum to alpha0_sum + n.

    Temperature 1 and noise 0 recover the latent distribution itself;
    raising either degrades fidelity.
    """
    if task.true_q is None:
        raise ValueError(f"task {task.task_id} lacks a latent answer distribution")
    if n < 0:
        raise ValueError("response count n must be non-negative")
    k = len(task.true_q.q)
    logits = np.log(task.true_q.q + _LOG_FLOOR) / config.predictor_temperature
    if config.predictor_noise > 0:
        logits = logits + config.predictor_noise * rng.standard_normal(k)
    alpha0_sum = float(k)
    return DirichletParams((alpha0_sum + n) * softmax(logits))
