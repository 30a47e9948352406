"""Synthetic crowd generator.

Tasks carry a latent answer distribution drawn from a Dirichlet prior;
annotators respond i.i.d. from it, features are a fixed noisy linear map
of its log, and a controllable synthetic predictor exposes the accuracy
knobs needed to exercise the downstream pipeline without training.  The
dataset comes back as arrays: a TaskTable of ids, features and latent soft
labels, and a matrix of answers, one row per task, which write_tasks and
write_responses write as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (
    CategoryScheme,
    DirichletParams,
    InputError,
    TaskTable,
    brief,
    check_size,
    check_soft_labels,
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
        per_task = self.repeats + self.feature_dim + 2 * self.num_categories
        check_size("num_tasks", self.num_tasks, per_task,
                   "tasks of answers, features and two rows of K")
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


def simulate_dataset(config: SimConfig) -> Tuple[CategoryScheme, TaskTable, np.ndarray]:
    """The scheme, the tasks as columns (ids, features, latent soft labels)
    and an (N, repeats) int64 matrix of answers as category indices.

    Each task's own named stream draws its latent label, its feature noise,
    then the uniforms of its responses, so a task's row is a pure function of
    the config and its index.  Features and answers are then computed for
    all tasks at once, with the arithmetic the per-task draws implied: a
    task's answers are what ``rng.choice(K, size=repeats, p=q)`` makes of its
    uniforms.  Non-finite features (a huge feature_noise) raise InputError
    naming the first such task.
    """
    alpha = config.generation_prior().alpha
    fmap = feature_map(config)
    n, d = config.num_tasks, config.feature_dim
    noisy = config.feature_noise > 0
    ids = [f"t{i:06d}" for i in range(n)]
    q = np.empty((n, config.num_categories))
    noise = np.empty((n, d))
    u = np.empty((n, config.repeats))
    for i, tid in enumerate(ids):
        rng = task_rng(config.seed, tid)
        q[i] = rng.dirichlet(alpha)
        if noisy:
            rng.standard_normal(out=noise[i])
        rng.random(out=u[i])
    check_soft_labels(q)
    with np.errstate(over="ignore", invalid="ignore"):   # overflow is refused below
        # one product per task, stacked: it rounds as the per-task fmap @ log_q[i]
        # (bit for bit in every shape tried; tests/test_sim.py pins it), where
        # log_q @ fmap.T differs on most rows
        x = np.matmul(fmap, np.log(q + _LOG_FLOOR)[:, :, None])[:, :, 0]
        if noisy:
            x += config.feature_noise * noise
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise InputError(f"non-finite feature values in task {brief.repr(ids[bad.argmax()])}")
    present = np.ones(n, dtype=bool)
    return scheme_for(config), TaskTable(ids, x, present, q, present.copy()), _answers(q, u)


def _answers(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The category each uniform of row i of ``u`` picks from ``q[i]``, as
    numpy's ``choice`` picks it: the number of entries of the row's
    normalized cumulative sum at or below the uniform.  One pass per
    category keeps the memory at one answer matrix."""
    cdf = q.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    answers = np.zeros(u.shape, dtype=np.int64)
    for column in cdf.T[:-1]:   # the last is 1, above every uniform
        answers += column[:, None] <= u
    return answers


def synthetic_predictor(q, n: int, config: SimConfig,
                        rng: np.random.Generator) -> DirichletParams:
    """Stand-in for a trained head on a task with latent soft label ``q``:
    softmax of the perturbed, tempered log answer distribution, scaled so the
    components sum to alpha0_sum + n.

    Temperature 1 and noise 0 recover the latent distribution itself;
    raising either degrades fidelity.
    """
    q = check_soft_labels(q)
    if q.ndim != 1:
        raise InputError(f"q must be one soft label, got shape {q.shape}")
    if n < 0:
        raise ValueError("response count n must be non-negative")
    k = len(q)
    logits = np.log(q + _LOG_FLOOR) / config.predictor_temperature
    if config.predictor_noise > 0:
        logits = logits + config.predictor_noise * rng.standard_normal(k)
    alpha0_sum = float(k)
    return DirichletParams((alpha0_sum + n) * softmax(logits))
