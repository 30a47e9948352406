"""Synthetic crowd generator.

Tasks carry a latent answer distribution drawn from a Dirichlet prior;
annotators respond i.i.d. from it, features are a fixed noisy linear map
of its log, and a synthetic predictor with a noise knob stands in for a
trained head to exercise the downstream pipeline without training.  The
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
    SIMPLEX_ATOL,
    CategoryScheme,
    DirichletParams,
    InputError,
    TaskTable,
    brief,
    check_size,
    check_soft_labels,
    task_rng,
    task_rngs,
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
        if not 0 <= self.feature_noise < math.inf:
            raise InputError(f"feature_noise must be non-negative and finite, "
                             f"got {self.feature_noise}")
        if self.alpha0 is not None:
            object.__setattr__(self, "alpha0", tuple(float(a) for a in self.alpha0))
            if len(self.alpha0) != self.num_proper + 1:
                raise InputError("alpha0 must have num_proper + 1 components")
            if not all(0 < a < math.inf for a in self.alpha0):
                raise InputError(f"alpha0 components must be positive and finite, "
                                 f"got {brief.repr(self.alpha0)}")

    @property
    def num_categories(self) -> int:
        return self.num_proper + 1


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
    the config and its index.  For a symmetric alpha0 whose component is at
    least 0.1 (the default 0.5 included) the latent label is K gamma draws of
    that one shape, normalized after the loop as numpy's ``dirichlet``
    normalizes them; any other alpha0 draws it with ``rng.dirichlet``.  Both
    give the bits of ``rng.dirichlet(alpha0)``, which tests/test_sim.py pins
    on both branches.  Features and answers are then computed for
    all tasks at once, with the arithmetic the per-task draws implied: a
    task's answers are what ``rng.choice(K, size=repeats, p=q)`` makes of its
    uniforms.  A latent draw that is not a soft label (a huge alpha0) and
    non-finite features (a huge feature_noise) raise InputError naming the
    first such task.
    """
    alpha = np.array(config.alpha0 or (0.5,) * config.num_categories)
    # dirichlet normalizes gammas unless every component is below 0.1; one
    # scalar shape draws the same gammas at a fraction of dirichlet's cost
    shape = alpha[0] if (alpha == alpha[0]).all() and alpha[0] >= 0.1 else None
    fmap = feature_map(config)
    n, d = config.num_tasks, config.feature_dim
    noisy = config.feature_noise > 0
    ids = [f"t{i:06d}" for i in range(n)]
    q = np.empty((n, config.num_categories))
    noise = np.empty((n, d))
    u = np.empty((n, config.repeats))
    for i, rng in enumerate(task_rngs(config.seed, ids)):
        if shape is None:
            q[i] = rng.dirichlet(alpha)
        else:
            rng.standard_gamma(shape, out=q[i])
        if noisy:
            rng.standard_normal(out=noise[i])
        rng.random(out=u[i])
    if shape is not None:
        _normalize_gammas(q)
    soft = abs(q.sum(axis=1) - 1.0) <= SIMPLEX_ATOL   # draws are non-negative
    if not soft.all():   # a huge alpha0 overflows them to zeros or NaN
        i = soft.argmin()
        raise InputError(f"the latent label drawn for task {brief.repr(ids[i])} from alpha0 "
                         f"{brief.repr(tuple(alpha.tolist()))} is not a soft label: {q[i]}")
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


def _normalize_gammas(g: np.ndarray) -> None:
    """Scale each row of gamma draws to sum 1 in place, as numpy's
    ``Generator.dirichlet`` scales them: a running sum from column 0, its
    reciprocal, one product per entry.  A huge alpha0 overflows rows to zeros
    or NaN, which the caller's soft-label check refuses."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        acc = g[:, 0].copy()
        for column in g.T[1:]:
            acc += column
        g *= (1.0 / acc)[:, None]


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


def synthetic_predictor(q, n: int, rng: np.random.Generator,
                        noise: float = 0.0) -> DirichletParams:
    """Stand-in for a trained head on a task with latent soft label ``q``:
    softmax of the log answer distribution plus ``noise`` times standard
    normal draws from ``rng``, scaled so the components sum to alpha0_sum + n.

    Noise 0 recovers the latent distribution itself and draws nothing;
    raising it degrades fidelity.
    """
    if not 0 <= noise < math.inf:
        raise InputError(f"noise must be non-negative and finite, got {noise}")
    q = check_soft_labels(q)
    if q.ndim != 1:
        raise InputError(f"q must be one soft label, got shape {q.shape}")
    if not 0 <= n < math.inf:
        raise InputError(f"response count n must be non-negative and finite, got {n}")
    k = len(q)
    logits = np.log(q + _LOG_FLOOR)
    if noise > 0:
        logits = logits + noise * rng.standard_normal(k)
    alpha0_sum = float(k)
    return DirichletParams((alpha0_sum + n) * softmax(logits))
