"""Prediction-as-prior repeats analysis.

Observed responses are replayed one at a time in random order, updating the
Dirichlet posterior after every draw and measuring how far its mode still
is from the crowd's empirical soft label.  Running the replay once from the
uniform prior and once from a machine-informed prior, on identical draw
orders, quantifies how many human labels the prediction is worth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .bayes import point_estimates
from .core import DirichletParams, InputError, TaskRecord, task_rng, write_csv

_REPEATS_STREAM = "repeats"


def check_blend(blend: float) -> None:
    """Refuse a blend weight outside [0, 1], NaN included."""
    if not 0.0 <= blend <= 1.0:
        raise InputError(f"blend must lie in [0, 1], got {blend}")


def blend_prior(prediction_at_n0: DirichletParams, blend: float = 1.0 / 3.0) -> DirichletParams:
    """Mix the uniform prior with predicted parameters at n=0.

    The default keeps a 2:1 uniform-to-prediction ratio; the parameter sum
    is preserved whenever the prediction sums to the number of categories.
    """
    check_blend(blend)
    return DirichletParams((1.0 - blend) + blend * prediction_at_n0.alpha)


def repeats_run(task: TaskRecord, prior: DirichletParams, permutations: int,
                rng: np.random.Generator) -> np.ndarray:
    """Mean distance-to-empirical after each incremental draw.

    Each permutation replays all observed responses of the task in a random
    order without replacement; the result averages the per-step distances
    over the permutations.
    """
    n = task.n_responses
    if n == 0:
        raise ValueError(f"task {task.task_id} has no responses to replay")
    if permutations < 1:
        raise InputError("permutations must be at least 1")
    k = len(prior)
    answers = np.asarray(task.responses)
    if (answers < 0).any() or (answers >= k).any():
        raise ValueError(f"task {task.task_id} has answers outside the prior's categories")
    empirical = np.bincount(answers, minlength=k) / n

    orders = np.array([rng.permutation(n) for _ in range(permutations)])
    steps = np.zeros((permutations, n + 1, k))
    steps[:, 0] = prior.alpha
    steps[np.arange(permutations)[:, None], np.arange(1, n + 1), answers[orders]] = 1.0
    modes = point_estimates(np.cumsum(steps, axis=1)[:, 1:])
    denom = np.maximum(empirical, 1.0 - empirical)
    distances = np.max(np.abs(modes - empirical) / denom, axis=-1)
    # cumsum adds the permutations in draw order; sum(axis=0) may add them
    # pairwise, which moves the last ULP away from a one-draw-at-a-time replay
    return np.cumsum(distances, axis=0)[-1] / permutations


@dataclass(frozen=True)
class StepQuantiles:
    step: int
    q025: float
    q25: float
    median: float
    q75: float
    q975: float
    n_tasks: int


@dataclass(frozen=True)
class RepeatsSummary:
    variant: str
    steps: List[StepQuantiles]


def repeats_summary(
    tasks: Sequence[TaskRecord],
    prior_provider: Callable[[TaskRecord], DirichletParams],
    max_repeats: Optional[int] = None,
    permutations: int = 16,
    seed: int = 0,
    variant: str = "uniform",
) -> RepeatsSummary:
    """Per-step distance quantiles across tasks.

    Each task replays from its own named random stream derived from (seed,
    task_id) only, so two summaries with different priors but the same seed
    see identical draw orders and are directly paired.  Tasks without
    responses are skipped.
    """
    if max_repeats is not None and max_repeats < 1:
        raise InputError(f"max_repeats must be at least 1, got {max_repeats}")
    per_task: List[np.ndarray] = []
    for task in tasks:
        if task.n_responses == 0:
            continue
        rng = task_rng(seed, f"{_REPEATS_STREAM}:{task.task_id}")
        per_task.append(repeats_run(task, prior_provider(task), permutations, rng))
    if not per_task:
        raise ValueError("no tasks with responses")

    limit = max(len(d) for d in per_task)
    if max_repeats is not None:
        limit = min(limit, max_repeats)
    steps = []
    for s in range(1, limit + 1):
        vals = np.array([d[s - 1] for d in per_task if len(d) >= s])
        q = np.quantile(vals, (0.025, 0.25, 0.5, 0.75, 0.975))
        steps.append(StepQuantiles(s, *(float(x) for x in q), int(vals.size)))
    return RepeatsSummary(variant=variant, steps=steps)


def uniform_provider(k: int) -> Callable[[TaskRecord], DirichletParams]:
    prior = DirichletParams(np.ones(k))
    return lambda task: prior


def write_repeats_csv(path, summaries: Sequence[RepeatsSummary],
                      provenance: Optional[dict] = None) -> None:
    rows = (
        [summary.variant, s.step, s.q025, s.q25, s.median, s.q75, s.q975, s.n_tasks]
        for summary in summaries
        for s in summary.steps
    )
    write_csv(path, ["variant", "step", "q025", "q25", "median", "q75", "q975", "n_tasks"],
              rows, provenance)
