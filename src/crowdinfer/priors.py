"""Prediction-as-prior repeats analysis.

Observed responses are replayed one at a time in random order, updating the
Dirichlet posterior after every draw and measuring how far its mode still
is from the crowd's empirical soft label.  Running the replay once from the
uniform prior and once from a machine-informed prior, on identical draw
orders, quantifies how many human labels the prediction is worth.  Tasks
come as arrays: answers as category indices, and one prior row per task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .bayes import point_estimates
from .core import DirichletParams, InputError, check_size, positive_finite, task_rng, write_csv

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


def repeats_run(answers, prior_alpha, permutations: int,
                rng: np.random.Generator) -> np.ndarray:
    """Mean distance-to-empirical after each incremental draw.

    ``answers`` are one task's observed responses as category indices and
    ``prior_alpha`` its (K,) prior concentrations.  Each permutation replays
    all answers in a random order without replacement; the result averages
    the per-step distances over the permutations.
    """
    answers = np.asarray(answers)
    n = answers.size
    if n == 0:
        raise ValueError("no responses to replay")
    if permutations < 1:
        raise InputError("permutations must be at least 1")
    alpha = np.asarray(prior_alpha, dtype=float)
    if alpha.ndim != 1 or not positive_finite(alpha):
        raise InputError(f"prior must be a vector of positive finite numbers, got {alpha}")
    k = alpha.size
    if (answers.ndim != 1 or answers.dtype.kind not in "iu"
            or not 0 <= answers.min() <= answers.max() < k):
        raise ValueError(f"answers must be a vector of indices of the prior's {k} categories")
    empirical = np.bincount(answers, minlength=k) / n

    orders = np.array([rng.permutation(n) for _ in range(permutations)])
    steps = np.zeros((permutations, n + 1, k))
    steps[:, 0] = alpha
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
    task_ids: Sequence[str],
    answers: Sequence[np.ndarray],
    priors: np.ndarray,
    max_repeats: Optional[int] = None,
    permutations: int = 16,
    seed: int = 0,
    variant: str = "uniform",
) -> RepeatsSummary:
    """Per-step distance quantiles across tasks.

    ``answers`` and ``priors`` (an (M, K) matrix) hold one answer array and
    one prior row per task id.  Each task replays from its own named random stream derived from (seed,
    task_id) only, so two summaries with different priors but the same seed
    see identical draw orders and are directly paired.  Tasks without
    responses are skipped.
    """
    if max_repeats is not None and max_repeats < 1:
        raise InputError(f"max_repeats must be at least 1, got {max_repeats}")
    if not len(task_ids) == len(answers) == len(priors):
        raise InputError(f"{len(task_ids)} task ids, {len(answers)} answer arrays and "
                         f"{len(priors)} prior rows")
    k, steps = np.shape(priors)[-1], sum(len(a) + 1 for a in answers)
    check_size("permutations", permutations, k * steps,
               f"replays of {steps} steps in {k} categories")
    per_task: List[np.ndarray] = []
    for task_id, task_answers, prior in zip(task_ids, answers, priors):
        if len(task_answers) == 0:
            continue
        rng = task_rng(seed, f"{_REPEATS_STREAM}:{task_id}")
        per_task.append(repeats_run(task_answers, prior, permutations, rng))
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


def write_repeats_csv(path, summaries: Sequence[RepeatsSummary],
                      provenance: Optional[dict] = None) -> None:
    rows = (
        [summary.variant, s.step, s.q025, s.q25, s.median, s.q75, s.q975, s.n_tasks]
        for summary in summaries
        for s in summary.steps
    )
    write_csv(path, ["variant", "step", "q025", "q25", "median", "q75", "q975", "n_tasks"],
              rows, provenance)
