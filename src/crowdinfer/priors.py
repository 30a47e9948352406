"""Prediction-as-prior repeats analysis.

Observed responses are replayed one at a time in random order, updating the
Dirichlet posterior after every draw and measuring how far its mode still
is from the crowd's empirical soft label.  Replaying from the uniform prior
and from a machine-informed prior, on the same draw orders, quantifies how
many human labels the prediction is worth.  Tasks come as arrays: answers
as category indices, and one prior row per task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .bayes import point_estimates
from .core import DirichletParams, InputError, check_size, positive_finite, task_rngs, write_csv

_REPEATS_STREAM = "repeats"


def check_blend(blend: float) -> None:
    """Refuse a blend weight outside [0, 1], NaN included."""
    if not 0.0 <= blend <= 1.0:
        raise InputError(f"blend must lie in [0, 1], got {blend}")


def check_replay(max_repeats: Optional[int], permutations: int) -> None:
    """Refuse a replay of fewer than one step, or over fewer than one permutation."""
    if max_repeats is not None and max_repeats < 1:
        raise InputError(f"max_repeats must be at least 1, got {max_repeats}")
    if permutations < 1:
        raise InputError("permutations must be at least 1")


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
    ``prior_alpha`` its (K,) prior concentrations, or a (V, K) stack of
    priors.  Each permutation replays all answers in a random order without
    replacement, the same orders from every prior; the result averages the
    per-step distances over the permutations, (n,) per prior.
    """
    answers = np.asarray(answers)
    n = answers.size
    if n == 0:
        raise ValueError("no responses to replay")
    if permutations < 1:
        raise InputError("permutations must be at least 1")
    alpha = np.asarray(prior_alpha, dtype=float)
    if alpha.ndim not in (1, 2) or not positive_finite(alpha):
        raise InputError(f"prior must be a vector of positive finite numbers, or a stack of "
                         f"them, got {alpha}")
    k = alpha.shape[-1]
    if (answers.ndim != 1 or answers.dtype.kind not in "iu"
            or not 0 <= answers.min() <= answers.max() < k):
        raise ValueError(f"answers must be a vector of indices of the prior's {k} categories")
    empirical = np.bincount(answers, minlength=k) / n

    orders = np.array([rng.permutation(n) for _ in range(permutations)])
    steps = np.zeros(alpha.shape[:-1] + (permutations, n + 1, k))
    steps[..., 0, :] = alpha[..., None, :]
    steps[..., np.arange(permutations)[:, None], np.arange(1, n + 1), answers[orders]] = 1.0
    modes = point_estimates(np.cumsum(steps, axis=-2)[..., 1:, :])
    denom = np.maximum(empirical, 1.0 - empirical)
    distances = np.max(np.abs(modes - empirical) / denom, axis=-1)
    # cumsum adds the permutations in draw order; sum(axis=-2) may add them
    # pairwise, which moves the last ULP away from a one-draw-at-a-time replay
    return np.cumsum(distances, axis=-2)[..., -1, :] / permutations


@dataclass(frozen=True)
class StepQuantiles:
    step: int
    q025: float
    q25: float
    median: float
    q75: float
    q975: float
    n_tasks: int


def repeats_summary(
    task_ids: Sequence[str],
    answers: Sequence[np.ndarray],
    priors: Dict[str, np.ndarray],
    max_repeats: Optional[int] = None,
    permutations: int = 16,
    seed: int = 0,
) -> Dict[str, List[StepQuantiles]]:
    """Per-step distance quantiles across tasks, for each variant in ``priors``.

    ``answers`` hold one answer array per task id, and ``priors`` map each
    variant name to an (M, K) matrix of one prior row per task.  Each task
    replays once from all its priors, on the draw orders of its own random
    stream from (seed, task_id) only, so the variants are paired.  Tasks
    without responses are skipped.
    """
    check_replay(max_repeats, permutations)
    if not priors:
        raise InputError("no prior variants to replay")
    first = next(iter(priors))
    for name, rows in priors.items():
        if np.ndim(rows) != 2:
            raise InputError(f"prior rows of {name!r} must form an (M, K) matrix, got shape "
                             f"{np.shape(rows)}")
        if not len(task_ids) == len(answers) == len(rows):
            raise InputError(f"{len(task_ids)} task ids, {len(answers)} answer arrays and "
                             f"{len(rows)} prior rows of {name!r}")
        width, first_width = np.shape(rows)[1], np.shape(priors[first])[1]
        if width != first_width:
            raise InputError(f"{first_width} categories in the prior rows of {first!r} and "
                             f"{width} in those of {name!r}")
    stack = np.stack(list(priors.values()), axis=1)   # (M, V, K)
    (v, k), steps = stack.shape[1:], sum(len(a) + 1 for a in answers)
    check_size("permutations", permutations, v * k * steps,
               f"replays of {steps} steps from {v} priors in {k} categories")
    replayed = [(task_id, task_answers, prior)
                for task_id, task_answers, prior in zip(task_ids, answers, stack)
                if len(task_answers)]
    rngs = task_rngs(seed, [f"{_REPEATS_STREAM}:{task_id}" for task_id, _, _ in replayed])
    per_task = [repeats_run(task_answers, prior, permutations, rng)
                for (_, task_answers, prior), rng in zip(replayed, rngs)]
    if not per_task:
        raise ValueError("no tasks with responses")

    limit = max(d.shape[1] for d in per_task)
    if max_repeats is not None:
        limit = min(limit, max_repeats)
    steps = []
    for s in range(1, limit + 1):
        vals = np.array([d[:, s - 1] for d in per_task if d.shape[1] >= s])   # (tasks, V)
        q = np.quantile(vals, (0.025, 0.25, 0.5, 0.75, 0.975), axis=0)
        steps.append([StepQuantiles(s, *map(float, col), len(vals)) for col in q.T])
    return {name: [step[row] for step in steps] for row, name in enumerate(priors)}


def write_repeats_csv(path, summaries: Dict[str, List[StepQuantiles]],
                      provenance: Optional[dict] = None) -> None:
    rows = (
        [variant, s.step, s.q025, s.q25, s.median, s.q75, s.q975, s.n_tasks]
        for variant, steps in summaries.items()
        for s in steps
    )
    write_csv(path, ["variant", "step", "q025", "q25", "median", "q75", "q975", "n_tasks"],
              rows, provenance)
