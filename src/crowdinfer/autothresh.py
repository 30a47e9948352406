"""Automation-correctness curves, bootstrap confidence bands, threshold
calibration against a target accuracy, and ambiguity calibration bins.

A task is retained (auto-annotated) when its prediction confidence is at
least the threshold.  Threshold grids run over the observed confidence
values plus a retain-all sentinel at 0.0, which transfers to any dataset
because confidences live in [0, 1].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import InputError, check_seed, check_size, json_ready, spawn_rngs, write_csv


def _as_curve_inputs(confidences, correct):
    conf = np.asarray(confidences, dtype=float)
    corr = np.asarray(correct, dtype=bool)
    if conf.ndim != 1 or conf.shape != corr.shape:
        raise ValueError("confidences and correctness must be aligned vectors")
    if conf.size == 0:
        raise ValueError("empty input")
    if not np.isfinite(conf).all():
        raise ValueError("non-finite confidence values")
    return conf, corr


def _grid(conf: np.ndarray) -> np.ndarray:
    values = np.unique(conf)
    if values[0] > 0.0:
        values = np.concatenate(([0.0], values))
    return values


# Elements per block of the bootstrap work arrays (resample draws, their
# keyed per-slot counts, the sorted accuracy rows), so memory beyond the two
# integer (grid, B) totals matrices stays flat in B and n.
_BLOCK = 1 << 14
_QUANTILES = (0.025, 0.5, 0.975)


def _suffix(x: np.ndarray) -> np.ndarray:
    return np.cumsum(x[:, ::-1], axis=1)[:, ::-1]


def _slot_totals(key: np.ndarray, draws: np.ndarray, size: int):
    """Per row of ``draws`` (task indices, one resample per row): the draws'
    counts per grid slot, and the retained and correct totals at every grid
    threshold.  ``key`` is each task's grid slot, plus ``size`` when it is
    correct, so one bincount per row splits the wrong draws from the correct
    ones; retention is inclusive, so the totals are suffix sums of the
    integer counts."""
    rows = draws.shape[0]
    flat = (key[draws] + 2 * size * np.arange(rows)[:, None]).ravel()
    halves = np.bincount(flat, minlength=rows * 2 * size).reshape(rows, 2, size)
    counts = halves[:, 0] + halves[:, 1]
    return counts, _suffix(counts), _suffix(halves[:, 1])


def _accuracy(retained: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """hits / retained, NaN where nothing is retained."""
    return np.divide(hits, retained, out=np.full(retained.shape, np.nan), where=retained > 0)


def _curve(conf: np.ndarray, corr: np.ndarray):
    """The threshold grid, each task's _slot_totals key, and the retained
    counts and accuracies at each grid threshold."""
    grid = _grid(conf)
    key = np.searchsorted(grid, conf) + grid.size * corr
    _, retained, hits = _slot_totals(key, np.arange(conf.size)[None], grid.size)
    return grid, key, retained[0], _accuracy(retained[0], hits[0])


def curve(confidences, correct) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Automation-correctness curve over the observed confidence grid: the
    thresholds, and the automation and accuracy (NaN where nothing is retained)."""
    conf, corr = _as_curve_inputs(confidences, correct)
    grid, _, retained, acc = _curve(conf, corr)
    return grid, retained / conf.size, acc


@dataclass(frozen=True)
class BootstrapBands:
    """Accuracy quantile bands over bootstrap resamples, evaluated on the
    original curve's threshold grid."""

    thresholds: np.ndarray
    automation: np.ndarray
    acc_q025: np.ndarray
    acc_q50: np.ndarray
    acc_q975: np.ndarray


def _check_resamples(B: int, n: int) -> None:
    """Refuse a bootstrap size B below 1, or one whose resamples of n tasks
    (and their accuracy rows, n + 1 grid slots at most) would not fit."""
    if B < 1:
        raise InputError("B must be at least 1")
    check_size("B", B, n + 1, f"resamples of {n} tasks")


def _realization_rngs(seed: int, B: int, step: int):
    """The B realization generators of ``seed``, ``step`` at a time as
    (first realization, generators): the streams of one
    ``SeedSequence(seed).spawn(B)``.  The seed states of all B are computed
    once (32 bytes each) and the generators are built a block at a time, as
    each block is drawn, so only one block of them is alive."""
    check_seed(seed)
    rngs = spawn_rngs(seed, B)
    for b0 in range(0, B, step):
        yield b0, list(itertools.islice(rngs, step))


def _resamples(n: int, B: int, seed: int, width: int):
    """Blocks of bootstrap draws as (first realization, draws): row b of a
    block is realization b's ``rng.integers(0, n, size=n)``.  Blocks hold
    about _BLOCK draws or grid slots per array."""
    step = max(1, _BLOCK // max(n, width))
    for b0, rngs in _realization_rngs(seed, B, step):
        yield b0, np.stack([rng.integers(0, n, size=n) for rng in rngs])


def _sorted_quantiles(acc: np.ndarray) -> np.ndarray:
    """The _QUANTILES of each row of ``acc``, sorted with NaN last, over its m
    finite entries (NaN where m is 0), bitwise as np.quantile's linear method:
    virtual index (m - 1) * q, its floor and fraction gamma, _lerp's two sides."""
    m = acc.shape[1] - np.isnan(acc).sum(axis=1)
    virtual = (m - 1) * np.array(_QUANTILES)[:, None]
    below = np.floor(virtual)
    gamma = virtual - below
    rows = np.arange(len(acc))
    a = acc[rows, below.astype(np.intp)]   # index -1 where m is 0: a NaN
    b = acc[rows, np.minimum(below + 1, m - 1).astype(np.intp)]
    return np.where(gamma >= 0.5, b - (b - a) * (1 - gamma), a + (b - a) * gamma)


def _row_quantiles(retained: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """The 2.5/50/97.5% quantiles of each row of _accuracy(retained, hits)
    over its finite entries (NaN where it has none), built, sorted and read
    off a block of about _BLOCK entries at a time, so beyond the two totals
    matrices memory is bounded by one block."""
    out = np.empty((len(_QUANTILES), retained.shape[0]))
    step = max(1, _BLOCK // retained.shape[1])
    for r0 in range(0, retained.shape[0], step):
        acc = _accuracy(retained[r0:r0 + step], hits[r0:r0 + step])
        acc.sort(axis=1)
        out[:, r0:r0 + step] = _sorted_quantiles(acc)
    return out


def bootstrap_curves(confidences, correct, B: int, seed: int = 0) -> BootstrapBands:
    """Task-level bootstrap of the curve: 2.5/50/97.5% accuracy quantiles
    per threshold.  Thresholds where a resample retains nothing are skipped
    in that realization's quantiles.

    Each resample's retained and correct totals at every threshold are kept
    in two (grid, B) matrices of the smallest unsigned type that holds n (2
    bytes each below 65 536 tasks); the accuracies are built from them one
    block of rows at a time."""
    conf, corr = _as_curve_inputs(confidences, correct)
    _check_resamples(B, conf.size)
    grid, key, retained, _ = _curve(conf, corr)
    kept_all = np.empty((grid.size, B), np.min_scalar_type(conf.size))
    hits_all = np.empty_like(kept_all)
    for b0, draws in _resamples(conf.size, B, seed, grid.size):
        _, kept, hits = _slot_totals(key, draws, grid.size)
        kept_all[:, b0:b0 + draws.shape[0]] = kept.T
        hits_all[:, b0:b0 + draws.shape[0]] = hits.T
    quantiles = _row_quantiles(kept_all, hits_all)
    return BootstrapBands(
        thresholds=grid,
        automation=retained / conf.size,
        acc_q025=quantiles[0],
        acc_q50=quantiles[1],
        acc_q975=quantiles[2],
    )


def _first_thresholds(grid, counts, retained, hits, target_accuracy: float) -> list:
    """Each resample's (row's) threshold, read off the full grid: the
    smallest threshold on its own grid whose retained accuracy meets the
    target, math.inf (abstain on everything) when none does.

    A resample's own grid holds its drawn values, plus 0.0 when they are all
    positive.  At a full-grid threshold it did not draw, its totals are those
    of the next drawn value up.  So the first full-grid threshold meeting the
    target leads to the first drawn value at or above it, or to 0.0 when it
    is the first grid threshold, which retains every draw.
    """
    ok = (retained > 0) & (_accuracy(retained, hits) >= target_accuracy)
    first = ok.argmax(axis=1)
    drawn = (counts > 0) & (np.arange(grid.size) >= first[:, None])
    out = grid[drawn.argmax(axis=1)]
    out[(first == 0) & (out > 0.0)] = 0.0
    out[~ok.any(axis=1)] = math.inf
    return out.tolist()


def select_threshold(val_confidences, val_correct, target_accuracy: float,
                     B: int, seed: int = 0) -> List[float]:
    """One realized threshold per bootstrap resample of the validation set."""
    conf, corr = _as_curve_inputs(val_confidences, val_correct)
    _check_resamples(B, conf.size)
    if not 0.0 < target_accuracy <= 1.0:
        raise InputError(f"target_accuracy must lie in (0, 1], got {target_accuracy}")
    grid, key, _, _ = _curve(conf, corr)
    out: List[float] = []
    for _, draws in _resamples(conf.size, B, seed, grid.size):
        out += _first_thresholds(grid, *_slot_totals(key, draws, grid.size),
                                 target_accuracy)
    return out


def _at_thresholds(conf: np.ndarray, corr: np.ndarray, thresholds):
    """Automation and accuracy at the first grid value >= each threshold (0, NaN past the end)."""
    grid, _, retained, acc = _curve(conf, corr)
    at = np.searchsorted(grid, np.asarray(thresholds, dtype=float))
    return np.append(retained / conf.size, 0.0)[at], np.append(acc, np.nan)[at]


def evaluate_thresholds(test_confidences, test_correct, thresholds: Sequence[float]
                        ) -> Tuple[Tuple[float, float], Tuple[float, float], float]:
    """Apply each realized threshold to the (unresampled) test set: the
    marginal 95% intervals of automation and of retained accuracy (over the
    realizations that retain anything, NaN when none does), and the
    abstention rate, the fraction of realizations retaining nothing."""
    conf, corr = _as_curve_inputs(test_confidences, test_correct)
    if len(thresholds) == 0:
        raise ValueError("no thresholds to evaluate")
    automation, accuracy = _at_thresholds(conf, corr, thresholds)
    kept = accuracy[np.isfinite(accuracy)]
    acc_ci = (
        tuple(np.quantile(kept, (0.025, 0.975))) if kept.size else (math.nan, math.nan)
    )
    return (tuple(np.quantile(automation, (0.025, 0.975))), acc_ci,
            float(np.mean(automation == 0.0)))


@dataclass(frozen=True)
class ThresholdCalibration:
    """Realized thresholds from validation resamples plus their test-set
    evaluation; the deployment threshold is the median realization."""

    target_accuracy: float
    thresholds: List[float]
    automation_ci: Tuple[float, float]
    accuracy_ci: Tuple[float, float]
    abstention_rate: float
    deployment_threshold: float

    def __post_init__(self):
        if not self.thresholds:
            raise ValueError("calibration needs at least one realization")

    def to_dict(self) -> dict:
        return json_ready(
            {
                "target_accuracy": self.target_accuracy,
                "deployment_threshold": self.deployment_threshold,
                "automation_ci": list(self.automation_ci),
                "accuracy_ci": list(self.accuracy_ci),
                "abstention_rate": self.abstention_rate,
                "n_realizations": len(self.thresholds),
                "thresholds": list(self.thresholds),
            }
        )


def calibrate(val_confidences, val_correct, test_confidences, test_correct,
              target_accuracy: float = 0.99, B: int = 1024,
              seed: int = 0) -> ThresholdCalibration:
    """Select thresholds on validation resamples, evaluate them on test."""
    thresholds = select_threshold(val_confidences, val_correct, target_accuracy, B, seed)
    return ThresholdCalibration(target_accuracy, thresholds,
                                *evaluate_thresholds(test_confidences, test_correct, thresholds),
                                deployment_threshold=float(np.median(thresholds)))


@dataclass(frozen=True)
class CalibrationBin:
    lo: float
    hi: float
    count: int
    mean_predicted: Optional[float]
    mean_actual: Optional[float]
    mean_distance: Optional[float]


def ambiguity_calibration(predicted_amb, actual_amb, bins: int = 10,
                          distances=None) -> List[CalibrationBin]:
    """Distribute tasks over equidistant bins of predicted ambiguity and
    report per-bin means; empty bins carry count 0 and None means.  An
    ambiguity outside [0, 1], or a distance that is negative or not finite,
    raises InputError naming the first one."""
    if bins < 2:
        raise InputError("need at least 2 bins")
    pred = np.asarray(predicted_amb, dtype=float)
    act = np.asarray(actual_amb, dtype=float)
    if pred.shape != act.shape or pred.ndim != 1:
        raise ValueError("predicted and actual ambiguity must be aligned vectors")
    for name, amb in (("predicted", pred), ("actual", act)):
        outside = ~((amb >= 0.0) & (amb <= 1.0))
        if outside.any():
            i = int(outside.argmax())
            raise InputError(f"{name} ambiguity must lie in [0, 1], got {amb[i]} at index {i}")
    check_size("bins", bins, pred.size + 1, f"bins, each one row and a test of {pred.size} tasks")
    dist = None
    if distances is not None:
        dist = np.asarray(distances, dtype=float)
        if dist.shape != pred.shape:
            raise ValueError("distances must align with the ambiguity vectors")
        outside = ~((dist >= 0.0) & (dist < math.inf))
        if outside.any():
            i = int(outside.argmax())
            raise InputError(f"distance must be non-negative and finite, got {dist[i]} at index {i}")
    idx = np.clip((pred * bins).astype(int), 0, bins - 1)
    out = []
    for b in range(bins):
        mask = idx == b
        count = int(mask.sum())
        out.append(
            CalibrationBin(
                lo=b / bins,
                hi=(b + 1) / bins,
                count=count,
                mean_predicted=float(pred[mask].mean()) if count else None,
                mean_actual=float(act[mask].mean()) if count else None,
                mean_distance=float(dist[mask].mean()) if count and dist is not None else None,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Plot-ready CSV artifacts
# ---------------------------------------------------------------------------

def write_curve_csv(path, bands: BootstrapBands, provenance: Optional[dict] = None) -> None:
    columns = (bands.thresholds, bands.automation, bands.acc_q025, bands.acc_q50, bands.acc_q975)
    write_csv(path, ["threshold", "automation", "acc_q025", "acc_q50", "acc_q975"],
              zip(*(c.tolist() for c in columns)), provenance)


def write_bins_csv(path, bins_: Sequence[CalibrationBin],
                   provenance: Optional[dict] = None) -> None:
    rows = (
        (b.lo, b.hi, b.count, b.mean_predicted, b.mean_actual, b.mean_distance)
        for b in bins_
    )
    write_csv(path, ["bin_lo", "bin_hi", "count", "mean_predicted", "mean_actual", "mean_distance"],
              rows, provenance)
