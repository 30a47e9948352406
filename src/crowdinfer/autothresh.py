"""Automation-correctness curves, bootstrap confidence bands, threshold
calibration against a target accuracy, and ambiguity calibration bins.

A task is retained (auto-annotated) when its prediction confidence is at
least the threshold.  Threshold grids run over the observed confidence
values plus a retain-all sentinel at 0.0, which transfers to any dataset
because confidences live in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import InputError, check_seed, check_size, json_ready, write_csv


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
# per-slot counts, quantile columns), so memory stays flat in B and n.
_BLOCK = 1 << 14
_QUANTILES = (0.025, 0.5, 0.975)


def _suffix(x: np.ndarray) -> np.ndarray:
    return np.cumsum(x[:, ::-1], axis=1)[:, ::-1]


def _slot_totals(slot: np.ndarray, corr: np.ndarray, draws: np.ndarray, size: int):
    """Per row of ``draws`` (task indices, one resample per row): the draws'
    counts per grid slot, and the retained and correct totals at every grid
    threshold.  ``slot`` is each task's index in the grid; retention is
    inclusive, so the totals are suffix sums of the integer counts."""
    rows = draws.shape[0]
    flat = (slot[draws] + size * np.arange(rows)[:, None]).ravel()
    counts = np.bincount(flat, minlength=rows * size).reshape(rows, size)
    hits = np.bincount(flat[corr[draws].ravel()], minlength=rows * size).reshape(rows, size)
    return counts, _suffix(counts), _suffix(hits)


def _accuracy(retained: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """hits / retained, NaN where nothing is retained."""
    return np.divide(hits, retained, out=np.full(retained.shape, np.nan), where=retained > 0)


def _curve(conf: np.ndarray, corr: np.ndarray):
    """The threshold grid, each task's slot in it, and the retained counts
    and accuracies at each grid threshold."""
    grid = _grid(conf)
    slot = np.searchsorted(grid, conf)
    _, retained, hits = _slot_totals(slot, corr, np.arange(conf.size)[None], grid.size)
    return grid, slot, retained[0], _accuracy(retained[0], hits[0])


@dataclass(frozen=True)
class CurvePoint:
    threshold: float
    automation: float
    accuracy: Optional[float]   # None when the retained set is empty


def curve(confidences, correct) -> List[CurvePoint]:
    """Automation-correctness curve over the observed confidence grid."""
    conf, corr = _as_curve_inputs(confidences, correct)
    grid, _, retained, acc = _curve(conf, corr)
    return [
        CurvePoint(float(c), r / conf.size, float(a) if r > 0 else None)
        for c, r, a in zip(grid, retained, acc)
    ]


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


def _realization_rngs(seed: int, B: int) -> List[np.random.Generator]:
    check_seed(seed)
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(B)]


def _resamples(n: int, B: int, seed: int, width: int):
    """Blocks of bootstrap draws as (first realization, draws): row b of a
    block is realization b's ``rng.integers(0, n, size=n)``.  Blocks hold
    about _BLOCK draws or grid slots per array."""
    rngs = _realization_rngs(seed, B)
    step = max(1, _BLOCK // max(n, width))
    for b0 in range(0, B, step):
        yield b0, np.stack([rng.integers(0, n, size=n) for rng in rngs[b0:b0 + step]])


def _column_quantiles(acc: np.ndarray, has_nan: np.ndarray) -> np.ndarray:
    """2.5/50/97.5% quantiles of each column of acc over its finite entries
    (NaN where it has none).  Columns without NaN take np.quantile a block
    at a time; the ``has_nan`` ones are filtered one at a time."""
    out = np.full((len(_QUANTILES), acc.shape[1]), np.nan)
    whole = np.flatnonzero(~has_nan)
    step = max(1, _BLOCK // acc.shape[0])
    for c0 in range(0, whole.size, step):
        cols = whole[c0:c0 + step]
        out[:, cols] = np.quantile(acc[:, cols], _QUANTILES, axis=0)
    for j in np.flatnonzero(has_nan):
        finite = acc[np.isfinite(acc[:, j]), j]
        if finite.size:
            out[:, j] = np.quantile(finite, _QUANTILES)
    return out


def bootstrap_curves(confidences, correct, B: int, seed: int = 0) -> BootstrapBands:
    """Task-level bootstrap of the curve: 2.5/50/97.5% accuracy quantiles
    per threshold.  Thresholds where a resample retains nothing are skipped
    in that realization's quantiles."""
    conf, corr = _as_curve_inputs(confidences, correct)
    _check_resamples(B, conf.size)
    grid, slot, retained, _ = _curve(conf, corr)
    acc = np.empty((B, grid.size))
    has_nan = np.zeros(grid.size, dtype=bool)
    for b0, draws in _resamples(conf.size, B, seed, grid.size):
        _, kept, hits = _slot_totals(slot, corr, draws, grid.size)
        acc[b0:b0 + draws.shape[0]] = _accuracy(kept, hits)
        has_nan |= (kept == 0).any(axis=0)
    quantiles = _column_quantiles(acc, has_nan)
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
    grid, slot, _, _ = _curve(conf, corr)
    out: List[float] = []
    for _, draws in _resamples(conf.size, B, seed, grid.size):
        out += _first_thresholds(grid, *_slot_totals(slot, corr, draws, grid.size),
                                 target_accuracy)
    return out


@dataclass(frozen=True)
class ThresholdEvaluation:
    automation_ci: Tuple[float, float]
    accuracy_ci: Tuple[float, float]   # over realizations that retain anything
    abstention_rate: float             # fraction of realizations retaining nothing

    def __post_init__(self):
        for lo, hi in (self.automation_ci, self.accuracy_ci):
            if not (math.isnan(lo) or math.isnan(hi)) and lo > hi:
                raise ValueError("interval bounds out of order")


def _at_thresholds(conf: np.ndarray, corr: np.ndarray, thresholds):
    """Automation and accuracy at the first grid value >= each threshold (0, NaN past the end)."""
    grid, _, retained, acc = _curve(conf, corr)
    at = np.searchsorted(grid, np.asarray(thresholds, dtype=float))
    return np.append(retained / conf.size, 0.0)[at], np.append(acc, np.nan)[at]


def evaluate_thresholds(test_confidences, test_correct,
                        thresholds: Sequence[float]) -> ThresholdEvaluation:
    """Apply each realized threshold to the (unresampled) test set and report
    marginal 95% intervals of automation and retained accuracy."""
    conf, corr = _as_curve_inputs(test_confidences, test_correct)
    if len(thresholds) == 0:
        raise ValueError("no thresholds to evaluate")
    automation, accuracy = _at_thresholds(conf, corr, thresholds)
    kept = accuracy[np.isfinite(accuracy)]
    acc_ci = (
        tuple(np.quantile(kept, (0.025, 0.975))) if kept.size else (math.nan, math.nan)
    )
    return ThresholdEvaluation(
        automation_ci=tuple(np.quantile(automation, (0.025, 0.975))),
        accuracy_ci=acc_ci,
        abstention_rate=float(np.mean(automation == 0.0)),
    )


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
    ev = evaluate_thresholds(test_confidences, test_correct, thresholds)
    return ThresholdCalibration(
        target_accuracy=target_accuracy,
        thresholds=thresholds,
        automation_ci=ev.automation_ci,
        accuracy_ci=ev.accuracy_ci,
        abstention_rate=ev.abstention_rate,
        deployment_threshold=float(np.median(thresholds)),
    )


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
    report per-bin means; empty bins carry count 0 and None means."""
    if bins < 2:
        raise InputError("need at least 2 bins")
    pred = np.asarray(predicted_amb, dtype=float)
    act = np.asarray(actual_amb, dtype=float)
    if pred.shape != act.shape or pred.ndim != 1:
        raise ValueError("predicted and actual ambiguity must be aligned vectors")
    check_size("bins", bins, pred.size + 1, f"bins, each one row and a test of {pred.size} tasks")
    dist = None
    if distances is not None:
        dist = np.asarray(distances, dtype=float)
        if dist.shape != pred.shape:
            raise ValueError("distances must align with the ambiguity vectors")
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
    rows = zip(
        (float(t) for t in bands.thresholds),
        (float(a) for a in bands.automation),
        (float(a) for a in bands.acc_q025),
        (float(a) for a in bands.acc_q50),
        (float(a) for a in bands.acc_q975),
    )
    write_csv(path, ["threshold", "automation", "acc_q025", "acc_q50", "acc_q975"],
              rows, provenance)


def write_bins_csv(path, bins_: Sequence[CalibrationBin],
                   provenance: Optional[dict] = None) -> None:
    rows = (
        (b.lo, b.hi, b.count, b.mean_predicted, b.mean_actual, b.mean_distance)
        for b in bins_
    )
    write_csv(path, ["bin_lo", "bin_hi", "count", "mean_predicted", "mean_actual", "mean_distance"],
              rows, provenance)
