"""Metrics over soft labels: ambiguity, confidence, soft distance,
cross entropy, imbalance-correcting class weights, and an aggregate
evaluation report.

All functionals treat the last component of a soft label as the
"can't solve" category; the remaining components are the proper answer
categories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import SoftLabel, json_ready


@dataclass(frozen=True)
class AmbiguityConfig:
    """Calibration of the solvability discount inside the ambiguity score.

    eta0 is the discount applied at solvability pi0; the exponential decay
    rate gamma follows from the pair.  Defaults put a 0.4 discount at 80%
    solvability.
    """

    eta0: float = 0.4
    pi0: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.eta0 < 1.0:
            raise ValueError(f"eta0 must lie in (0, 1), got {self.eta0}")
        if not 0.0 < self.pi0 < 1.0:
            raise ValueError(f"pi0 must lie in (0, 1), got {self.pi0}")

    @property
    def gamma(self) -> float:
        return math.log(self.eta0) / (1.0 - self.pi0)


DEFAULT_AMBIGUITY = AmbiguityConfig()


def ambiguity(q: SoftLabel, config: AmbiguityConfig = DEFAULT_AMBIGUITY) -> float:
    """Distance of the conditional answer distribution from one-hot,
    discounted toward 1 as solvability drops.

    Ranges over [0, 1]: 0 for a unanimous solvable task, 1 when all mass
    sits on "can't solve".  Needs at least two proper categories.
    """
    c = len(q) - 1
    if c < 2:
        raise ValueError("ambiguity needs at least two proper categories")
    proper = q.q[:-1]
    mass = proper.sum()
    if mass == 0.0:
        return 1.0
    p = proper / mass
    pi = 1.0 - q.q[-1]
    eta = math.exp(config.gamma * (1.0 - pi))
    value = 1.0 - (eta / 2.0) * (c / (c - 1.0)) * np.abs(p - 1.0 / c).sum()
    return float(min(1.0, max(0.0, value)))


def confidence(q: SoftLabel) -> float:
    """Affine rescaling of the top component: 1 for one-hot, 0 for uniform."""
    k = len(q)
    c = k - 1
    if c < 1:
        raise ValueError("confidence needs at least two categories")
    return float((k * q.q.max() - 1.0) / c)


def soft_distance(q_hat: SoftLabel, q_ref: SoftLabel) -> float:
    """Worst-component deviation from the reference label, each component
    normalized by the largest shift the reference allows in that direction.

    0 iff equal; 1 when some component moves as far from the reference as
    the simplex permits.
    """
    if len(q_hat) != len(q_ref):
        raise ValueError("soft labels must have equal length")
    denom = np.maximum(q_ref.q, 1.0 - q_ref.q)
    return float(np.max(np.abs(q_hat.q - q_ref.q) / denom))


def cross_entropy(q_ref: SoftLabel, q_hat: SoftLabel) -> float:
    """Cross entropy of the estimate under the reference, in nats.

    Returns inf when the estimate puts zero mass where the reference does
    not; callers flag such tasks rather than silently dropping them.
    """
    if len(q_hat) != len(q_ref):
        raise ValueError("soft labels must have equal length")
    support = q_ref.q > 0.0
    if (q_hat.q[support] == 0.0).any():
        return math.inf
    return float(-(q_ref.q[support] * np.log(q_hat.q[support])).sum())


def hard_weights(class_counts: np.ndarray) -> np.ndarray:
    """Inverse-frequency class weights with add-one smoothing.

    A category holding its uniform share of the labels gets weight about 1;
    rare categories get proportionally more.
    """
    counts = np.asarray(class_counts, dtype=float)
    if counts.ndim != 1 or counts.size < 2:
        raise ValueError("class_counts must be a vector of at least two categories")
    if (counts < 0).any():
        raise ValueError("negative class counts")
    t = counts.sum()
    k = counts.size
    return (t + k) / (k * (counts + 1.0))


def soft_weight(q: SoftLabel, weights: np.ndarray) -> float:
    """Expected class weight under the soft label."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != q.q.shape:
        raise ValueError("weight vector length must match the label")
    return float(q.q @ weights)


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate quality of predicted soft labels against references.

    prec_cs / rec_cs are None when no predicted (resp. reference) label
    points at "can't solve".  infinite_H counts tasks whose cross entropy
    was infinite; those tasks still enter mean_H (making it inf).
    """

    acc: float
    prec_cs: Optional[float]
    rec_cs: Optional[float]
    mean_D: float
    mean_D_weighted: float
    mean_H: float
    mean_H_weighted: float
    n_tasks: int
    infinite_H: int

    def to_dict(self) -> dict:
        return json_ready(
            {
                "acc": self.acc,
                "prec_cs": self.prec_cs,
                "rec_cs": self.rec_cs,
                "mean_D": self.mean_D,
                "mean_D_weighted": self.mean_D_weighted,
                "mean_H": self.mean_H,
                "mean_H_weighted": self.mean_H_weighted,
                "n_tasks": self.n_tasks,
                "infinite_H": self.infinite_H,
            }
        )


def evaluate(
    predictions: Mapping[str, SoftLabel],
    references: Mapping[str, SoftLabel],
    weights: Optional[np.ndarray] = None,
) -> MetricsReport:
    """Score predictions against references over a shared task set.

    Hard metrics compare argmax labels ("can't solve" is the positive class
    for precision/recall).  Weighted means use the expected class weight of
    the reference label; unweighted means are the weights-of-ones case.
    """
    ids = sorted(predictions.keys())
    if set(ids) != set(references.keys()):
        raise ValueError("predictions and references must cover the same task ids")
    if not ids:
        raise ValueError("no tasks to evaluate")

    k = len(references[ids[0]])
    cs = k - 1
    if weights is None:
        weights = np.ones(k)

    hits = 0
    pred_cs = 0
    both_cs = 0
    ref_cs = 0
    d_vals = np.empty(len(ids))
    h_vals = np.empty(len(ids))
    w_vals = np.empty(len(ids))
    infinite = 0
    for i, tid in enumerate(ids):
        qhat, qref = predictions[tid], references[tid]
        yh, yr = qhat.argmax(), qref.argmax()
        hits += yh == yr
        pred_cs += yh == cs
        ref_cs += yr == cs
        both_cs += (yh == cs) and (yr == cs)
        d_vals[i] = soft_distance(qhat, qref)
        h_vals[i] = cross_entropy(qref, qhat)
        w_vals[i] = soft_weight(qref, weights)
        infinite += not math.isfinite(h_vals[i])

    wsum = w_vals.sum()
    return MetricsReport(
        acc=hits / len(ids),
        prec_cs=both_cs / pred_cs if pred_cs else None,
        rec_cs=both_cs / ref_cs if ref_cs else None,
        mean_D=float(d_vals.mean()),
        mean_D_weighted=float((d_vals * w_vals).sum() / wsum),
        mean_H=float(h_vals.mean()),
        mean_H_weighted=float((h_vals * w_vals).sum() / wsum),
        n_tasks=len(ids),
        infinite_H=infinite,
    )


def geometric_median(points: Sequence[SoftLabel], tol: float = 1e-10,
                     max_iter: int = 10000) -> SoftLabel:
    """Point minimizing the summed euclidean distance to the given labels
    (Weiszfeld iteration with the stalled-at-a-data-point correction)."""
    if not points:
        raise ValueError("geometric_median of an empty set")
    P = np.stack([p.q for p in points])
    y = P.mean(axis=0)
    for _ in range(max_iter):
        d = np.linalg.norm(P - y, axis=1)
        zero = d < 1e-14
        if zero.all():
            break
        inv = 1.0 / d[~zero]
        t_hat = (P[~zero] * inv[:, None]).sum(axis=0) / inv.sum()
        if zero.any():
            r_vec = ((P[~zero] - y) * inv[:, None]).sum(axis=0)
            r = np.linalg.norm(r_vec)
            gamma = 1.0 if r == 0.0 else min(1.0, zero.sum() / r)
            y_next = (1.0 - gamma) * t_hat + gamma * y
        else:
            y_next = t_hat
        if np.linalg.norm(y_next - y) < tol:
            y = y_next
            break
        y = y_next
    y = np.clip(y, 0.0, None)
    return SoftLabel(y / y.sum())
