"""Metrics over soft labels: ambiguity, confidence, soft distance,
cross entropy, imbalance-correcting class weights, and an aggregate
evaluation report.

All functionals treat the last component of a soft label as the
"can't solve" category; the remaining components are the proper answer
categories.  The per-label functionals are row kernels: they take one
soft label as a (K,) array and return a float, or N labels as an (N, K)
array and return an (N,) vector whose entries keep the bits of the
one-label values.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import InputError, check_soft_labels, json_ready


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
            raise InputError(f"eta0 must lie in (0, 1), got {self.eta0}")
        if not 0.0 < self.pi0 < 1.0:
            raise InputError(f"pi0 must lie in (0, 1), got {self.pi0}")

    @property
    def gamma(self) -> float:
        return math.log(self.eta0) / (1.0 - self.pi0)


DEFAULT_AMBIGUITY = AmbiguityConfig()


def _rows(*labels) -> list:
    """Soft labels of one shape, each a (K,) or (N, K) array, checked, as (N, K) rows."""
    shapes = [np.shape(q) for q in labels]
    if len(set(shapes)) > 1:
        raise ValueError(f"soft labels must have equal shapes, got {shapes}")
    if len(shapes[0]) not in (1, 2):
        raise ValueError(f"soft labels must be (K,) or (N, K) arrays, got shape {shapes[0]}")
    return [np.atleast_2d(check_soft_labels(q)) for q in labels]


def _per_label(q, values: np.ndarray):
    """A float for one label (a (K,) input), the (N,) vector for rows."""
    return float(values[0]) if np.ndim(q) == 1 else values


def ambiguity(q, config: AmbiguityConfig = DEFAULT_AMBIGUITY):
    """Distance of the conditional answer distribution from one-hot,
    discounted toward 1 as solvability drops.

    Ranges over [0, 1]: 0 for a unanimous solvable task, 1 when all mass
    sits on "can't solve".  Needs at least two proper categories.
    """
    rows, = _rows(q)
    c = rows.shape[1] - 1
    if c < 2:
        raise ValueError("ambiguity needs at least two proper categories")
    mass = rows[:, :-1].sum(axis=1)
    solvable = mass != 0.0
    p = rows[solvable, :-1] / mass[solvable, None]
    pi = 1.0 - rows[solvable, -1]
    # math.exp, not np.exp, whose last bit may differ
    eta = np.array([math.exp(x) for x in (config.gamma * (1.0 - pi)).tolist()])
    value = np.ones(len(rows))
    value[solvable] = 1.0 - (eta / 2.0) * (c / (c - 1.0)) * np.abs(p - 1.0 / c).sum(axis=1)
    return _per_label(q, np.clip(value, 0.0, 1.0))


def confidence(q):
    """Affine rescaling of the top component: 1 for one-hot, 0 for uniform."""
    rows, = _rows(q)
    k = rows.shape[1]
    if k < 2:
        raise ValueError("confidence needs at least two categories")
    return _per_label(q, (k * rows.max(axis=1) - 1.0) / (k - 1))


def soft_distance(q_hat, q_ref):
    """Worst-component deviation from the reference label, each component
    normalized by the largest shift the reference allows in that direction.

    0 iff equal; 1 when some component moves as far from the reference as
    the simplex permits.
    """
    hat, ref = _rows(q_hat, q_ref)
    denom = np.maximum(ref, 1.0 - ref)
    return _per_label(q_ref, np.max(np.abs(hat - ref) / denom, axis=1))


def cross_entropy(q_ref, q_hat):
    """Cross entropy of the estimate under the reference, in nats.

    Returns inf when the estimate puts zero mass where the reference does
    not; callers flag such tasks rather than silently dropping them.
    """
    hat, ref = _rows(q_hat, q_ref)
    support = ref > 0.0
    # Each row sums its supported terms alone, in column order, as a one-label
    # sum does: they move left, and the rows with m of them sum [:, :m].  numpy
    # adds eight or more terms in interleaved partial sums, so a masked sum
    # over all K columns, zeros in between, can move the last bit.
    order = np.argsort(~support, axis=1, kind="stable")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.take_along_axis(ref * np.log(hat), order, axis=1)
    m = support.sum(axis=1)
    out = np.empty(len(ref))
    for width in np.unique(m):
        out[m == width] = -terms[m == width, :width].sum(axis=1)
    out[(support & (hat == 0.0)).any(axis=1)] = math.inf
    return _per_label(q_ref, out)


def hard_weights(class_counts: np.ndarray) -> np.ndarray:
    """Inverse-frequency class weights with add-one smoothing.

    A category holding its uniform share of the labels gets weight about 1;
    rare categories get proportionally more.
    """
    counts = np.asarray(class_counts, dtype=float)
    if counts.ndim != 1 or counts.size < 2:
        raise ValueError("class_counts must be a vector of at least two categories")
    bad = ~np.isfinite(counts)
    if bad.any():
        raise InputError(f"class counts must be finite, got {counts[bad][0]}")
    if (counts < 0).any():
        raise ValueError("negative class counts")
    t = counts.sum()
    k = counts.size
    return (t + k) / (k * (counts + 1.0))


def soft_weight(q, weights: np.ndarray):
    """Expected class weight under the soft label."""
    rows, = _rows(q)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != rows.shape[1:]:
        raise ValueError("weight vector length must match the label")
    # the stacked product keeps each row's q @ weights bits; rows @ weights does not
    return _per_label(q, np.matmul(rows[:, None, :], weights[:, None])[:, 0, 0])


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
        return json_ready(asdict(self))


def evaluate(q_hat, q_ref, weights: Optional[np.ndarray] = None) -> MetricsReport:
    """Score predicted soft labels against references, given as aligned
    (N, K) arrays, one row per task.

    Hard metrics compare argmax labels ("can't solve" is the positive class
    for precision/recall).  Weighted means use the expected class weight of
    the reference label; unweighted means are the weights-of-ones case.
    """
    if np.ndim(q_hat) != 2 or np.shape(q_hat) != np.shape(q_ref):
        raise ValueError(f"predictions and references must be aligned (N, K) arrays, got "
                         f"shapes {np.shape(q_hat)} and {np.shape(q_ref)}")
    n, k = np.shape(q_ref)
    if not n:
        raise ValueError("no tasks to evaluate")
    d_vals = soft_distance(q_hat, q_ref)
    h_vals = cross_entropy(q_ref, q_hat)
    w_vals = soft_weight(q_ref, np.ones(k) if weights is None else weights)
    yh, yr = np.argmax(q_hat, axis=1), np.argmax(q_ref, axis=1)
    pred_cs, ref_cs = int((yh == k - 1).sum()), int((yr == k - 1).sum())
    both_cs = int(((yh == k - 1) & (yr == k - 1)).sum())
    wsum = w_vals.sum()
    return MetricsReport(
        acc=int((yh == yr).sum()) / n,
        prec_cs=both_cs / pred_cs if pred_cs else None,
        rec_cs=both_cs / ref_cs if ref_cs else None,
        mean_D=float(d_vals.mean()),
        mean_D_weighted=float((d_vals * w_vals).sum() / wsum),
        mean_H=float(h_vals.mean()),
        mean_H_weighted=float((h_vals * w_vals).sum() / wsum),
        n_tasks=n,
        infinite_H=int(np.isinf(h_vals).sum()),
    )


def geometric_median(points, tol: float = 1e-10, max_iter: int = 10000) -> np.ndarray:
    """Point minimizing the summed euclidean distance to the given soft
    labels, the rows of an (N, K) array (Weiszfeld iteration with the
    stalled-at-a-data-point correction)."""
    if np.ndim(points) != 2 or not len(points):
        raise ValueError("geometric_median needs a non-empty (N, K) array of labels")
    P, = _rows(points)
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
    return y / y.sum()
