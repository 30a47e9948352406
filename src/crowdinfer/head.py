"""Dirichlet prediction head: raw scores to concentration parameters,
the analytic Chernoff/Bhattacharyya objective, and a small trainer.

The head maps a feature vector x to raw scores z = A'x + b and combines
two softmax branches so the predicted concentrations always sum to the
prior parameter sum plus the number of observed responses:

    alpha_hat = alpha0_sum * softmax(z) + n * softmax(W z)

Training minimizes the closed-form Chernoff distance between predicted
and target Dirichlet parameters with Adam and linear warmup.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (DirichletParams, InputError, brief, brief_text, check_seed, is_numbers,
                   positive_finite, read_json_object)

# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_COEFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _check_positive(x: np.ndarray, name: str) -> None:
    if not positive_finite(x):
        raise ValueError(f"{name} requires positive finite arguments")


def log_gamma(x):
    """Natural log of the gamma function for x > 0 (Lanczos, g=7).

    Arguments below 0.5 are lifted with log_gamma(x) = log_gamma(x+1) - log(x)
    to stay inside the approximation's accurate range.
    """
    x = np.asarray(x, dtype=float)
    xv = x.ravel()
    _check_positive(xv, "log_gamma")

    z = xv - 1.0
    small = np.flatnonzero(xv < 0.5)
    if small.size:
        z[small] = (xv[small] + 1.0) - 1.0
    series = np.empty_like(z)
    series.fill(_LANCZOS_COEFS[0])
    term = np.empty_like(z)
    for i, c in enumerate(_LANCZOS_COEFS[1:], start=1):
        np.add(z, i, out=term)
        series += np.divide(c, term, out=term)
    t = z + _LANCZOS_G
    t += 0.5
    out = np.log(t)
    with np.errstate(over="ignore"):   # inf near the largest float, as log_gamma is
        out *= np.add(z, 0.5, out=z)
    out += _HALF_LOG_TWO_PI
    out -= t
    out += np.log(series, out=series)
    if small.size:
        out[small] -= np.log(xv[small])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def digamma(x):
    """Derivative of log_gamma for x > 0.

    Every argument is shifted up by exactly 9 with the recurrence
    psi(x) = psi(x+1) - 1/x, then the Stirling-type asymptotic series is
    applied at x + 9.  The error against scipy.special.psi stays within
    5e-14 * max(|psi|, 1).
    """
    x = np.asarray(x, dtype=float)
    y = x.flatten()                      # a copy: the shifts go into it
    _check_positive(y, "digamma")

    with np.errstate(over="ignore"):   # 1/x is inf for the smallest subnormals: psi is -inf
        acc = np.divide(1.0, y)
    inv = np.empty_like(y)
    for _ in range(8):
        y += 1.0
        acc += np.divide(1.0, y, out=inv)
    y += 1.0
    with np.errstate(over="ignore"):   # y * y is inf above 1.3e154, and its reciprocal 0
        inv2 = 1.0 / (y * y)
    series = inv2 * (
        1.0 / 12.0
        - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0)))
    )
    out = np.log(y)
    out -= 0.5 / y
    out -= series
    out -= acc
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


# ---------------------------------------------------------------------------
# Reductions over the category axis
# ---------------------------------------------------------------------------

# numpy reduces each row of an (N, K) array in a loop of its own, which for
# the few categories here costs more than the arithmetic.  Reducing a
# transposed copy over its first axis combines whole columns, in numpy's order
# for fewer than 8 components, so the bits are the same; from 8 on numpy's sum
# is pairwise and its max is vectorized, so those stay with numpy.  So does one
# row, where the copy costs more than it saves.

def _columns(x: np.ndarray):
    """x's columns as the rows of a contiguous copy, or None where numpy's own
    row reduction is kept."""
    if x.ndim != 2 or len(x) < 2 or x.shape[1] >= 8:
        return None
    return np.ascontiguousarray(x.T)


def _row_sum(x: np.ndarray):
    """x.sum(axis=-1), bit for bit."""
    cols = _columns(x)
    return x.sum(axis=-1) if cols is None else cols.sum(axis=0)


# ---------------------------------------------------------------------------
# Chernoff / Bhattacharyya distance between Dirichlet distributions
# ---------------------------------------------------------------------------

def _check_tau(tau: float) -> None:
    if not 0.0 < tau < 1.0:
        raise InputError(f"tau must lie in (0, 1), got {tau}")


def _target_term(b: np.ndarray, tau: float) -> np.ndarray:
    """The part of the closed form that depends on b alone, per row of b.

    Components near the largest float have an infinite log_gamma, and the
    term is then inf or NaN without numpy's warnings: the loss it enters
    is checked for that.
    """
    lg = log_gamma(np.concatenate([b.ravel(), np.ravel(_row_sum(b))]))
    with np.errstate(over="ignore", invalid="ignore"):
        return (1.0 - tau) * (_row_sum(lg[: b.size].reshape(b.shape))
                              - lg[b.size :].reshape(b.shape[:-1]))


def _chernoff(a: np.ndarray, b: np.ndarray, tau: float, target=None, grad: bool = False,
              value: bool = True):
    """Closed-form Chernoff distance, and with grad=True also its gradient with
    respect to a's components; a, b have shape (..., K).  With value=False
    (and grad=True) the distance is not computed, and is None.

    target is _target_term(b, tau), which callers that score the same b many
    times compute once.  log_gamma, and digamma for the gradient, run once on
    the sums and components of m = tau*a + (1-tau)*b and of a laid end to end;
    both act element by element, so each term has the value a separate call
    would give it.
    """
    if value and target is None:
        target = _target_term(b, tau)
    m = tau * a + (1.0 - tau) * b
    rows, size = a.shape[:-1], a.size
    n = size // a.shape[-1]
    x = np.concatenate([np.ravel(_row_sum(m)), m.ravel(), a.ravel(), np.ravel(_row_sum(a))])

    def split(values):
        return (values[:n].reshape(rows), values[n : n + size].reshape(a.shape),
                values[n + size : n + 2 * size].reshape(a.shape),
                values[n + 2 * size :].reshape(rows))

    J = None
    if value:
        lg_sm, lg_m, lg_a, lg_sa = split(log_gamma(x))
        J = lg_sm - _row_sum(lg_m) + tau * (_row_sum(lg_a) - lg_sa) + target
    if not grad:
        return J
    psi_sm, psi_m, psi_a, psi_sa = split(digamma(x))
    return J, tau * (psi_sm[..., None] - psi_m + psi_a - psi_sa[..., None])


def chernoff(a: DirichletParams, b: DirichletParams, tau: float = 0.5) -> float:
    """Chernoff distance between Dirichlet(a) and Dirichlet(b).

    tau = 1/2 gives the (symmetric) Bhattacharyya distance.  Zero iff the
    parameter vectors coincide; clamped at zero against rounding.
    """
    _check_tau(tau)
    if len(a) != len(b):
        raise ValueError("parameter vectors must have equal length")
    return float(max(_chernoff(a.alpha, b.alpha, tau), 0.0))


def chernoff_grad(a: DirichletParams, b: DirichletParams, tau: float = 0.5) -> np.ndarray:
    """Partial derivatives of chernoff(a, b, tau) w.r.t. a's components."""
    _check_tau(tau)
    if len(a) != len(b):
        raise ValueError("parameter vectors must have equal length")
    return _chernoff(a.alpha, b.alpha, tau, grad=True)[1]


# ---------------------------------------------------------------------------
# Prediction head
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeadModel:
    """Linear score map plus the learned mixing matrix of the two softmax
    branches."""

    A: np.ndarray          # (d, K) feature -> raw score map
    bias: np.ndarray       # (K,)
    W: np.ndarray          # (K, K) mixing matrix for the response branch
    alpha0_sum: float      # prior parameter sum

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        bias = np.asarray(self.bias, dtype=float)
        W = np.asarray(self.W, dtype=float)
        k = bias.size
        if A.ndim != 2 or A.shape[1] != k or W.shape != (k, k):
            raise ValueError(f"inconsistent parameter shapes: A {A.shape}, bias {bias.shape}, W {W.shape}")
        _check_finite_params((A, bias, W))
        try:   # an int past the float range compares below inf, but no float holds it
            finite = 0 < self.alpha0_sum < math.inf and math.isfinite(self.alpha0_sum)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"alpha0_sum must be positive and finite, got {self.alpha0_sum}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "W", W)

    @property
    def params(self) -> tuple:
        return self.A, self.bias, self.W

    @property
    def feature_dim(self) -> int:
        return self.A.shape[0]

    @property
    def num_categories(self) -> int:
        return self.bias.size


def _check_finite_params(params) -> None:
    for name, arr in zip(("A", "bias", "W"), params):
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite entries in {name}")


def softmax(z: np.ndarray) -> np.ndarray:
    cols = _columns(z)
    if cols is None:
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)
    # the same steps on the transposed copy, whose rows are the categories
    cols -= cols.max(axis=0)
    np.exp(cols, out=cols)
    cols /= cols.sum(axis=0)
    return np.ascontiguousarray(cols.T)


def _forward_batch(params, alpha0_sum: float, X: np.ndarray, n: np.ndarray):
    A, bias, W = params
    Z = X @ A + bias
    # softmax acts row by row, so one call on Z stacked over Z W' gives both
    # branches with the bits of two calls, and pays a call's fixed cost once
    both = softmax(np.concatenate((Z, Z @ W.T)))
    S, Sigma = both[: len(Z)], both[len(Z) :]
    alpha = alpha0_sum * S + n[:, None] * Sigma
    return alpha, Z, S, Sigma


def head_forward(model: HeadModel, features: np.ndarray, n: int) -> DirichletParams:
    """Predict Dirichlet parameters for one task at response count n.

    By construction the components sum to alpha0_sum + n.  Features too large
    for the model's scores leave components that are not positive and finite:
    that raises FloatingPointError.

    The bits are those of _forward_batch on this one row, without its N-row
    softmax: the two products, one max-shift, one exp and numpy's row sums of
    the stacked (2, K) scores stay numpy's (from 8 components on the row sum
    is pairwise, which a Python sum is not), and the divisions and the blend
    are the same IEEE operations on Python floats.
    """
    features = np.asarray(features, dtype=float)
    if features.shape != (model.feature_dim,):
        raise ValueError(
            f"feature shape {features.shape} does not match model dimension ({model.feature_dim},)"
        )
    if not all(map(math.isfinite, features.tolist())):
        raise ValueError("non-finite feature values")
    if not n >= 0:   # NaN too
        raise InputError("response count n must be non-negative")
    Z = features[None, :] @ model.A + model.bias
    rows = np.concatenate((Z, Z @ model.W.T))
    rows -= np.maximum.reduce(rows, axis=1, keepdims=True)
    np.exp(rows, out=rows)
    # each row sums to at least 1, its maximum's exp, or to NaN: no division by zero
    (s, t), (e, f) = np.add.reduce(rows, axis=1).tolist(), rows.tolist()
    a0, n = float(model.alpha0_sum), float(n)
    alpha = [a0 * (x / s) + n * (y / t) for x, y in zip(e, f)]
    try:
        return DirichletParams(alpha)
    except InputError:   # features too large for the model's scores
        raise FloatingPointError(f"forward alpha not positive and finite: {alpha}")


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    learning_rate: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.995
    warmup_iters: Optional[int] = None   # defaults to ceil(2 / (1 - beta2))
    batch_size: int = 256
    epochs: int = 200
    tau: float = 0.5
    seed: int = 0
    select: str = "best"                 # "best" (monitored loss) or "last"

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InputError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise InputError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.warmup_iters is not None and self.warmup_iters < 0:
            raise InputError(f"warmup_iters must be non-negative, got {self.warmup_iters}")
        _check_tau(self.tau)
        check_seed(self.seed)
        if self.select not in ("best", "last"):
            raise InputError(f"unknown model selection rule {self.select!r}")
        if self.warmup_iters is None:
            self.warmup_iters = math.ceil(2.0 / (1.0 - self.beta2))


def _unflatten(theta: np.ndarray, d: int, k: int) -> tuple:
    """A (d, K), bias (K,) and W (K, K) as views of the flat vector theta."""
    return (theta[: d * k].reshape(d, k), theta[d * k : (d + 1) * k],
            theta[(d + 1) * k :].reshape(k, k))


def _adam_step(theta, m, v, g, t: int, cfg: TrainConfig) -> None:
    """Adam's step t on the flat parameters theta, their gradient g and the
    moments m and v, all updated in place."""
    lr = cfg.learning_rate * min(1.0, t / max(cfg.warmup_iters, 1))
    m[:] = cfg.beta1 * m + (1 - cfg.beta1) * g
    v[:] = cfg.beta2 * v + (1 - cfg.beta2) * g * g
    mhat = m / (1 - cfg.beta1 ** t)
    vhat = v / (1 - cfg.beta2 ** t)
    theta -= lr * mhat / (np.sqrt(vhat) + 1e-8)


def _arrays(data, name: str):
    """data as float arrays X (N, d), T (N, K), n (N,) and w (N,), checked for shape."""
    X, T, n, w = (np.asarray(a, dtype=float) for a in data)
    if X.ndim != 2 or T.ndim != 2 or not X.shape[:1] == T.shape[:1] == n.shape == w.shape:
        raise ValueError(f"{name} must be arrays X (N, d), T (N, K), n (N,), w (N,); got "
                         f"shapes {X.shape}, {T.shape}, {n.shape}, {w.shape}")
    return X, T, n, w


def _loss_grads(params, alpha0_sum, X, T, n, w, tau, target=None, grad=False, value=True):
    """Weighted mean Chernoff loss, the per-row losses J and, with grad=True,
    the gradients (dA, dbias, dW).

    target is _target_term(T, tau) when the caller has it.  A degenerate
    prediction makes the loss and its rows of J infinite, without gradients;
    so does, with grad=True, a row whose gradient is not finite (digamma of
    a subnormal component is -inf while the loss stays finite).  value=False
    (with grad=True) skips the loss: it and J are None where the gradients
    are returned, and where they are not J is 0 on the good rows.
    """
    alpha, Z, S, Sigma = _forward_batch(params, alpha0_sum, X, n)
    if not positive_finite(alpha):
        # softmax underflow or exploded weights leave zero/non-finite
        # components, where the loss is divergent
        bad = ~(np.isfinite(alpha) & (alpha > 0)).all(axis=-1)
        return math.inf, np.where(bad, np.inf, 0.0), None
    wn = w / w.sum()
    if not grad:
        J = _chernoff(alpha, T, tau, target)
        return float(J @ wn), J, None
    J, G = _chernoff(alpha, T, tau, target, grad=True, value=value)
    finite = np.isfinite(G).all(axis=-1)
    if not finite.all():
        return math.inf, np.where(finite, 0.0 if J is None else J, np.inf), None
    G = G * wn[:, None]
    W = params[2]
    dS = alpha0_sum * G
    dZ = S * dS - S * _row_sum(S * dS)[:, None]
    dSigma = n[:, None] * G
    dU = Sigma * dSigma - Sigma * _row_sum(Sigma * dSigma)[:, None]
    dZ = dZ + dU @ W
    dW = dU.T @ Z
    dA = X.T @ dZ
    dbias = dZ.sum(axis=0)
    return None if J is None else float(J @ wn), J, (dA, dbias, dW)


# Components below this keep every log_gamma argument of a minibatch loss,
# row sums of up to 1e200 categories included, far below the 2.5e305 past
# which log_gamma overflows.
_LOSS_BOUND = 1e100


def _losses_finite(alpha0_sum: float, T, n, w, tau: float) -> bool:
    """Whether every minibatch loss over these examples is finite wherever its
    forward is positive and finite, so that a training step need not compute
    it to check.

    Both softmax branches are at most 1, so a predicted component is at most
    |alpha0_sum| + |n|; each component of m = tau*a + (1-tau)*T lies between
    those of a and T, and is positive while (1-tau)*T does not round to 0.
    T itself is positive and finite, or _target_term refuses it.  Weights
    that are positive and finite keep the weighted mean finite.  A NaN fails
    every comparison, so it keeps the loss.
    """
    return bool(abs(alpha0_sum) < _LOSS_BOUND and np.abs(n).max() < _LOSS_BOUND
                and T.max() < _LOSS_BOUND and (1.0 - tau) * T.min() > 0.0
                and positive_finite(w))


def init_model(feature_dim: int, num_categories: int, alpha0_sum: float,
               rng: np.random.Generator) -> HeadModel:
    A = rng.normal(0.0, 0.1 / math.sqrt(feature_dim), size=(feature_dim, num_categories))
    return HeadModel(
        A=A,
        bias=np.zeros(num_categories),
        W=np.eye(num_categories),
        alpha0_sum=alpha0_sum,
    )


def train_head(
    data: tuple,
    cfg: TrainConfig,
    val_dataset: Optional[tuple] = None,
    alpha0_sum: Optional[float] = None,
    callback: Optional[Callable[[int, float, Optional[float]], None]] = None,
    task_ids: Optional[Sequence[str]] = None,
    *,
    last_epoch_only: bool = False,
) -> HeadModel:
    """Fit the head by Adam on the weighted mean Bhattacharyya/Chernoff loss.

    data and val_dataset are (X, T, n, w): features (N, d), target
    concentrations (N, K), response counts and example weights (N,); an empty
    val_dataset counts as none.  task_ids, one per row of data, name the
    example whose loss turns non-finite.

    Model selection keeps the epoch with the lowest monitored loss
    (validation loss when a validation set is given, else training loss);
    cfg.select="last" disables the snapshotting.  Where no epoch's monitored
    loss is finite, there is no epoch to keep, and RuntimeError is raised
    after the last epoch.  The optional callback
    receives (epoch, train_loss, val_loss) after every epoch, or with
    last_epoch_only=True after the last one only.  Each full-set loss costs a
    forward and a Chernoff pass, so an epoch computes one only where model
    selection monitors it or the callback receives it.
    """
    X, T, n, w = _arrays(data, "data")
    N, k = T.shape
    if not N:
        raise ValueError("empty training dataset")
    if task_ids is None:
        task_ids = [f"row {i}" for i in range(N)]
    elif len(task_ids) != N:
        raise ValueError(f"{len(task_ids)} task ids for {N} training examples")
    target = _target_term(T, cfg.tau)
    if alpha0_sum is None:
        alpha0_sum = float(k)
    # Adam reads only the gradient: a step computes its loss only where it
    # might not be finite, to name the example that makes it so
    check_loss = not _losses_finite(alpha0_sum, T, n, w, cfg.tau)
    if val_dataset is not None and len(val_dataset[0]):
        Xv, Tv, nv, wv = _arrays(val_dataset, "val_dataset")
        if (Xv.shape[1], Tv.shape[1]) != (X.shape[1], k):
            raise ValueError(f"val_dataset's (d, K) {Xv.shape[1], Tv.shape[1]} differ from data's")
        target_v = _target_term(Tv, cfg.tau)
    else:
        val_dataset = None

    rng = np.random.default_rng(cfg.seed)
    d = X.shape[1]
    theta = np.concatenate(init_model(d, k, alpha0_sum, rng).params, axis=None)
    params = _unflatten(theta, d, k)     # views: every step updates theta in place
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    t = 0

    monitor = cfg.select == "best"
    best_loss = math.inf
    best_theta = theta.copy()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(N)
        report = callback is not None and (epoch == cfg.epochs or not last_epoch_only)
        train_loss = val_loss = None
        # an overflow or NaN in a step is refused by the checks on its forward,
        # gradient, loss and parameters, not left to numpy's warnings; a
        # full-set loss past the float range is passed on as inf or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, N, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, J, grads = _loss_grads(params, alpha0_sum, X[idx], T[idx], n[idx], w[idx],
                                             cfg.tau, target[idx], grad=True, value=check_loss)
                t += 1
                if grads is None or check_loss and not math.isfinite(loss):
                    bad = idx[~np.isfinite(J)]
                    bad_id = brief_text(str(task_ids[bad[0]])) if bad.size else "unknown"
                    raise RuntimeError(f"non-finite training loss at iteration {t}, "
                                       f"example {bad_id}")
                _adam_step(theta, m, v, np.concatenate(grads, axis=None), t, cfg)
                if not np.isfinite(theta).all():
                    _check_finite_params(params)
            if report or (monitor and val_dataset is None):
                train_loss = _loss_grads(params, alpha0_sum, X, T, n, w, cfg.tau, target)[0]
            if val_dataset is not None and (report or monitor):
                val_loss = _loss_grads(params, alpha0_sum, Xv, Tv, nv, wv, cfg.tau, target_v)[0]

        if monitor:
            monitored = train_loss if val_loss is None else val_loss
            if monitored < best_loss:
                best_loss = monitored
                best_theta = theta.copy()
        if report:
            callback(epoch, train_loss, val_loss)

    if monitor and best_loss == math.inf:   # every loss was NaN or inf
        which = "training" if val_dataset is None else "validation"
        raise RuntimeError(f"non-finite {which} loss in every epoch: no epoch to select")
    return HeadModel(*_unflatten(best_theta if monitor else theta, d, k), alpha0_sum)


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------

_MODEL_FORMAT = 1


def _is_matrix(value) -> bool:
    """Whether a decoded JSON value is rows of numbers, all of one length."""
    return is_numbers(value, 2) and len(set(map(len, value))) <= 1


def save_model(path, model: HeadModel) -> None:
    payload = {
        "format_version": _MODEL_FORMAT,
        "d": model.feature_dim,
        "C": model.num_categories - 1,
        "alpha0_sum": model.alpha0_sum,
        "A": model.A.tolist(),
        "bias": model.bias.tolist(),
        "W": model.W.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path) -> HeadModel:
    """The model a model file holds; a malformed file raises InputError."""
    payload = read_json_object(path, "model parameters", {
        "format_version": (str(_MODEL_FORMAT),
                           lambda v: type(v) is int and v == _MODEL_FORMAT),
        "A": ("a matrix of numbers", _is_matrix),
        "bias": ("a list of numbers", lambda v: is_numbers(v, 1)),
        "W": ("a matrix of numbers", _is_matrix),
        "alpha0_sum": ("a positive finite number",
                       lambda v: is_numbers(v) and 0 < v <= sys.float_info.max),
        "d": ("an integer", lambda v: type(v) is int),
        "C": ("an integer", lambda v: type(v) is int),
    })
    try:
        model = HeadModel(payload["A"], payload["bias"], payload["W"], float(payload["alpha0_sum"]))
    except ValueError as exc:   # mis-shaped or non-finite parameters
        raise InputError(f"{path}: {exc}") from None
    for key, value, what in (("d", model.feature_dim, "the number of rows of A"),
                             ("C", model.num_categories - 1, "one less than the length of bias")):
        if payload[key] != value:
            raise InputError(f"{path}: key {key!r} must be {value}, {what}, "
                             f"got {brief.repr(payload[key])}")
    return model
