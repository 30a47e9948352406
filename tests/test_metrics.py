import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdinfer.core import InputError
from crowdinfer.metrics import (
    DEFAULT_AMBIGUITY,
    AmbiguityConfig,
    MetricsReport,
    ambiguity,
    confidence,
    cross_entropy,
    evaluate,
    geometric_median,
    hard_weights,
    soft_distance,
    soft_weight,
)


def simplex(values):
    v = np.asarray(values, dtype=float)
    return v / v.sum()


simplex_strategy = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=6
).map(simplex)


# ---------------------------------------------------------------------------
# ambiguity
# ---------------------------------------------------------------------------

def test_gamma_calibration_anchor():
    cfg = AmbiguityConfig()
    assert cfg.gamma == pytest.approx(math.log(0.4) / 0.2, abs=1e-12)
    # the discount must be exactly eta0 at solvability pi0
    assert abs(math.exp(0.2 * cfg.gamma) - 0.4) < 1e-12


def test_ambiguity_anchors():
    assert ambiguity([0.0, 0.0, 1.0]) == 1.0
    assert ambiguity([0.0, 1.0, 0.0]) == 0.0
    assert ambiguity([1.0, 0.0, 0.0]) == 0.0


def test_ambiguity_frozen_value():
    # hand evaluation: p = (1/19, 18/19), pi = 0.95, eta = exp(0.05 * gamma)
    got = ambiguity([0.05, 0.9, 0.05])
    assert got == pytest.approx(0.2884419795242179, abs=1e-12)


def test_ambiguity_max_at_conditional_uniform():
    # uniform conditional distribution: base term vanishes entirely
    assert ambiguity([0.45, 0.45, 0.1]) == pytest.approx(1.0)


def test_ambiguity_grows_with_cs_share():
    cfg = AmbiguityConfig()
    low = ambiguity([0.8, 0.15, 0.05], cfg)
    high = ambiguity([0.64, 0.12, 0.24], cfg)  # same conditional, more cs
    assert high > low


def test_ambiguity_needs_two_proper_categories():
    with pytest.raises(ValueError):
        ambiguity([0.5, 0.5])


@given(simplex_strategy)
def test_ambiguity_in_unit_interval(q):
    assert 0.0 <= ambiguity(q) <= 1.0


# ---------------------------------------------------------------------------
# confidence
# ---------------------------------------------------------------------------

def test_confidence_anchors():
    assert confidence([0.0, 1.0, 0.0]) == 1.0
    assert confidence([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(0.0, abs=1e-15)
    assert confidence([0.5, 0.25, 0.25]) == pytest.approx(0.25)


@given(simplex_strategy)
def test_confidence_in_unit_interval(q):
    assert -1e-12 <= confidence(q) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# soft distance
# ---------------------------------------------------------------------------

def test_soft_distance_worked_example():
    # unanimous (no, yes, cs) = (0,1,0) against prediction (0.03, 0.9, 0.07)
    d = soft_distance([0.03, 0.9, 0.07], [0.0, 1.0, 0.0])
    assert d == pytest.approx(0.1, abs=1e-15)


def test_soft_distance_one_between_distinct_one_hots():
    a = [1.0, 0.0, 0.0]
    b = [0.0, 1.0, 0.0]
    assert soft_distance(a, b) == 1.0


def test_soft_distance_zero_iff_equal():
    q = [0.2, 0.5, 0.3]
    assert soft_distance(q, q) == 0.0
    assert soft_distance([0.2, 0.5, 0.3], [0.2, 0.45, 0.35]) > 0.0


def test_soft_distance_not_symmetric():
    # the reference owns the normalization, so swapping arguments matters
    a = [0.5, 0.5, 0.0]
    b = [0.9, 0.1, 0.0]
    assert soft_distance(a, b) != soft_distance(b, a)


@given(simplex_strategy, simplex_strategy)
def test_soft_distance_bounded(pair1, pair2):
    if pair1.size != pair2.size:
        return
    assert 0.0 <= soft_distance(pair1, pair2) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform():
    u = [1 / 3, 1 / 3, 1 / 3]
    assert cross_entropy(u, u) == pytest.approx(math.log(3.0), abs=1e-12)


def test_cross_entropy_infinite_on_missing_support():
    ref = [0.5, 0.5, 0.0]
    hat = [1.0, 0.0, 0.0]
    assert cross_entropy(ref, hat) == math.inf
    # zero-mass reference categories do not trigger it
    assert math.isfinite(cross_entropy(hat, ref))


def test_cross_entropy_minimized_at_reference():
    ref = [0.2, 0.7, 0.1]
    assert cross_entropy(ref, ref) < cross_entropy(ref, [0.3, 0.6, 0.1])


# ---------------------------------------------------------------------------
# class weights
# ---------------------------------------------------------------------------

def test_hard_weights_frozen_values():
    w = hard_weights(np.array([4, 1, 0]))
    assert np.allclose(w, [8 / 15, 8 / 6, 8 / 3])


def test_hard_weights_uniform_counts_near_one():
    w = hard_weights(np.array([10, 10, 10]))
    assert np.allclose(w, (30 + 3) / (3 * 11))


def test_soft_weight_expected_value():
    w = np.array([2.0, 4.0, 1.0])
    assert soft_weight([0.5, 0.5, 0.0], w) == pytest.approx(3.0)
    assert soft_weight([0.0, 0.0, 1.0], w) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_perfect_predictions():
    labels = np.array([[0.2, 0.8, 0.0], [0.6, 0.3, 0.1]])
    report = evaluate(labels, labels.copy())
    assert report.acc == 1.0
    assert report.mean_D == 0.0
    assert report.prec_cs is None and report.rec_cs is None
    assert report.infinite_H == 0


def test_evaluate_cs_precision_recall():
    preds = np.array([
        [0.1, 0.2, 0.7],  # predicted cs, ref cs  -> tp
        [0.1, 0.2, 0.7],  # predicted cs, ref yes -> fp
        [0.2, 0.7, 0.1],  # predicted yes, ref cs -> fn
    ])
    refs = np.array([
        [0.2, 0.2, 0.6],
        [0.1, 0.8, 0.1],
        [0.1, 0.1, 0.8],
    ])
    report = evaluate(preds, refs)
    assert report.acc == pytest.approx(1 / 3)
    assert report.prec_cs == pytest.approx(1 / 2)
    assert report.rec_cs == pytest.approx(1 / 2)


def test_evaluate_weighted_means_use_reference_weights():
    preds = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    refs = preds.copy()
    w = np.array([1.0, 3.0, 1.0])
    report = evaluate(preds, refs, w)
    assert report.mean_D_weighted == 0.0
    # hand check of the weighting on a non-trivial distance
    preds[1] = [0.5, 0.5, 0.0]
    report = evaluate(preds, refs, w)
    # D(a)=0 weight 1, D(b)=0.5 weight 3 -> weighted mean 0.375, plain 0.25
    assert report.mean_D == pytest.approx(0.25)
    assert report.mean_D_weighted == pytest.approx(0.375)


def test_evaluate_flags_infinite_cross_entropy():
    report = evaluate(np.array([[1.0, 0.0, 0.0]]), np.array([[0.5, 0.5, 0.0]]))
    assert report.infinite_H == 1
    assert report.mean_H == math.inf
    assert report.to_dict()["mean_H"] is None  # serialized as null


def test_evaluate_requires_matching_ids():
    # rows are the tasks, so predictions and references must align row by row
    with pytest.raises(ValueError, match="aligned"):
        evaluate(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="aligned"):
        evaluate(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="no tasks"):
        evaluate(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(InputError, match="does not sum to 1"):
        evaluate(np.array([[0.5, 0.4]]), np.array([[0.5, 0.5]]))


# ---------------------------------------------------------------------------
# row kernels against the per-task oracles
# ---------------------------------------------------------------------------

# The per-task bodies the row kernels replaced, kept as oracles: one label as
# a (K,) array in, one float out.

def _ambiguity_oracle(q, config=DEFAULT_AMBIGUITY):
    c = len(q) - 1
    proper = q[:-1]
    mass = proper.sum()
    if mass == 0.0:
        return 1.0
    p = proper / mass
    pi = 1.0 - q[-1]
    eta = math.exp(config.gamma * (1.0 - pi))
    value = 1.0 - (eta / 2.0) * (c / (c - 1.0)) * np.abs(p - 1.0 / c).sum()
    return float(min(1.0, max(0.0, value)))


def _confidence_oracle(q):
    k = len(q)
    return float((k * q.max() - 1.0) / (k - 1))


def _soft_distance_oracle(q_hat, q_ref):
    denom = np.maximum(q_ref, 1.0 - q_ref)
    return float(np.max(np.abs(q_hat - q_ref) / denom))


def _cross_entropy_oracle(q_ref, q_hat):
    support = q_ref > 0.0
    if (q_hat[support] == 0.0).any():
        return math.inf
    return float(-(q_ref[support] * np.log(q_hat[support])).sum())


def _soft_weight_oracle(q, weights):
    return float(q @ weights)


def _evaluate_oracle(q_hat, q_ref, weights):
    """The per-task evaluation loop, over aligned rows."""
    cs = q_ref.shape[1] - 1
    hits = pred_cs = both_cs = ref_cs = infinite = 0
    d_vals, h_vals, w_vals = (np.empty(len(q_ref)) for _ in range(3))
    for i, (qhat, qref) in enumerate(zip(q_hat, q_ref)):
        yh, yr = int(np.argmax(qhat)), int(np.argmax(qref))
        hits += yh == yr
        pred_cs += yh == cs
        ref_cs += yr == cs
        both_cs += (yh == cs) and (yr == cs)
        d_vals[i] = _soft_distance_oracle(qhat, qref)
        h_vals[i] = _cross_entropy_oracle(qref, qhat)
        w_vals[i] = _soft_weight_oracle(qref, weights)
        infinite += not math.isfinite(h_vals[i])
    wsum = w_vals.sum()
    return MetricsReport(
        acc=hits / len(q_ref),
        prec_cs=both_cs / pred_cs if pred_cs else None,
        rec_cs=both_cs / ref_cs if ref_cs else None,
        mean_D=float(d_vals.mean()),
        mean_D_weighted=float((d_vals * w_vals).sum() / wsum),
        mean_H=float(h_vals.mean()),
        mean_H_weighted=float((h_vals * w_vals).sum() / wsum),
        n_tasks=len(q_ref),
        infinite_H=infinite,
    )


def _random_labels(rng, n, k, zeros, spread):
    """n soft labels over k categories.  About a ``zeros`` share of the
    components are exactly zero, values spread over ``spread`` decades, and
    some rows are one-hot or all "can't solve" (proper mass 0)."""
    x = rng.random((n, k)) ** spread * (rng.random((n, k)) >= zeros)
    empty = x.sum(axis=1) == 0.0
    x[empty, rng.integers(0, k, size=empty.sum())] = 1.0
    special = rng.random(n)
    x[special < 0.05] = np.eye(k)[k - 1]
    x[(special >= 0.05) & (special < 0.1)] = np.eye(k)[rng.integers(0, k)]
    return x / x.sum(axis=1, keepdims=True)


@st.composite
def label_pairs(draw):
    """(q_hat, q_ref) of N = 1..600 rows, K = 2..12.  Some q_hat rows are
    their reference, others put zero mass on a supported reference
    component (infinite cross entropy)."""
    n, k = draw(st.integers(1, 600)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    spread = draw(st.sampled_from([1.0, 4.0, 12.0]))
    q_ref = _random_labels(rng, n, k, zeros, spread)
    q_hat = _random_labels(rng, n, k, draw(st.sampled_from([0.0, 0.2, 0.5])), spread)
    same = rng.random(n) < 0.1
    q_hat[same] = q_ref[same]
    return q_hat, q_ref


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _check_kernel(kernel, oracle, *rows, **kwargs):
    """kernel on the stacked rows equals oracle row by row, bitwise, and so
    does kernel on each single row (a float)."""
    got = kernel(*rows, **kwargs)
    want = [oracle(*one, **kwargs) for one in zip(*rows)]
    assert got.shape == (len(rows[0]),)
    assert _bits(got) == _bits(want)
    for i in (0, len(rows[0]) - 1):
        single = kernel(*(r[i] for r in rows), **kwargs)
        assert isinstance(single, float) and _bits(single) == _bits(want[i])


@settings(max_examples=60, deadline=None)
@given(label_pairs(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_row_kernels_match_per_task_oracles_bitwise(pair, eta0, pi0):
    q_hat, q_ref = pair
    k = q_ref.shape[1]
    if k >= 3:
        config = AmbiguityConfig(eta0, pi0)
        _check_kernel(ambiguity, _ambiguity_oracle, q_hat, config=config)
        _check_kernel(ambiguity, _ambiguity_oracle, q_ref, config=config)
    _check_kernel(confidence, _confidence_oracle, q_hat)
    _check_kernel(soft_distance, _soft_distance_oracle, q_hat, q_ref)
    _check_kernel(cross_entropy, _cross_entropy_oracle, q_ref, q_hat)
    weights = hard_weights(np.bincount(q_ref.argmax(axis=1), minlength=k))
    _check_kernel(lambda q: soft_weight(q, weights), lambda q: _soft_weight_oracle(q, weights),
                  q_ref)
    assert evaluate(q_hat, q_ref, weights) == _evaluate_oracle(q_hat, q_ref, weights)


def test_row_kernel_edge_rows_match_oracles():
    q_ref = np.array([[0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]])
    q_hat = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.0, 0.8]])
    h = cross_entropy(q_ref, q_hat)
    assert h[0] == 0.0 and h[1] == math.inf and h[2] == 0.0 and h[3] == math.inf
    assert ambiguity(q_ref)[0] == 1.0   # all mass on cs
    for kernel, oracle in ((ambiguity, _ambiguity_oracle), (confidence, _confidence_oracle)):
        assert _bits(kernel(q_ref)) == _bits([oracle(q) for q in q_ref])


def test_row_kernels_check_rows_like_soft_label():
    with pytest.raises(InputError, match=r"negative or NaN components: \[ 1\.1 -0\.1  0\. \]"):
        confidence(np.array([[0.2, 0.3, 0.5], [1.1, -0.1, 0.0]]))
    with pytest.raises(InputError, match="does not sum to 1"):
        ambiguity(np.array([[0.2, 0.3, 0.4]]))
    with pytest.raises(InputError, match="negative or NaN"):
        soft_distance(np.array([[np.nan, 0.5, 0.5]]), np.array([[0.0, 0.5, 0.5]]))
    with pytest.raises(ValueError, match="equal shapes"):
        cross_entropy(np.array([[0.5, 0.5, 0.0]]), np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ValueError, match=r"\(K,\) or \(N, K\) arrays"):
        confidence(np.full((1, 1, 2), 0.5))


# ---------------------------------------------------------------------------
# geometric median
# ---------------------------------------------------------------------------

def test_geometric_median_single_point():
    q = np.array([0.2, 0.3, 0.5])
    assert np.allclose(geometric_median(q[None]), q)


def test_geometric_median_symmetric_pair():
    m = geometric_median(np.array([[0.8, 0.2, 0.0], [0.2, 0.8, 0.0]]))
    assert np.allclose(m, [0.5, 0.5, 0.0], atol=1e-8)


def test_geometric_median_majority_of_duplicates():
    # with 3 copies at one point and 1 elsewhere, the median sits on the copies
    a = [0.7, 0.2, 0.1]
    b = [0.1, 0.8, 0.1]
    m = geometric_median(np.array([a, a, a, b]))
    assert np.allclose(m, a, atol=1e-6)


def test_geometric_median_started_on_a_data_point():
    """The mean of these labels is the last of them, so the iteration starts
    on a data point, stalls there and takes the correction; by symmetry that
    point is the median."""
    third = 1.0 / 3.0
    m = geometric_median(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                   [third, third, third]]))
    assert np.allclose(m, third, atol=1e-12)


def test_geometric_median_against_grid_search():
    points = np.array([
        [0.7, 0.2, 0.1],
        [0.2, 0.6, 0.2],
        [0.3, 0.3, 0.4],
        [0.5, 0.4, 0.1],
    ])
    m = geometric_median(points)

    def cost(y):
        return sum(np.linalg.norm(y - p) for p in points)

    # dense grid over the simplex as an independent minimizer
    best, best_cost = None, math.inf
    for i in range(101):
        for j in range(101 - i):
            y = np.array([i / 100, j / 100, (100 - i - j) / 100])
            c = cost(y)
            if c < best_cost:
                best, best_cost = y, c
    assert cost(m) <= best_cost + 1e-6
    assert np.max(np.abs(m - best)) < 2e-2  # grid resolution bound


def test_geometric_median_needs_rows():
    with pytest.raises(ValueError):
        geometric_median(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        geometric_median(np.array([0.2, 0.8]))
