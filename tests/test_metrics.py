import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crowdinfer.core import SoftLabel
from crowdinfer.metrics import (
    AmbiguityConfig,
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
    return SoftLabel(v / v.sum())


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
    assert ambiguity(SoftLabel([0.0, 0.0, 1.0])) == 1.0
    assert ambiguity(SoftLabel([0.0, 1.0, 0.0])) == 0.0
    assert ambiguity(SoftLabel([1.0, 0.0, 0.0])) == 0.0


def test_ambiguity_frozen_value():
    # hand evaluation: p = (1/19, 18/19), pi = 0.95, eta = exp(0.05 * gamma)
    got = ambiguity(SoftLabel([0.05, 0.9, 0.05]))
    assert got == pytest.approx(0.2884419795242179, abs=1e-12)


def test_ambiguity_max_at_conditional_uniform():
    # uniform conditional distribution: base term vanishes entirely
    assert ambiguity(SoftLabel([0.45, 0.45, 0.1])) == pytest.approx(1.0)


def test_ambiguity_grows_with_cs_share():
    cfg = AmbiguityConfig()
    low = ambiguity(SoftLabel([0.8, 0.15, 0.05]), cfg)
    high = ambiguity(SoftLabel([0.64, 0.12, 0.24]), cfg)  # same conditional, more cs
    assert high > low


def test_ambiguity_needs_two_proper_categories():
    with pytest.raises(ValueError):
        ambiguity(SoftLabel([0.5, 0.5]))


@given(simplex_strategy)
def test_ambiguity_in_unit_interval(q):
    assert 0.0 <= ambiguity(q) <= 1.0


# ---------------------------------------------------------------------------
# confidence
# ---------------------------------------------------------------------------

def test_confidence_anchors():
    assert confidence(SoftLabel([0.0, 1.0, 0.0])) == 1.0
    assert confidence(SoftLabel([1 / 3, 1 / 3, 1 / 3])) == pytest.approx(0.0, abs=1e-15)
    assert confidence(SoftLabel([0.5, 0.25, 0.25])) == pytest.approx(0.25)


@given(simplex_strategy)
def test_confidence_in_unit_interval(q):
    assert -1e-12 <= confidence(q) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# soft distance
# ---------------------------------------------------------------------------

def test_soft_distance_worked_example():
    # unanimous (no, yes, cs) = (0,1,0) against prediction (0.03, 0.9, 0.07)
    d = soft_distance(SoftLabel([0.03, 0.9, 0.07]), SoftLabel([0.0, 1.0, 0.0]))
    assert d == pytest.approx(0.1, abs=1e-15)


def test_soft_distance_one_between_distinct_one_hots():
    a = SoftLabel([1.0, 0.0, 0.0])
    b = SoftLabel([0.0, 1.0, 0.0])
    assert soft_distance(a, b) == 1.0


def test_soft_distance_zero_iff_equal():
    q = SoftLabel([0.2, 0.5, 0.3])
    assert soft_distance(q, q) == 0.0
    assert soft_distance(SoftLabel([0.2, 0.5, 0.3]), SoftLabel([0.2, 0.45, 0.35])) > 0.0


def test_soft_distance_not_symmetric():
    # the reference owns the normalization, so swapping arguments matters
    a = SoftLabel([0.5, 0.5, 0.0])
    b = SoftLabel([0.9, 0.1, 0.0])
    assert soft_distance(a, b) != soft_distance(b, a)


@given(simplex_strategy, simplex_strategy)
def test_soft_distance_bounded(pair1, pair2):
    if len(pair1) != len(pair2):
        return
    assert 0.0 <= soft_distance(pair1, pair2) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform():
    u = SoftLabel([1 / 3, 1 / 3, 1 / 3])
    assert cross_entropy(u, u) == pytest.approx(math.log(3.0), abs=1e-12)


def test_cross_entropy_infinite_on_missing_support():
    ref = SoftLabel([0.5, 0.5, 0.0])
    hat = SoftLabel([1.0, 0.0, 0.0])
    assert cross_entropy(ref, hat) == math.inf
    # zero-mass reference categories do not trigger it
    assert math.isfinite(cross_entropy(hat, ref))


def test_cross_entropy_minimized_at_reference():
    ref = SoftLabel([0.2, 0.7, 0.1])
    assert cross_entropy(ref, ref) < cross_entropy(ref, SoftLabel([0.3, 0.6, 0.1]))


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
    assert soft_weight(SoftLabel([0.5, 0.5, 0.0]), w) == pytest.approx(3.0)
    assert soft_weight(SoftLabel([0.0, 0.0, 1.0]), w) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_perfect_predictions():
    labels = {
        "a": SoftLabel([0.2, 0.8, 0.0]),
        "b": SoftLabel([0.6, 0.3, 0.1]),
    }
    report = evaluate(labels, dict(labels))
    assert report.acc == 1.0
    assert report.mean_D == 0.0
    assert report.prec_cs is None and report.rec_cs is None
    assert report.infinite_H == 0


def test_evaluate_cs_precision_recall():
    preds = {
        "a": SoftLabel([0.1, 0.2, 0.7]),  # predicted cs, ref cs  -> tp
        "b": SoftLabel([0.1, 0.2, 0.7]),  # predicted cs, ref yes -> fp
        "c": SoftLabel([0.2, 0.7, 0.1]),  # predicted yes, ref cs -> fn
    }
    refs = {
        "a": SoftLabel([0.2, 0.2, 0.6]),
        "b": SoftLabel([0.1, 0.8, 0.1]),
        "c": SoftLabel([0.1, 0.1, 0.8]),
    }
    report = evaluate(preds, refs)
    assert report.acc == pytest.approx(1 / 3)
    assert report.prec_cs == pytest.approx(1 / 2)
    assert report.rec_cs == pytest.approx(1 / 2)


def test_evaluate_weighted_means_use_reference_weights():
    preds = {"a": SoftLabel([1.0, 0.0, 0.0]), "b": SoftLabel([0.0, 1.0, 0.0])}
    refs = {"a": SoftLabel([1.0, 0.0, 0.0]), "b": SoftLabel([0.0, 1.0, 0.0])}
    w = np.array([1.0, 3.0, 1.0])
    report = evaluate(preds, refs, w)
    assert report.mean_D_weighted == 0.0
    # hand check of the weighting on a non-trivial distance
    preds["b"] = SoftLabel([0.5, 0.5, 0.0])
    report = evaluate(preds, refs, w)
    # D(a)=0 weight 1, D(b)=0.5 weight 3 -> weighted mean 0.375, plain 0.25
    assert report.mean_D == pytest.approx(0.25)
    assert report.mean_D_weighted == pytest.approx(0.375)


def test_evaluate_flags_infinite_cross_entropy():
    preds = {"a": SoftLabel([1.0, 0.0, 0.0])}
    refs = {"a": SoftLabel([0.5, 0.5, 0.0])}
    report = evaluate(preds, refs)
    assert report.infinite_H == 1
    assert report.mean_H == math.inf
    assert report.to_dict()["mean_H"] is None  # serialized as null


def test_evaluate_requires_matching_ids():
    with pytest.raises(ValueError):
        evaluate({"a": SoftLabel([1.0, 0.0])}, {"b": SoftLabel([1.0, 0.0])})


# ---------------------------------------------------------------------------
# geometric median
# ---------------------------------------------------------------------------

def test_geometric_median_single_point():
    q = SoftLabel([0.2, 0.3, 0.5])
    assert np.allclose(geometric_median([q]).q, q.q)


def test_geometric_median_symmetric_pair():
    a = SoftLabel([0.8, 0.2, 0.0])
    b = SoftLabel([0.2, 0.8, 0.0])
    m = geometric_median([a, b])
    assert np.allclose(m.q, [0.5, 0.5, 0.0], atol=1e-8)


def test_geometric_median_majority_of_duplicates():
    # with 3 copies at one point and 1 elsewhere, the median sits on the copies
    a = SoftLabel([0.7, 0.2, 0.1])
    b = SoftLabel([0.1, 0.8, 0.1])
    m = geometric_median([a, a, a, b])
    assert np.allclose(m.q, a.q, atol=1e-6)


def test_geometric_median_against_grid_search():
    points = [
        SoftLabel([0.7, 0.2, 0.1]),
        SoftLabel([0.2, 0.6, 0.2]),
        SoftLabel([0.3, 0.3, 0.4]),
        SoftLabel([0.5, 0.4, 0.1]),
    ]
    m = geometric_median(points)

    def cost(y):
        return sum(np.linalg.norm(y - p.q) for p in points)

    # dense grid over the simplex as an independent minimizer
    best, best_cost = None, math.inf
    for i in range(101):
        for j in range(101 - i):
            y = np.array([i / 100, j / 100, (100 - i - j) / 100])
            c = cost(y)
            if c < best_cost:
                best, best_cost = y, c
    assert cost(m.q) <= best_cost + 1e-6
    assert np.max(np.abs(m.q - best)) < 2e-2  # grid resolution bound
