import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdinfer import autothresh
from crowdinfer.autothresh import (
    ThresholdCalibration,
    ambiguity_calibration,
    bootstrap_curves,
    calibrate,
    curve,
    evaluate_thresholds,
    select_threshold,
    write_bins_csv,
    write_curve_csv,
)
from crowdinfer.core import InputError

# hand-checkable toy set: four tasks, the least confident one is wrong
CONF = [0.2, 0.4, 0.6, 0.8]
CORR = [False, True, True, True]


def test_curve_on_toy_set():
    thresholds, automation, accuracy = curve(CONF, CORR)
    assert thresholds.tolist() == [0.0, 0.2, 0.4, 0.6, 0.8]
    assert automation.tolist() == [1.0, 1.0, 0.75, 0.5, 0.25]
    assert accuracy.tolist() == [0.75, 0.75, 1.0, 1.0, 1.0]


def test_curve_without_sub_minimum_sentinel():
    # a zero-confidence task makes the 0.0 sentinel redundant
    thresholds, _, _ = curve([0.0, 0.5], [True, True])
    assert thresholds.tolist() == [0.0, 0.5]


def test_curve_retention_is_inclusive():
    # tasks at exactly the threshold stay automated
    thresholds, automation, _ = curve(CONF, CORR)
    assert automation[thresholds == 0.4].tolist() == [0.75]


def test_evaluate_single_midpoint_threshold():
    automation_ci, accuracy_ci, abstention_rate = evaluate_thresholds(CONF, CORR, [0.5])
    assert automation_ci == (0.5, 0.5)
    assert accuracy_ci == (1.0, 1.0)
    assert abstention_rate == 0.0


def test_select_threshold_monotone_in_target():
    # each resample's threshold rises with the target
    rng = np.random.default_rng(0)
    conf = rng.uniform(size=200)
    corr = rng.uniform(size=200) < conf
    prev = np.full(16, -1.0)
    for target in (0.5, 0.7, 0.9, 0.97):
        t = np.array(select_threshold(conf, corr, target, B=16, seed=3))
        assert (t >= prev).all()
        prev = t


def test_select_threshold_unreachable_target():
    assert select_threshold([0.9, 0.9], [False, False], 0.5, B=8) == [math.inf] * 8


def test_select_threshold_bootstrap_shape_and_determinism():
    rng = np.random.default_rng(7)
    conf = rng.uniform(size=120)
    corr = rng.uniform(size=120) < conf
    ts1 = select_threshold(conf, corr, 0.9, B=32, seed=5)
    ts2 = select_threshold(conf, corr, 0.9, B=32, seed=5)
    ts3 = select_threshold(conf, corr, 0.9, B=32, seed=6)
    assert len(ts1) == 32
    assert ts1 == ts2
    assert ts1 != ts3
    assert all(t == math.inf or 0.0 <= t <= 1.0 for t in ts1)


def test_evaluate_handles_abstain_all_sentinel():
    automation_ci, accuracy_ci, abstention_rate = evaluate_thresholds(
        CONF, CORR, [math.inf, math.inf, 0.5])
    assert abstention_rate == pytest.approx(2 / 3)
    assert automation_ci[0] == 0.0
    # accuracy interval uses only the realization that retains something
    assert accuracy_ci == (1.0, 1.0)


def test_evaluate_all_abstain_gives_nan_accuracy():
    _, accuracy_ci, abstention_rate = evaluate_thresholds(CONF, CORR, [math.inf])
    assert abstention_rate == 1.0
    assert math.isnan(accuracy_ci[0]) and math.isnan(accuracy_ci[1])


def test_evaluate_invariant_to_threshold_order():
    ths = [0.1, 0.45, 0.7, math.inf]
    a = evaluate_thresholds(CONF, CORR, ths)
    b = evaluate_thresholds(CONF, CORR, list(reversed(ths)))
    assert a == b


def test_bootstrap_bands_shapes_and_ordering():
    rng = np.random.default_rng(1)
    conf = rng.uniform(size=300)
    corr = rng.uniform(size=300) < 0.9
    bands = bootstrap_curves(conf, corr, B=64, seed=0)
    m = len(bands.thresholds)
    assert bands.automation.shape == (m,)
    assert bands.acc_q025.shape == bands.acc_q50.shape == bands.acc_q975.shape == (m,)
    finite = np.isfinite(bands.acc_q025)
    assert (bands.acc_q025[finite] <= bands.acc_q50[finite]).all()
    assert (bands.acc_q50[finite] <= bands.acc_q975[finite]).all()
    assert (np.diff(bands.automation) <= 0).all()


def test_bootstrap_all_correct_band_has_zero_width():
    bands = bootstrap_curves([0.3, 0.6, 0.9], [True, True, True], B=50, seed=0)
    finite = np.isfinite(bands.acc_q025)
    assert np.array_equal(bands.acc_q025[finite], bands.acc_q975[finite])
    assert (bands.acc_q50[finite] == 1.0).all()


def test_bootstrap_band_width_matches_binomial_spread():
    # at threshold 0 everything is retained, so the bootstrap accuracy is a
    # binomial mean: its quantile spread should match the normal approximation
    rng = np.random.default_rng(2)
    n, p = 4000, 0.9
    corr = rng.uniform(size=n) < p
    conf = np.full(n, 0.5)
    bands = bootstrap_curves(conf, corr, B=2000, seed=3)
    phat = corr.mean()
    sigma = math.sqrt(phat * (1 - phat) / n)
    got = bands.acc_q975[0] - bands.acc_q025[0]
    want = 2 * 1.959964 * sigma
    assert got == pytest.approx(want, rel=0.1)


def test_bootstrap_is_deterministic():
    conf = np.linspace(0.1, 0.9, 40)
    corr = np.arange(40) % 5 > 0
    a = bootstrap_curves(conf, corr, B=16, seed=9)
    b = bootstrap_curves(conf, corr, B=16, seed=9)
    assert np.array_equal(a.acc_q50, b.acc_q50)
    assert np.array_equal(a.automation, b.automation)


def test_calibrate_end_to_end_toy():
    rng = np.random.default_rng(4)
    val_conf = rng.uniform(size=500)
    val_corr = rng.uniform(size=500) < np.clip(val_conf + 0.3, 0, 1)
    test_conf = rng.uniform(size=500)
    test_corr = rng.uniform(size=500) < np.clip(test_conf + 0.3, 0, 1)
    cal = calibrate(val_conf, val_corr, test_conf, test_corr,
                    target_accuracy=0.9, B=128, seed=0)
    assert isinstance(cal, ThresholdCalibration)
    assert len(cal.thresholds) == 128
    assert cal.deployment_threshold == np.median(cal.thresholds)
    assert 0.0 <= cal.automation_ci[0] <= cal.automation_ci[1] <= 1.0
    d = cal.to_dict()
    assert d["target_accuracy"] == 0.9
    assert len(d["thresholds"]) == 128


def test_input_validation():
    with pytest.raises(ValueError):
        curve([], [])
    with pytest.raises(ValueError):
        curve([0.5], [True, False])
    with pytest.raises(ValueError):
        curve([math.nan], [True])
    with pytest.raises(ValueError):
        select_threshold(CONF, CORR, 0.0, B=4)
    with pytest.raises(ValueError):
        select_threshold(CONF, CORR, 1.0, B=0)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        select_threshold(CONF, CORR, 1.0, B=4, seed=-1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        bootstrap_curves(CONF, CORR, B=4, seed=-1)
    with pytest.raises(ValueError):
        evaluate_thresholds(CONF, CORR, [])


# ---------------------------------------------------------------------------
# ambiguity calibration bins
# ---------------------------------------------------------------------------


def test_bins_diagonal_when_prediction_equals_actual():
    vals = np.linspace(0.05, 0.95, 19)
    out = ambiguity_calibration(vals, vals, bins=10)
    assert len(out) == 10
    for b in out:
        if b.count:
            assert b.lo <= b.mean_predicted < b.hi
            assert b.mean_predicted == pytest.approx(b.mean_actual)


def test_bins_constant_predictions_occupy_one_bin():
    pred = np.full(30, 0.42)
    act = np.linspace(0, 1, 30)
    out = ambiguity_calibration(pred, act, bins=10)
    occupied = [b for b in out if b.count]
    assert len(occupied) == 1
    b = occupied[0]
    assert (b.lo, b.hi) == (0.4, 0.5)
    assert b.count == 30
    assert b.mean_actual == pytest.approx(act.mean())


def test_bins_empty_bins_flagged():
    out = ambiguity_calibration([0.05, 0.95], [0.1, 0.9], bins=10)
    assert out[0].count == 1 and out[9].count == 1
    for b in out[1:9]:
        assert b.count == 0
        assert b.mean_predicted is None
        assert b.mean_actual is None


def test_bins_boundary_values():
    # 1.0 lands in the last bin, not past it
    out = ambiguity_calibration([0.0, 1.0], [0.0, 1.0], bins=4)
    assert out[0].count == 1
    assert out[3].count == 1


def test_bins_carry_distances():
    out = ambiguity_calibration([0.1, 0.12], [0.2, 0.2], bins=10,
                                distances=[0.3, 0.5])
    b = out[1]
    assert b.count == 2
    assert b.mean_distance == pytest.approx(0.4)


def test_bins_validation():
    with pytest.raises(ValueError):
        ambiguity_calibration([0.5], [0.5], bins=1)
    with pytest.raises(ValueError):
        ambiguity_calibration([0.5, 0.6], [0.5], bins=4)
    with pytest.raises(ValueError):
        ambiguity_calibration([0.5], [0.5], bins=4, distances=[0.1, 0.2])


@pytest.mark.parametrize("pred, act, message", [
    ([0.5, math.nan], [0.5, 0.5], "predicted ambiguity must lie in [0, 1], got nan at index 1"),
    ([7.0, 0.5], [0.5, 0.5], "predicted ambiguity must lie in [0, 1], got 7.0 at index 0"),
    ([0.5, 0.5], [-3.0, math.inf], "actual ambiguity must lie in [0, 1], got -3.0 at index 0"),
    ([0.5, 0.5], [0.5, math.inf], "actual ambiguity must lie in [0, 1], got inf at index 1"),
], ids=["nan", "above", "below", "inf"])
def test_bins_refuse_ambiguity_outside_the_unit_interval(pred, act, message):
    """Not clamped into an end bin, nor cast from NaN into bin 0."""
    with pytest.raises(InputError, match=re.escape(message)):
        ambiguity_calibration(pred, act, bins=4)


@pytest.mark.parametrize("distances, message", [
    ([math.nan, 1.0], "distance must be non-negative and finite, got nan at index 0"),
    ([0.5, math.inf], "distance must be non-negative and finite, got inf at index 1"),
    ([0.5, -0.25], "distance must be non-negative and finite, got -0.25 at index 1"),
], ids=["nan", "inf", "negative"])
def test_bins_refuse_distance_not_finite_or_negative(distances, message):
    """A NaN distance would make its bin's mean an empty bins.csv cell, as
    an empty bin's is."""
    with pytest.raises(InputError, match=re.escape(message)):
        ambiguity_calibration([0.1, 0.2], [0.1, 0.2], bins=4, distances=distances)


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------


def test_curve_csv_layout(tmp_path):
    bands = bootstrap_curves(CONF * 10, CORR * 10, B=8, seed=0)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, bands, provenance={"seed": 0})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert "seed=0" in lines[0]
    assert lines[1] == "threshold,automation,acc_q025,acc_q50,acc_q975"
    assert len(lines) == 2 + len(bands.thresholds)
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0


def test_bins_csv_layout(tmp_path):
    out = ambiguity_calibration([0.05, 0.95], [0.1, 0.9], bins=4)
    path = tmp_path / "bins.csv"
    write_bins_csv(path, out)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count,mean_predicted,mean_actual,mean_distance"
    assert len(lines) == 5
    # empty bin rows keep empty cells
    row = lines[2].split(",")
    assert row[2] == "0"
    assert row[3] == "" and row[4] == ""


def test_csv_write_is_byte_stable(tmp_path):
    bands = bootstrap_curves(CONF * 5, CORR * 5, B=4, seed=1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_curve_csv(p1, bands, provenance={"seed": 1})
    write_curve_csv(p2, bands, provenance={"seed": 1})
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# The one-sort bootstrap against the per-resample loops it replaced
# ---------------------------------------------------------------------------


def _grid_oracle(conf):
    values = np.unique(conf)
    if values[0] > 0.0:
        values = np.concatenate(([0.0], values))
    return values


def _accuracies_at_oracle(grid, conf, corr):
    order = np.argsort(conf)
    sorted_conf = conf[order]
    hits = np.concatenate((np.cumsum(corr[order][::-1])[::-1], [0]))
    pos = np.searchsorted(sorted_conf, grid, side="left")
    retained = conf.size - pos
    with np.errstate(invalid="ignore"):
        acc = np.where(retained > 0, hits[pos] / np.maximum(retained, 1), np.nan)
    return retained, acc


def _rngs(seed, B):
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(B)]


def _bootstrap_oracle(conf, corr, B, seed):
    """One argsort per resample, then np.quantile once per grid column."""
    grid = _grid_oracle(conf)
    retained, _ = _accuracies_at_oracle(grid, conf, corr)
    n = conf.size
    acc_rows = np.empty((B, grid.size))
    for b, rng in enumerate(_rngs(seed, B)):
        idx = rng.integers(0, n, size=n)
        _, acc_rows[b] = _accuracies_at_oracle(grid, conf[idx], corr[idx])
    quantiles = np.full((3, grid.size), np.nan)
    for j in range(grid.size):
        col = acc_rows[:, j]
        finite = col[np.isfinite(col)]
        if finite.size:
            quantiles[:, j] = np.quantile(finite, (0.025, 0.5, 0.975))
    return grid, retained / n, quantiles


def _select_threshold_oracle(conf, corr, target, B, seed):
    """The threshold of each resample on its own grid."""
    out = []
    for rng in _rngs(seed, B):
        idx = rng.integers(0, conf.size, size=conf.size)
        grid = _grid_oracle(conf[idx])
        retained, acc = _accuracies_at_oracle(grid, conf[idx], corr[idx])
        ok = np.flatnonzero((retained > 0) & (acc >= target))
        out.append(float(grid[ok[0]]) if ok.size else math.inf)
    return out


@st.composite
def _scored_sets(draw):
    n = draw(st.integers(1, 300))
    # a small pool makes ties; 0.0 is a value some sets hold and others lack
    pool = draw(st.lists(st.floats(0.0, 1.0) | st.just(0.0), min_size=1, max_size=12))
    conf = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    if draw(st.booleans()):
        # distinct confidences: grids of up to n + 1 slots, whose top slots
        # some resamples leave empty (NaN accuracies)
        conf = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n, unique=True)))
    kind = draw(st.sampled_from(["random", "all correct", "all wrong", "confident right"]))
    if kind == "random":
        corr = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    elif kind == "confident right":
        corr = conf >= draw(st.floats(0.0, 1.0))
    else:
        corr = np.full(n, kind == "all correct")
    B = draw(st.integers(1, 40))
    block = draw(st.sampled_from([1, 64, 700, 5000, autothresh._BLOCK]))
    return conf, corr, B, draw(st.integers(0, 2**32 - 1)), block


@settings(max_examples=300, deadline=None)
@given(_scored_sets())
def test_bootstrap_curves_equal_per_resample_oracle_bitwise(case):
    conf, corr, B, seed, block = case
    with mock.patch.object(autothresh, "_BLOCK", block):
        bands = bootstrap_curves(conf, corr, B, seed)
    grid, automation, quantiles = _bootstrap_oracle(conf, corr, B, seed)
    assert bands.thresholds.tobytes() == grid.tobytes()
    assert bands.automation.tobytes() == automation.tobytes()
    got = np.stack([bands.acc_q025, bands.acc_q50, bands.acc_q975])
    assert got.tobytes() == quantiles.tobytes()


@settings(max_examples=300, deadline=None)
@given(_scored_sets(), st.sampled_from([1.0, 0.99, 0.9, 0.75, 0.5, 1e-9]) | st.floats(1e-9, 1.0))
def test_select_threshold_equals_per_resample_oracle(case, target):
    conf, corr, B, seed, block = case
    with mock.patch.object(autothresh, "_BLOCK", block):
        got = select_threshold(conf, corr, target, B, seed)
    assert got == _select_threshold_oracle(conf, corr, target, B, seed)


def _evaluate_thresholds_oracle(conf, corr, thresholds):
    """Automation and retained accuracy of each threshold, one mask at a time."""
    automation = np.empty(len(thresholds))
    accuracy = np.full(len(thresholds), np.nan)
    for i, c in enumerate(thresholds):
        mask = conf >= c
        automation[i] = mask.mean()
        if mask.any():
            accuracy[i] = corr[mask].mean()
    return automation, accuracy


@settings(max_examples=300, deadline=None)
@given(_scored_sets(), st.lists(st.sampled_from([0.0, -0.5, math.inf, 1.0, 0.5])
                                | st.floats(-1.0, 2.0) | st.integers(0, 299), min_size=1,
                                max_size=60))
def test_threshold_retention_equals_per_threshold_oracle_bitwise(case, picks):
    conf, corr = case[:2]
    # thresholds on the grid (an integer picks a task's confidence), off it,
    # below 0 and above every confidence
    thresholds = [float(conf[p % conf.size]) if isinstance(p, int) else p for p in picks]
    got = autothresh._at_thresholds(conf, corr, thresholds)
    want = _evaluate_thresholds_oracle(conf, corr, thresholds)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_select_threshold_oracle_cases_cover_every_branch():
    # all wrong: no threshold reaches the target; all right: 0.0 everywhere
    conf = np.array([0.0, 0.2, 0.2, 0.7])
    assert select_threshold(conf, np.zeros(4, bool), 0.5, 20, 1) == [math.inf] * 20
    assert select_threshold(conf, np.ones(4, bool), 1.0, 20, 1) == [0.0] * 20
    # the more confident of two tasks is right: a resample that draws only
    # it retains everything at 0.0, whether or not the set holds a 0.0
    for low in (0.2, 0.0):
        conf, corr = np.array([low, 0.7]), np.array([False, True])
        got = select_threshold(conf, corr, 1.0, 64, 2)
        assert got == _select_threshold_oracle(conf, corr, 1.0, 64, 2)
        assert set(got) == {0.0, 0.7, math.inf}


def test_bootstrap_blocks_stay_bounded():
    # blocks of resamples hold at most _BLOCK draws (or one resample)
    for n, width, B in ((2000, 1500, 1024), (10, 11, 100), (70000, 3, 5)):
        blocks = list(autothresh._resamples(n, B, 0, width))
        assert sum(draws.shape[0] for _, draws in blocks) == B
        assert [b0 for b0, _ in blocks] == list(range(0, B, blocks[0][1].shape[0]))
        for _, draws in blocks:
            assert draws.shape[0] == 1 or draws.size <= autothresh._BLOCK


@pytest.mark.parametrize("B", [1, 16, 17, 1024])
def test_blockwise_generators_draw_like_one_spawn(B):
    """Each block's generators are built as it is drawn (16 resamples of
    1000 tasks a block): the draws are those of one SeedSequence.spawn(B),
    at B = 1, at a block edge and at B = 1024, for seeds of one to seven
    32-bit words and a numpy integer seed."""
    n = 1000
    for seed in (0, 1, 5, 2**32 - 1, 2**32, 2**64 + 5, 2**200, np.uint64(2**64 - 1)):
        children = np.random.SeedSequence(seed).spawn(B)
        blocks = list(autothresh._realization_rngs(seed, B, 16))
        assert [b0 for b0, _ in blocks] == list(range(0, B, 16))
        rngs = [rng for _, block in blocks for rng in block]
        assert [rng.bit_generator.state for rng in rngs] == \
            [np.random.default_rng(ss).bit_generator.state for ss in children]
        blocks = list(autothresh._resamples(n, B, seed, n + 1))
        assert [b0 for b0, _ in blocks] == list(range(0, B, 16))
        want = np.stack([np.random.default_rng(ss).integers(0, n, size=n) for ss in children])
        assert np.concatenate([draws for _, draws in blocks]).tobytes() == want.tobytes()


def test_rescore_sized_set_equals_per_resample_oracles_bitwise():
    """2500 distinct confidences, as on a rescore val split: 2501 grid
    slots, resamples that leave top slots empty, and blocks of resamples
    and of quantile rows that do not divide B or the grid evenly."""
    rng = np.random.default_rng(19)
    conf = rng.uniform(0.2, 1.0, size=2500)
    corr = rng.uniform(size=2500) < conf
    B, seed = 16, 7
    with mock.patch.object(autothresh, "_BLOCK", 8000):
        bands = bootstrap_curves(conf, corr, B, seed)
        got = {t: select_threshold(conf, corr, t, B, seed) for t in (0.9, 0.99)}
    grid, automation, quantiles = _bootstrap_oracle(conf, corr, B, seed)
    assert grid.size == 2501
    assert bands.thresholds.tobytes() == grid.tobytes()
    assert bands.automation.tobytes() == automation.tobytes()
    got_quantiles = np.stack([bands.acc_q025, bands.acc_q50, bands.acc_q975])
    assert got_quantiles.tobytes() == quantiles.tobytes()
    for target, thresholds in got.items():
        assert thresholds == _select_threshold_oracle(conf, corr, target, B, seed)


def _bootstrap_float_matrix_oracle(conf, corr, B, seed):
    """The bootstrap that held one float64 (grid, B) accuracy matrix, sorted
    its rows in place once and took np.quantile a block of rows at a time."""
    grid, key, retained, _ = autothresh._curve(conf, corr)
    acc = np.empty((grid.size, B))
    for b0, draws in autothresh._resamples(conf.size, B, seed, grid.size):
        _, kept, hits = autothresh._slot_totals(key, draws, grid.size)
        acc[:, b0:b0 + draws.shape[0]] = autothresh._accuracy(kept, hits).T
    acc.sort(axis=1)
    quantiles = np.empty((3, grid.size))
    step = max(1, autothresh._BLOCK // B)
    for r0 in range(0, grid.size, step):
        quantiles[:, r0:r0 + step] = np.quantile(acc[r0:r0 + step], (0.025, 0.5, 0.975), axis=1)
    for j in np.flatnonzero(np.isnan(acc[:, -1])):
        finite = acc[j, np.isfinite(acc[j])]
        if finite.size:
            quantiles[:, j] = np.quantile(finite, (0.025, 0.5, 0.975))
    return grid, retained / conf.size, quantiles


@pytest.mark.parametrize("n", [255, 256, 65535, 65536])
def test_integer_totals_equal_float_matrix_oracle_bitwise_at_dtype_edges(n):
    """The totals matrices switch from uint8 to uint16 above 255 tasks and
    to uint32 above 65 535, where the retain-all slot holds n; a _BLOCK of
    1000 splits the rows into blocks that do not divide the grid."""
    rng = np.random.default_rng(n)
    # a pool of values makes ties, so the grid is shorter than n + 1; the
    # one most confident task is left out of some resamples, whose top
    # accuracy is then NaN
    conf = rng.choice(rng.uniform(0.1, 0.9, size=n // 3 + 2), size=n)
    conf[0] = 0.95
    corr = rng.uniform(size=n) < conf
    B, seed = 7, 7
    assert any((draws != 0).all(axis=1).any()
               for _, draws in autothresh._resamples(n, B, seed, 1))
    with mock.patch.object(autothresh, "_BLOCK", 1000):
        bands = bootstrap_curves(conf, corr, B, seed)
        grid, automation, quantiles = _bootstrap_float_matrix_oracle(conf, corr, B, seed)
    assert grid.size % (1000 // B) != 0
    assert bands.thresholds.tobytes() == grid.tobytes()
    assert bands.automation.tobytes() == automation.tobytes()
    got = np.stack([bands.acc_q025, bands.acc_q50, bands.acc_q975])
    assert got.tobytes() == quantiles.tobytes()


def test_bootstrap_holds_one_accuracy_matrix():
    """Beyond the two (n + 1) x B matrices of retained and correct totals
    (uint16 for 2500 tasks, so 2 bytes a cell), the bootstrap's memory is
    bounded by its blocks: it makes no float, sorted or transposed copy of
    them."""
    rng = np.random.default_rng(0)
    n, B = 2500, 1024
    conf = rng.uniform(size=n)
    corr = rng.uniform(size=n) < conf
    tracemalloc.start()
    try:
        bootstrap_curves(conf, corr, B, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (n + 1) * B * 2 * 2
