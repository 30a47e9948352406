import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdinfer.bayes import posterior_mode
from crowdinfer.core import DirichletParams, InputError, SoftLabel
from crowdinfer.metrics import soft_distance
from crowdinfer.priors import blend_prior, repeats_run, repeats_summary, write_repeats_csv


def _answers(answers):
    return np.array(answers, dtype=np.int64)


# ---------------------------------------------------------------------------
# prior blending
# ---------------------------------------------------------------------------


def test_blend_zero_is_uniform():
    pred = DirichletParams([0.1, 2.8, 0.1])
    assert np.array_equal(blend_prior(pred, 0.0).alpha, np.ones(3))


def test_blend_one_is_the_prediction():
    pred = DirichletParams([0.1, 2.8, 0.1])
    assert np.allclose(blend_prior(pred, 1.0).alpha, pred.alpha)


def test_blend_one_third_hand_value():
    pred = DirichletParams([0.3, 2.4, 0.3])
    got = blend_prior(pred, 1.0 / 3.0)
    assert np.allclose(got.alpha, [23 / 30, 44 / 30, 23 / 30], atol=1e-12)
    assert got.alpha_sum == pytest.approx(3.0, abs=1e-12)


def test_blend_preserves_parameter_sum():
    rng = np.random.default_rng(0)
    for _ in range(20):
        raw = rng.uniform(0.05, 1.0, size=4)
        pred = DirichletParams(4.0 * raw / raw.sum())
        assert blend_prior(pred, 0.37).alpha_sum == pytest.approx(4.0, abs=1e-9)


def test_blend_range_validation():
    pred = DirichletParams([1.0, 1.0])
    with pytest.raises(ValueError):
        blend_prior(pred, -0.1)
    with pytest.raises(ValueError):
        blend_prior(pred, 1.1)


# ---------------------------------------------------------------------------
# single-task replay
# ---------------------------------------------------------------------------


def test_repeats_run_hand_enumeration_first_step():
    # 3 responses of category 1, 2 of category 0; empirical (0.4, 0.6, 0).
    # After one draw from the uniform prior the mode is a one-hot, so the
    # distance is 1 - 0.6 over denominator 0.6 = 2/3 when category 1 is
    # drawn (prob 0.6), else |1 - 0.4| / max(0.4, 0.6) = 1.0 (prob 0.4).
    answers = _answers([1, 1, 1, 0, 0])
    prior = np.ones(3)
    per_perm = []
    rng = np.random.default_rng(0)
    for _ in range(4000):
        d = repeats_run(answers, prior, 1, rng)
        per_perm.append(d[0])
    vals = set(round(v, 12) for v in per_perm)
    assert vals == {round(2 / 3, 12), 1.0}
    assert np.mean(per_perm) == pytest.approx(0.6 * 2 / 3 + 0.4 * 1.0, abs=0.02)


def test_repeats_run_final_step_zero_under_uniform_prior():
    # replaying everything from the uniform prior makes the mode equal the
    # empirical distribution exactly, whatever the order
    rng_data = np.random.default_rng(1)
    for trial in range(10):
        n = int(rng_data.integers(1, 30))
        answers = rng_data.integers(0, 3, size=n)
        d = repeats_run(answers, np.ones(3), 8, np.random.default_rng(trial))
        assert d[-1] == 0.0
        assert len(d) == n


def test_repeats_run_unanimous_with_aligned_prior():
    # prior already modes at the unanimous answer: distance 0 at every step
    d = repeats_run(_answers([1, 1, 1, 1]), [1.0, 3.0, 1.0], 4, np.random.default_rng(0))
    assert np.array_equal(d, np.zeros(4))


def test_repeats_run_informed_prior_starts_closer():
    # a prior pointing at the empirical distribution beats the uniform one
    # at step 1 on average
    answers = _answers([1, 1, 1, 0, 0])
    uniform = np.ones(3)
    informed = np.array([1.2, 1.6, 0.2])  # mode ~ (0.4, 0.6, 0)
    du = repeats_run(answers, uniform, 512, np.random.default_rng(2))
    di = repeats_run(answers, informed, 512, np.random.default_rng(2))
    assert di[0] < du[0]


def test_repeats_run_mc_error_shrinks_with_permutations():
    # step-1 value is 2/3 (prob 0.6) or 1.0 (prob 0.4), expectation 0.8
    answers = _answers([1, 1, 1, 0, 0])
    prior = np.ones(3)
    err = {}
    means = {}
    for k in (4, 64):
        reps = [
            repeats_run(answers, prior, k, np.random.default_rng(100 + k * 50 + i))[0]
            for i in range(200)
        ]
        err[k] = float(np.std(reps))
        means[k] = float(np.mean(reps))
    # spread shrinks roughly like 1/sqrt(k): a factor 4 here, allow slack
    assert err[64] < err[4] / 2.0
    assert means[64] == pytest.approx(0.8, abs=0.02)


def test_repeats_run_validation():
    prior = np.ones(3)
    with pytest.raises(ValueError, match="no responses to replay"):
        repeats_run(_answers([]), prior, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        repeats_run(_answers([0]), prior, 0, np.random.default_rng(0))
    for bad in (_answers([0, 3]), _answers([-1, 0]), np.array([0.0, 1.0]), _answers([[0, 1]])):
        with pytest.raises(ValueError, match="answers must be a vector of indices of the "
                                             "prior's 3 categories"):
            repeats_run(bad, prior, 4, np.random.default_rng(0))
    for bad in ([1.0, 0.0, 1.0], [1.0, np.nan, 1.0], [1.0, np.inf, 1.0],
                [[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]], [[[1.0, 1.0, 1.0]]]):
        with pytest.raises(InputError, match="prior must be a vector of positive finite numbers"):
            repeats_run(_answers([0, 1]), bad, 4, np.random.default_rng(0))


def _replay_oracle(answers, prior, permutations, rng):
    """Scalar reference for repeats_run: replays one draw at a time, one
    posterior_mode and one soft_distance per step."""
    n = len(answers)
    empirical = SoftLabel(np.bincount(answers, minlength=len(prior)) / n)
    totals = np.zeros(n)
    for _ in range(permutations):
        order = rng.permutation(n)
        alpha = prior.alpha.copy()
        for step, j in enumerate(order):
            alpha[answers[j]] += 1.0
            mode = posterior_mode(DirichletParams(alpha))
            totals[step] += soft_distance(mode.q, empirical.q)
    return totals / permutations


@st.composite
def _replay_cases(draw):
    k = draw(st.integers(2, 6))
    answers = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=30))
    # blended priors dip below 1 in some components; also cover the uniform one
    priors = draw(st.lists(st.one_of(
        st.just([1.0] * k),
        st.lists(st.floats(0.01, 4.0), min_size=k, max_size=k),
    ), min_size=1, max_size=3))
    return k, answers, priors, draw(st.integers(1, 16)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_replay_cases())
def test_repeats_run_equals_scalar_replay_bitwise(case):
    """A (K,) prior gives one replay and a (V, K) stack one per row, each
    equal bit for bit to the scalar replay on the same seed."""
    k, answers, priors, permutations, seed = case
    answers = _answers(answers)
    priors = [DirichletParams(prior) for prior in priors]
    wants = [_replay_oracle(answers, prior, permutations, np.random.default_rng(seed))
             for prior in priors]
    got = repeats_run(answers, priors[0].alpha, permutations, np.random.default_rng(seed))
    assert np.array_equal(got, wants[0])
    stack = np.stack([prior.alpha for prior in priors])
    got = repeats_run(answers, stack, permutations, np.random.default_rng(seed))
    assert got.shape == (len(priors), answers.size)
    for row, want in zip(got, wants):
        assert np.array_equal(row, want)


def test_repeats_run_equals_scalar_replay_on_blended_priors():
    rng = np.random.default_rng(11)
    for trial in range(40):
        k = int(rng.integers(2, 7))
        raw = rng.uniform(0.02, 1.0, size=k)
        prior = blend_prior(DirichletParams(k * raw / raw.sum()))
        answers = rng.integers(0, k, size=int(rng.integers(1, 31)))
        got = repeats_run(answers, prior.alpha, 16, np.random.default_rng(trial))
        want = _replay_oracle(answers, prior, 16, np.random.default_rng(trial))
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# cross-task summary
# ---------------------------------------------------------------------------


def _toy_tasks(num=12, seed=4):
    """Task ids and their answers."""
    rng = np.random.default_rng(seed)
    answers = [rng.integers(0, 3, size=int(rng.integers(3, 9))) for _ in range(num)]
    return [f"t{i:03d}" for i in range(num)], answers


def _uniform(answers):
    return {"uniform": np.ones((len(answers), 3))}


def _steps(ids, answers, **kwargs):
    """The steps of a summary from the uniform prior."""
    return repeats_summary(ids, answers, _uniform(answers), **kwargs)["uniform"]


def test_summary_steps_and_counts():
    ids, answers = _toy_tasks()
    out = repeats_summary(ids, answers, _uniform(answers), permutations=8, seed=0)
    assert list(out) == ["uniform"]
    lengths = [len(a) for a in answers]
    assert len(out["uniform"]) == max(lengths)
    for s in out["uniform"]:
        assert s.step >= 1
        assert s.n_tasks == sum(1 for m in lengths if m >= s.step)
        assert s.q025 <= s.q25 <= s.median <= s.q75 <= s.q975


def test_summary_max_repeats_truncates():
    ids, answers = _toy_tasks()
    out = _steps(ids, answers, max_repeats=2, permutations=4, seed=0)
    assert [s.step for s in out] == [1, 2]


@pytest.mark.parametrize("max_repeats", [0, -1])
def test_summary_refuses_max_repeats_below_one(max_repeats):
    # it returned no steps, so cli's repeats wrote a header-only CSV and failed after
    with pytest.raises(InputError, match="max_repeats must be at least 1"):
        ids, answers = _toy_tasks()
        repeats_summary(ids, answers, _uniform(answers), max_repeats=max_repeats)


def test_summary_skips_empty_tasks():
    ids, answers = _toy_tasks(num=4)
    ids, answers = ids + ["empty"], answers + [_answers([])]
    assert _steps(ids, answers, permutations=4, seed=0)[0].n_tasks == 4
    with pytest.raises(ValueError):
        repeats_summary(["empty"], [_answers([])], {"uniform": np.ones((1, 3))})


def test_summary_refuses_misaligned_columns():
    ids, answers = _toy_tasks(num=4)
    with pytest.raises(InputError, match="4 task ids, 3 answer arrays and 4 prior rows"):
        repeats_summary(ids, answers[:3], _uniform(answers))
    with pytest.raises(InputError, match="4 task ids, 4 answer arrays and 5 prior rows of "
                                         "'informed'"):
        repeats_summary(ids, answers, {"uniform": np.ones((4, 3)), "informed": np.ones((5, 3))})


def test_summary_refuses_no_variants():
    ids, answers = _toy_tasks(num=4)
    with pytest.raises(InputError, match="^no prior variants to replay$"):
        repeats_summary(ids, answers, {})


def test_summary_refuses_variants_of_other_shapes():
    ids, answers = _toy_tasks(num=1)
    with pytest.raises(InputError, match="^3 categories in the prior rows of 'uniform' and 4 "
                                         "in those of 'informed'$"):
        repeats_summary(ids, answers, {"uniform": np.ones((1, 3)), "informed": np.ones((1, 4))})
    for shape in ((), (1,), (1, 3, 1)):
        with pytest.raises(InputError, match=re.escape(f"prior rows of 'informed' must form an "
                                                       f"(M, K) matrix, got shape {shape}")):
            repeats_summary(ids, answers, {"uniform": np.ones((1, 3)),
                                           "informed": np.ones(shape)})


def test_summary_pairs_draw_orders_across_variants():
    # each task replays once for every prior, so a "different" variant with
    # the same prior must reproduce the uniform summary exactly, in the
    # order the variants were given
    ids, answers = _toy_tasks()
    out = repeats_summary(ids, answers, {"uniform": np.ones((len(ids), 3)),
                                         "informed": np.full((len(ids), 3), 1.0)},
                          permutations=8, seed=5)
    assert list(out) == ["uniform", "informed"]
    assert out["uniform"] == out["informed"]
    assert out["uniform"] == _steps(ids, answers, permutations=8, seed=5)


def test_summary_final_step_zero_with_equal_lengths():
    rng = np.random.default_rng(6)
    answers = [rng.integers(0, 3, size=5) for _ in range(6)]
    last = _steps([f"t{i}" for i in range(6)], answers, permutations=4, seed=0)[-1]
    assert last.step == 5
    assert last.q975 == 0.0


def test_summary_deterministic_in_seed():
    ids, answers = _toy_tasks()
    a, b, c = (_steps(ids, answers, permutations=4, seed=seed) for seed in (7, 7, 8))
    assert [s.median for s in a] == [s.median for s in b]
    assert [s.median for s in a] != [s.median for s in c]


def test_summary_stream_isolated_from_task_order():
    ids, answers = _toy_tasks()
    a = _steps(ids, answers, permutations=4, seed=9)
    b = _steps(ids[::-1], answers[::-1], permutations=4, seed=9)
    assert [s.median for s in a] == [s.median for s in b]


# ---------------------------------------------------------------------------
# CSV artifact
# ---------------------------------------------------------------------------


def test_repeats_csv_layout(tmp_path):
    ids, answers = _toy_tasks(num=5)
    out = repeats_summary(ids, answers, {"uniform": np.ones((5, 3)), "informed": np.ones((5, 3))},
                          permutations=4, seed=0)
    u, i = out["uniform"], out["informed"]
    path = tmp_path / "repeats.csv"
    write_repeats_csv(path, out, provenance={"seed": 0})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ") and "seed=0" in lines[0]
    assert lines[1] == "variant,step,q025,q25,median,q75,q975,n_tasks"
    assert len(lines) == 2 + len(u) + len(i)
    assert lines[2].split(",")[0] == "uniform"
    assert lines[2 + len(u)].split(",")[0] == "informed"
    # byte stability
    path2 = tmp_path / "repeats2.csv"
    write_repeats_csv(path2, out, provenance={"seed": 0})
    assert path.read_bytes() == path2.read_bytes()
