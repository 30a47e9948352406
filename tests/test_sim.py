import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdinfer.bayes import posterior, posterior_mode, uniform_prior
from crowdinfer.core import (
    MAX_VALUES,
    InputError,
    SoftLabel,
    empirical_soft_label,
    tally,
    task_rng,
)
from crowdinfer.metrics import soft_distance
from crowdinfer.sim import (
    SimConfig,
    feature_map,
    scheme_for,
    simulate_dataset,
    synthetic_predictor,
)


def _per_task_oracle(config: SimConfig) -> list:
    """The per-task generator the array simulator replaced, as (task id,
    features, latent soft label, answers) per task: each task's own stream
    draws its latent label, its feature noise, then its responses."""
    alpha0 = np.array(config.alpha0 or (0.5,) * config.num_categories)
    fmap = feature_map(config)
    tasks = []
    for i in range(config.num_tasks):
        tid = f"t{i:06d}"
        rng = task_rng(config.seed, tid)
        q = SoftLabel(rng.dirichlet(alpha0))
        x = fmap @ np.log(q.q + 1e-6)
        if config.feature_noise > 0:
            x = x + config.feature_noise * rng.standard_normal(config.feature_dim)
        answers = rng.choice(len(q.q), size=config.repeats, p=q.q)
        tasks.append((tid, x, q.q, answers))
    return tasks


def _task_rng_oracle(global_seed, task_id) -> np.random.Generator:
    """task_rng seeded with the digest as four Python integers."""
    digest = hashlib.blake2b(
        f"{global_seed}\x1f{task_id}".encode("utf-8", "surrogatepass"), digest_size=16
    ).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence(words))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**63), st.one_of(
    st.text(st.characters(max_codepoint=127)), st.text(st.characters(min_codepoint=128)),
    st.integers(-2**70, 2**70)))
@example(0, "\ud800")   # a lone surrogate, as a JSON escape decodes
def test_task_rng_equals_integer_word_seeding(seed, task_id):
    assert task_rng(seed, task_id).bit_generator.state == \
        _task_rng_oracle(seed, task_id).bit_generator.state


@st.composite
def _sim_configs(draw):
    # a few examples reach past the small sizes, up to 600 tasks, 16
    # features and 12 categories
    large = draw(st.booleans())
    num_proper = draw(st.integers(1, 11 if large else 5))
    alpha0 = draw(st.one_of(
        st.none(),
        st.lists(st.floats(0.05, 20.0), min_size=num_proper + 1, max_size=num_proper + 1),
    ))
    return SimConfig(
        num_tasks=draw(st.integers(1, 600 if large else 12)),
        num_proper=num_proper,
        repeats=draw(st.integers(0, 25)),
        alpha0=alpha0,
        feature_dim=draw(st.integers(1, 16 if large else 8)),
        feature_noise=draw(st.sampled_from([0.0, 0.1, 2.5])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(_sim_configs())
def test_simulate_dataset_equals_per_task_generator_bitwise(cfg):
    scheme, table, answers = simulate_dataset(cfg)
    want = _per_task_oracle(cfg)
    n, k = cfg.num_tasks, cfg.num_categories
    assert scheme.num_categories == k and len(table) == n
    assert table.task_ids == [tid for tid, _, _, _ in want]
    assert table.has_features.all() and table.has_true_q.all()
    assert table.features.shape == (n, cfg.feature_dim) and table.true_q.shape == (n, k)
    assert answers.dtype == np.int64 and answers.shape == (n, cfg.repeats)
    assert table.features.tobytes() == np.array([x for _, x, _, _ in want]).tobytes()
    assert table.true_q.tobytes() == np.array([q for _, _, q, _ in want]).tobytes()
    assert answers.tobytes() == np.array([a for _, _, _, a in want],
                                         dtype=np.int64).reshape(n, -1).tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(num_tasks=0)
    with pytest.raises(ValueError):
        SimConfig(num_proper=0)
    with pytest.raises(ValueError):
        SimConfig(alpha0=(1.0, 1.0))  # needs num_proper + 1 = 3 entries
    with pytest.raises(ValueError):
        SimConfig(alpha0=(1.0, 0.0, 1.0))
    q = np.full(3, 1.0 / 3.0)
    for value in (math.nan, math.inf, -1.0):
        with pytest.raises(InputError, match="feature_noise"):
            SimConfig(feature_noise=value)
        with pytest.raises(InputError, match="noise must be non-negative and finite"):
            synthetic_predictor(q, 3, np.random.default_rng(0), noise=value)


def test_alpha0_must_be_finite():
    for bad in ((math.nan, 1.0, 1.0), (1.0, math.inf, 1.0)):
        with pytest.raises(InputError, match="alpha0 components must be positive and finite"):
            SimConfig(alpha0=bad)


def test_overflowing_latent_draw_names_task_and_alpha0():
    cfg = SimConfig(num_tasks=3, alpha0=(1e308, 1e308, 1.0))
    with pytest.raises(InputError, match=r"task 't000000' from alpha0 \(1e\+308, 1e\+308, 1\.0\) "
                                         r"is not a soft label"):
        simulate_dataset(cfg)


def test_config_size_limit():
    # constructing a config allocates nothing, so the boundary itself is tested
    per_task = 20 + 8 + 2 * 3   # repeats, features, two rows of K
    SimConfig(num_tasks=MAX_VALUES // per_task)
    with pytest.raises(InputError, match=f"more than the limit of {MAX_VALUES}"):
        SimConfig(num_tasks=MAX_VALUES // per_task + 1)


def test_scheme_layout():
    scheme = scheme_for(SimConfig(num_proper=3))
    assert scheme.names == ("c0", "c1", "c2", "cs")


def test_latent_mean_matches_symmetric_prior():
    # E[q] under Dirichlet(1,1,1) is the uniform distribution
    cfg = SimConfig(num_tasks=100_000, num_proper=2, repeats=0, alpha0=(1.0, 1.0, 1.0), seed=0)
    _, table, _ = simulate_dataset(cfg)
    mean = table.true_q.mean(axis=0)
    assert np.max(np.abs(mean - 1.0 / 3.0)) < 0.01


def test_latent_mean_matches_skewed_prior():
    cfg = SimConfig(
        num_tasks=100_000, num_proper=2, repeats=0, alpha0=(100.0, 1.0, 1.0), seed=1
    )
    _, table, _ = simulate_dataset(cfg)
    mean = table.true_q.mean(axis=0)
    expected = np.array([100.0, 1.0, 1.0]) / 102.0
    assert np.max(np.abs(mean - expected)) < 0.005


def test_degenerate_latent_yields_unanimous_responses():
    # a generation prior this concentrated leaves about 2e-6 of a task's
    # mass, on average, off category 1
    cfg = SimConfig(num_tasks=20, repeats=50, alpha0=(1e-3, 1e3, 1e-3), seed=0)
    _, table, answers = simulate_dataset(cfg)
    assert (table.true_q[:, 1] > 0.999).all()
    assert answers.shape == (20, 50)
    assert (answers == 1).all()


def test_response_counts_and_range():
    cfg = SimConfig(num_tasks=200, num_proper=3, repeats=7, seed=3)
    scheme, _, answers = simulate_dataset(cfg)
    assert answers.dtype == np.int64 and answers.shape == (200, 7)
    for row in answers:
        counts = tally(row, scheme)
        assert counts.sum() == 7


def test_simulation_is_deterministic():
    cfg = SimConfig(num_tasks=50, seed=42)
    _, a, answers_a = simulate_dataset(cfg)
    _, b, answers_b = simulate_dataset(cfg)
    assert a.task_ids == b.task_ids
    assert np.array_equal(a.true_q, b.true_q)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(answers_a, answers_b)


def test_seed_changes_output():
    _, a, _ = simulate_dataset(SimConfig(num_tasks=10, seed=0))
    _, b, _ = simulate_dataset(SimConfig(num_tasks=10, seed=1))
    assert not np.array_equal(a.true_q[0], b.true_q[0])


def test_latent_part_independent_of_repeats():
    # per-task streams make the latent part independent of whether
    # responses are drawn
    _, bare, none = simulate_dataset(SimConfig(num_tasks=20, repeats=0, seed=5))
    _, full, _ = simulate_dataset(SimConfig(num_tasks=20, seed=5))
    assert none.shape == (20, 0)
    assert np.array_equal(bare.true_q, full.true_q)
    assert np.array_equal(bare.features, full.features)


def test_non_finite_features_name_the_first_task():
    # noise this large overflows: the simulator must refuse, not write Infinity
    cfg = SimConfig(num_tasks=5, feature_noise=1e308, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            InputError, match="non-finite feature values in task 't000000'"):
        simulate_dataset(cfg)


def test_posterior_mode_recovers_empirical_distribution():
    # with a uniform prior the posterior mode is exactly counts / n
    cfg = SimConfig(num_tasks=30, repeats=40, seed=7)
    scheme, _, answers = simulate_dataset(cfg)
    prior = uniform_prior(scheme)
    for row in answers:
        counts = tally(row, scheme)
        mode = posterior_mode(posterior(prior, counts))
        emp = empirical_soft_label(counts)
        assert np.max(np.abs(mode.q - emp.q)) < 1e-12


def test_many_repeats_concentrate_on_latent():
    cfg = SimConfig(num_tasks=40, repeats=20_000, seed=11)
    _, table, answers = simulate_dataset(cfg)
    dists = [np.max(np.abs(np.bincount(row, minlength=3) / 20_000 - q))
             for row, q in zip(answers, table.true_q)]
    assert np.mean(dists) < 0.01


def test_feature_map_is_config_stable():
    cfg = SimConfig(seed=9)
    assert np.array_equal(feature_map(cfg), feature_map(cfg))
    other = SimConfig(seed=10)
    assert not np.array_equal(feature_map(cfg), feature_map(other))


def test_features_recover_latent_at_zero_noise():
    # with d >= K and no noise, pinv of the map recovers log(q + floor)
    cfg = SimConfig(num_tasks=25, feature_noise=0.0, feature_dim=8, seed=13)
    _, table, _ = simulate_dataset(cfg)
    inv = np.linalg.pinv(feature_map(cfg))
    for x, true_q in zip(table.features, table.true_q):
        q = np.exp(inv @ x) - 1e-6
        assert np.max(np.abs(q - true_q)) < 1e-8


def test_feature_noise_perturbs():
    cfg0 = SimConfig(num_tasks=5, feature_noise=0.0, seed=21)
    cfg1 = SimConfig(num_tasks=5, feature_noise=0.5, seed=21)
    _, a, _ = simulate_dataset(cfg0)
    _, b, _ = simulate_dataset(cfg1)
    assert np.array_equal(a.true_q[0], b.true_q[0])
    assert not np.allclose(a.features[0], b.features[0])


def test_synthetic_predictor_requires_soft_label():
    rng = np.random.default_rng(0)
    for bad in ([0.5, 0.6, 0.1], [-0.5, 1.0, 0.5], [np.nan, 0.5, 0.5]):
        with pytest.raises(InputError, match="soft label"):
            synthetic_predictor(np.array(bad), 3, rng)
    with pytest.raises(InputError, match="one soft label"):
        synthetic_predictor(np.full((2, 3), 1.0 / 3.0), 3, rng)
    # refused as a count, not as the alpha components it would make
    for n in (math.nan, math.inf, -1):
        with pytest.raises(InputError, match=re.escape(
                f"response count n must be non-negative and finite, got {n}")):
            synthetic_predictor(np.full(3, 1.0 / 3.0), n, rng)


def test_synthetic_predictor_sum_invariant():
    cfg = SimConfig(num_tasks=10, seed=17)
    _, table, _ = simulate_dataset(cfg)
    rng = np.random.default_rng(0)
    for q in table.true_q:
        for n in (0, 1, 20):
            alpha = synthetic_predictor(q, n, rng)
            assert abs(alpha.alpha_sum - (3.0 + n)) < 1e-9


def test_synthetic_predictor_faithful_limit():
    # zero noise, large n: the mode approaches the latent q
    cfg = SimConfig(num_tasks=20, seed=19)
    _, table, _ = simulate_dataset(cfg)
    rng = np.random.default_rng(0)
    for q in table.true_q:
        alpha = synthetic_predictor(q, 10_000, rng)
        mode = posterior_mode(alpha)
        assert np.max(np.abs(mode.q - q)) < 1e-3


def test_predictor_noise_degrades_fidelity_monotonically():
    base = dict(num_tasks=300, num_proper=2, repeats=0, seed=23)
    rng = np.random.default_rng(0)
    mean_d = []
    for noise in (0.0, 1.0, 10.0):
        _, table, _ = simulate_dataset(SimConfig(**base))
        d = [
            soft_distance(posterior_mode(synthetic_predictor(q, 20, rng, noise)).q, q)
            for q in table.true_q
        ]
        mean_d.append(float(np.mean(d)))
    assert mean_d[0] < mean_d[1] < mean_d[2]


def test_predictor_uses_caller_rng_stream():
    q = simulate_dataset(SimConfig(num_tasks=1, seed=29))[1].true_q[0]
    a = synthetic_predictor(q, 5, np.random.default_rng(1), noise=0.5)
    b = synthetic_predictor(q, 5, np.random.default_rng(1), noise=0.5)
    c = synthetic_predictor(q, 5, np.random.default_rng(2), noise=0.5)
    assert np.array_equal(a.alpha, b.alpha)
    assert not np.array_equal(a.alpha, c.alpha)


def test_task_ids_are_stable_zero_padded():
    _, table, _ = simulate_dataset(SimConfig(num_tasks=3, repeats=0))
    assert table.task_ids == ["t000000", "t000001", "t000002"]
    # ids name per-task streams, so prefixes of longer runs are identical
    _, more, _ = simulate_dataset(SimConfig(num_tasks=5, repeats=0))
    assert np.array_equal(table.true_q[2], more.true_q[2])
