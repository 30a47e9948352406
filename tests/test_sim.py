import math

import numpy as np
import pytest

from crowdinfer.bayes import posterior, posterior_mode, uniform_prior
from crowdinfer.core import InputError, SoftLabel, TaskRecord, empirical_soft_label, tally
from crowdinfer.metrics import soft_distance
from crowdinfer.sim import (
    SimConfig,
    feature_map,
    gen_features,
    gen_responses,
    gen_tasks,
    scheme_for,
    simulate_dataset,
    synthetic_predictor,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(num_tasks=0)
    with pytest.raises(ValueError):
        SimConfig(num_proper=0)
    with pytest.raises(ValueError):
        SimConfig(alpha0=(1.0, 1.0))  # needs num_proper + 1 = 3 entries
    with pytest.raises(ValueError):
        SimConfig(alpha0=(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        SimConfig(predictor_temperature=0.0)
    for value in (math.nan, math.inf, -1.0):
        for key in ("feature_noise", "predictor_noise", "predictor_temperature"):
            with pytest.raises(InputError, match=key):
                SimConfig(**{key: value})


def test_scheme_layout():
    scheme = scheme_for(SimConfig(num_proper=3))
    assert scheme.names == ("c0", "c1", "c2", "cs")
    assert scheme.cs_index == 3


def test_latent_mean_matches_symmetric_prior():
    # E[q] under Dirichlet(1,1,1) is the uniform distribution
    cfg = SimConfig(num_tasks=100_000, num_proper=2, repeats=0, alpha0=(1.0, 1.0, 1.0), seed=0)
    tasks = gen_tasks(cfg)
    mean = np.mean([t.true_q.q for t in tasks], axis=0)
    assert np.max(np.abs(mean - 1.0 / 3.0)) < 0.01


def test_latent_mean_matches_skewed_prior():
    cfg = SimConfig(
        num_tasks=100_000, num_proper=2, repeats=0, alpha0=(100.0, 1.0, 1.0), seed=1
    )
    tasks = gen_tasks(cfg)
    mean = np.mean([t.true_q.q for t in tasks], axis=0)
    expected = np.array([100.0, 1.0, 1.0]) / 102.0
    assert np.max(np.abs(mean - expected)) < 0.005


def test_degenerate_latent_yields_unanimous_responses():
    task = TaskRecord("t0", None, SoftLabel(np.array([0.0, 1.0, 0.0])), [])
    responses = gen_responses(task, 50, np.random.default_rng(0))
    assert len(responses) == 50
    assert (responses == 1).all()


def test_response_counts_and_range():
    cfg = SimConfig(num_tasks=200, num_proper=3, repeats=7, seed=3)
    scheme, tasks = simulate_dataset(cfg)
    for t in tasks:
        assert len(t.responses) == 7
        counts = tally(t.responses, scheme)
        assert counts.total == 7
        assert t.responses.dtype == np.int64 and t.responses.ndim == 1


def test_simulation_is_deterministic():
    cfg = SimConfig(num_tasks=50, seed=42)
    _, a = simulate_dataset(cfg)
    _, b = simulate_dataset(cfg)
    for ta, tb in zip(a, b):
        assert ta.task_id == tb.task_id
        assert np.array_equal(ta.true_q.q, tb.true_q.q)
        assert np.array_equal(ta.features, tb.features)
        assert ta.responses.tolist() == tb.responses.tolist()


def test_seed_changes_output():
    _, a = simulate_dataset(SimConfig(num_tasks=10, seed=0))
    _, b = simulate_dataset(SimConfig(num_tasks=10, seed=1))
    assert not np.array_equal(a[0].true_q.q, b[0].true_q.q)


def test_gen_tasks_agrees_with_simulate_dataset():
    # per-task streams make the latent part independent of whether
    # responses are drawn
    cfg = SimConfig(num_tasks=20, seed=5)
    bare = gen_tasks(cfg)
    _, full = simulate_dataset(cfg)
    for tb, tf in zip(bare, full):
        assert np.array_equal(tb.true_q.q, tf.true_q.q)
        assert np.array_equal(tb.features, tf.features)


def test_posterior_mode_recovers_empirical_distribution():
    # with a uniform prior the posterior mode is exactly counts / n
    cfg = SimConfig(num_tasks=30, repeats=40, seed=7)
    scheme, tasks = simulate_dataset(cfg)
    prior = uniform_prior(scheme)
    for t in tasks:
        counts = tally(t.responses, scheme)
        mode = posterior_mode(posterior(prior, counts))
        emp = empirical_soft_label(counts)
        assert np.max(np.abs(mode.q - emp.q)) < 1e-12


def test_many_repeats_concentrate_on_latent():
    cfg = SimConfig(num_tasks=40, seed=11)
    tasks = gen_tasks(cfg)
    rng = np.random.default_rng(0)
    dists = []
    for t in tasks:
        responses = gen_responses(t, 20_000, rng)
        counts = np.bincount(responses, minlength=3)
        dists.append(np.max(np.abs(counts / 20_000 - t.true_q.q)))
    assert np.mean(dists) < 0.01


def test_feature_map_is_config_stable():
    cfg = SimConfig(seed=9)
    assert np.array_equal(feature_map(cfg), feature_map(cfg))
    other = SimConfig(seed=10)
    assert not np.array_equal(feature_map(cfg), feature_map(other))


def test_features_recover_latent_at_zero_noise():
    # with d >= K and no noise, pinv of the map recovers log(q + floor)
    cfg = SimConfig(num_tasks=25, feature_noise=0.0, feature_dim=8, seed=13)
    tasks = gen_tasks(cfg)
    inv = np.linalg.pinv(feature_map(cfg))
    for t in tasks:
        logq = inv @ t.features
        q = np.exp(logq) - 1e-6
        assert np.max(np.abs(q - t.true_q.q)) < 1e-8


def test_feature_noise_perturbs():
    cfg0 = SimConfig(num_tasks=5, feature_noise=0.0, seed=21)
    cfg1 = SimConfig(num_tasks=5, feature_noise=0.5, seed=21)
    a = gen_tasks(cfg0)
    b = gen_tasks(cfg1)
    assert np.array_equal(a[0].true_q.q, b[0].true_q.q)
    assert not np.allclose(a[0].features, b[0].features)


def test_gen_features_requires_latent():
    task = TaskRecord("t0", None, None, [])
    with pytest.raises(ValueError, match="t0"):
        gen_features(task, SimConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError, match="t0"):
        gen_responses(task, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="t0"):
        synthetic_predictor(task, 3, SimConfig(), np.random.default_rng(0))


def test_synthetic_predictor_sum_invariant():
    cfg = SimConfig(num_tasks=10, seed=17)
    tasks = gen_tasks(cfg)
    rng = np.random.default_rng(0)
    for t in tasks:
        for n in (0, 1, 20):
            alpha = synthetic_predictor(t, n, cfg, rng)
            assert abs(alpha.alpha_sum - (3.0 + n)) < 1e-9


def test_synthetic_predictor_faithful_limit():
    # temperature 1, zero noise, large n: the mode approaches the latent q
    cfg = SimConfig(num_tasks=20, predictor_temperature=1.0, predictor_noise=0.0, seed=19)
    tasks = gen_tasks(cfg)
    rng = np.random.default_rng(0)
    for t in tasks:
        alpha = synthetic_predictor(t, 10_000, cfg, rng)
        mode = posterior_mode(alpha)
        assert np.max(np.abs(mode.q - t.true_q.q)) < 1e-3


def test_predictor_noise_degrades_fidelity_monotonically():
    base = dict(num_tasks=300, num_proper=2, repeats=0, seed=23)
    rng = np.random.default_rng(0)
    mean_d = []
    for noise in (0.0, 1.0, 10.0):
        cfg = SimConfig(predictor_noise=noise, **base)
        tasks = gen_tasks(cfg)
        d = [
            soft_distance(posterior_mode(synthetic_predictor(t, 20, cfg, rng)).q, t.true_q.q)
            for t in tasks
        ]
        mean_d.append(float(np.mean(d)))
    assert mean_d[0] < mean_d[1] < mean_d[2]


def test_predictor_uses_caller_rng_stream():
    cfg = SimConfig(num_tasks=1, predictor_noise=0.5, seed=29)
    task = gen_tasks(cfg)[0]
    a = synthetic_predictor(task, 5, cfg, np.random.default_rng(1))
    b = synthetic_predictor(task, 5, cfg, np.random.default_rng(1))
    c = synthetic_predictor(task, 5, cfg, np.random.default_rng(2))
    assert np.array_equal(a.alpha, b.alpha)
    assert not np.array_equal(a.alpha, c.alpha)


def test_task_ids_are_stable_zero_padded():
    cfg = SimConfig(num_tasks=3)
    tasks = gen_tasks(cfg)
    assert [t.task_id for t in tasks] == ["t000000", "t000001", "t000002"]
    # ids name per-task streams, so prefixes of longer runs are identical
    more = gen_tasks(SimConfig(num_tasks=5))
    assert np.array_equal(tasks[2].true_q.q, more[2].true_q.q)
