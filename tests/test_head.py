import json
import math

import numpy as np
import pytest
from scipy import integrate, special

from crowdinfer.core import DirichletParams
from crowdinfer.head import (
    HeadModel,
    TrainConfig,
    TrainExample,
    _chernoff_grad_raw,
    _chernoff_raw,
    chernoff,
    chernoff_grad,
    digamma,
    head_forward,
    init_model,
    load_model,
    log_gamma,
    save_model,
    softmax,
    train_head,
)

# ---------------------------------------------------------------------------
# special functions (scipy is the reference oracle only; the package itself
# does not depend on it)
# ---------------------------------------------------------------------------


def test_log_gamma_matches_scipy_over_wide_range():
    x = np.concatenate([np.geomspace(1e-3, 1e3, 2000), [0.5, 1.0, 1.5, 2.0, 8.5]])
    assert np.max(np.abs(log_gamma(x) - special.gammaln(x))) < 1e-10


def test_log_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-13)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(np.array([1.0, -2.0]))


def test_digamma_matches_scipy():
    x = np.concatenate([np.geomspace(1e-3, 1e3, 2000), [1.0, 8.5]])
    assert np.max(np.abs(digamma(x) - special.psi(x))) < 1e-10


def test_digamma_euler_mascheroni():
    assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-10)


def test_digamma_consistent_with_log_gamma_derivative():
    x = np.geomspace(0.05, 200, 50)
    h = 1e-6
    fd = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
    assert np.max(np.abs(digamma(x) - fd) / np.abs(fd)) < 1e-6


# ---------------------------------------------------------------------------
# Chernoff distance
# ---------------------------------------------------------------------------


def quad_chernoff_beta(a, b, tau):
    """Numerical -log integral of p_a^tau p_b^(1-tau) for Beta densities."""

    def integrand(x):
        la = (a[0] - 1) * math.log(x) + (a[1] - 1) * math.log1p(-x) - special.betaln(*a)
        lb = (b[0] - 1) * math.log(x) + (b[1] - 1) * math.log1p(-x) - special.betaln(*b)
        return math.exp(tau * la + (1 - tau) * lb)

    val, err = integrate.quad(integrand, 0.0, 1.0, limit=200)
    return -math.log(val)


def test_chernoff_matches_quadrature_on_beta_pairs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.uniform(0.5, 10.0, size=2)
        b = rng.uniform(0.5, 10.0, size=2)
        tau = float(rng.uniform(0.1, 0.9))
        ours = chernoff(DirichletParams(a), DirichletParams(b), tau)
        ref = quad_chernoff_beta(a, b, tau)
        assert ours == pytest.approx(ref, abs=1e-4)


def test_chernoff_frozen_anchor():
    got = chernoff(DirichletParams([1.0, 1.0]), DirichletParams([2.0, 1.0]), 0.5)
    assert got == pytest.approx(0.05889151782819, abs=1e-4)
    # hand closed form: log(3/(2*sqrt(2)))
    assert got == pytest.approx(math.log(3.0 / (2.0 * math.sqrt(2.0))), abs=1e-12)


def test_chernoff_zero_iff_equal():
    a = DirichletParams([0.7, 2.3, 1.1])
    assert chernoff(a, a, 0.5) == 0.0
    assert chernoff(a, a, 0.37) <= 1e-12
    b = DirichletParams([0.7, 2.3, 1.2])
    assert chernoff(a, b, 0.5) > 0.0


def test_chernoff_bhattacharyya_symmetric():
    a = DirichletParams([1.0, 4.0])
    b = DirichletParams([3.0, 2.0])
    assert chernoff(a, b, 0.5) == pytest.approx(chernoff(b, a, 0.5), abs=1e-12)
    # and asymmetric away from tau = 1/2
    assert chernoff(a, b, 0.3) != pytest.approx(chernoff(b, a, 0.3), abs=1e-6)


def test_chernoff_validates_inputs():
    a = DirichletParams([1.0, 1.0])
    with pytest.raises(ValueError):
        chernoff(a, DirichletParams([1.0, 1.0, 1.0]), 0.5)
    with pytest.raises(ValueError):
        chernoff(a, a, 0.0)
    with pytest.raises(ValueError):
        chernoff(a, a, 1.0)


def test_chernoff_grad_matches_finite_differences():
    # norm-wise relative error per instance; per-component quotients are
    # noise-limited where the gradient is orders of magnitude below its peers
    rng = np.random.default_rng(1)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        a = rng.uniform(0.5, 50.0, size=k)
        b = rng.uniform(0.5, 50.0, size=k)
        tau = float(rng.uniform(0.1, 0.9))
        grad = np.asarray(chernoff_grad(DirichletParams(a), DirichletParams(b), tau))
        fd = np.empty(k)
        for j in range(k):
            ap, am = a.copy(), a.copy()
            ap[j] += h
            am[j] -= h
            fd[j] = (_chernoff_raw(ap, b, tau) - _chernoff_raw(am, b, tau)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(grad - fd)) / np.max(np.abs(fd))))
    assert worst < 1e-5


def test_chernoff_batched_matches_scalar():
    rng = np.random.default_rng(2)
    A = rng.uniform(0.5, 10.0, size=(8, 3))
    B = rng.uniform(0.5, 10.0, size=(8, 3))
    batched = _chernoff_raw(A, B, 0.5)
    for i in range(8):
        assert batched[i] == pytest.approx(
            chernoff(DirichletParams(A[i]), DirichletParams(B[i]), 0.5), abs=1e-12
        )
    gbatch = _chernoff_grad_raw(A, B, 0.5)
    assert gbatch.shape == (8, 3)
    assert np.allclose(gbatch[3], chernoff_grad(DirichletParams(A[3]), DirichletParams(B[3]), 0.5))


# ---------------------------------------------------------------------------
# head forward
# ---------------------------------------------------------------------------


def test_softmax_rows_sum_to_one():
    z = np.random.default_rng(0).normal(size=(5, 4)) * 50
    s = softmax(z)
    assert np.allclose(s.sum(axis=1), 1.0)
    assert (s > 0).all()


def test_head_forward_sum_invariant():
    rng = np.random.default_rng(3)
    model = init_model(6, 3, 3.0, rng)
    for _ in range(500):
        x = rng.normal(size=6)
        n = int(rng.integers(0, 100))
        alpha = head_forward(model, x, n)
        assert abs(alpha.alpha_sum - (3.0 + n)) < 1e-9


def test_head_forward_validates():
    model = init_model(4, 3, 3.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        head_forward(model, np.zeros(5), 1)
    with pytest.raises(ValueError):
        head_forward(model, np.zeros(4), -1)
    with pytest.raises(ValueError):
        head_forward(model, np.array([np.nan, 0, 0, 0]), 1)


def test_identity_mixer_can_express_any_interior_target():
    # with W = I the prediction is (alpha0_sum + n) * softmax(z): picking
    # z = log(target / sum) reproduces any strictly positive target exactly
    target = np.array([0.2, 2.5, 0.3])
    n = 0.0
    z = np.log(target / target.sum())
    model = HeadModel(A=np.zeros((2, 3)), bias=z, W=np.eye(3), alpha0_sum=3.0)
    got = head_forward(model, np.zeros(2), 0)
    assert np.allclose(got.alpha, target, atol=1e-12)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _toy_dataset(rng, n=64, d=6, k=3):
    X = rng.normal(size=(n, d))
    A = rng.normal(size=(d, k))
    logits = X @ A
    targets = (3.0 + 20.0) * softmax(logits)
    return [
        TrainExample(X[i], targets[i], 20.0, 1.0, f"t{i}") for i in range(n)
    ]


def test_training_decreases_loss():
    rng = np.random.default_rng(4)
    data = _toy_dataset(rng)
    losses = []
    cfg = TrainConfig(learning_rate=5e-3, epochs=60, batch_size=16, seed=0)
    train_head(data, cfg, callback=lambda e, tl, vl: losses.append(tl))
    assert losses[-1] < 0.5 * losses[0]


def test_training_can_overfit_single_example():
    rng = np.random.default_rng(5)
    x = rng.normal(size=4)
    target = np.array([0.4, 18.0, 4.6])  # sums to 23 = 3 + 20
    data = [TrainExample(x, target, 20.0, 1.0, "only")]
    cfg = TrainConfig(learning_rate=3e-2, epochs=400, batch_size=1, seed=1)
    model = train_head(data, cfg)
    got = head_forward(model, x, 20)
    assert abs(got.alpha_sum - 23.0) < 1e-9
    assert np.max(np.abs(got.alpha - target)) < 0.3


def test_best_selection_beats_or_matches_last():
    rng = np.random.default_rng(6)
    data = _toy_dataset(rng, n=48)
    val = _toy_dataset(rng, n=16)

    def final_val_loss(select):
        cfg = TrainConfig(learning_rate=2e-2, epochs=40, batch_size=8, seed=2, select=select)
        model = train_head(data, cfg, val_dataset=val)
        from crowdinfer.head import _mean_loss, _stack

        return _mean_loss(model, *_stack(val), cfg.tau)

    assert final_val_loss("best") <= final_val_loss("last") + 1e-12


def test_warmup_default_matches_beta2():
    cfg = TrainConfig()
    assert cfg.warmup_iters == math.ceil(2.0 / (1.0 - cfg.beta2)) == 400
    assert TrainConfig(beta2=0.99).warmup_iters == 200


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(select="median")
    with pytest.raises(ValueError):
        TrainConfig(tau=1.0)


def test_non_finite_loss_aborts_with_example_id():
    x = np.array([1e30, 1e30])
    data = [TrainExample(x, np.array([1.0, 1.0, 21.0]), 20.0, 1.0, "bad-task")]
    cfg = TrainConfig(learning_rate=1e3, epochs=50, batch_size=1, seed=0)
    with pytest.raises(RuntimeError, match="iteration"):
        train_head(data, cfg)


def test_training_is_deterministic():
    rng = np.random.default_rng(7)
    data = _toy_dataset(rng, n=32)
    cfg = TrainConfig(epochs=5, seed=3)
    m1 = train_head(data, cfg)
    m2 = train_head(data, cfg)
    assert np.array_equal(m1.A, m2.A)
    assert np.array_equal(m1.W, m2.W)
    assert np.array_equal(m1.bias, m2.bias)


# ---------------------------------------------------------------------------
# model file
# ---------------------------------------------------------------------------


def test_model_save_load_round_trip(tmp_path):
    model = init_model(5, 3, 3.0, np.random.default_rng(8))
    path = tmp_path / "model.json"
    save_model(path, model)
    back = load_model(path)
    assert np.array_equal(back.A, model.A)
    assert np.array_equal(back.bias, model.bias)
    assert np.array_equal(back.W, model.W)
    assert back.alpha0_sum == model.alpha0_sum
    x = np.ones(5)
    assert np.array_equal(head_forward(back, x, 7).alpha, head_forward(model, x, 7).alpha)


def test_model_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(ValueError):
        load_model(path)


def test_head_model_validates_shapes():
    with pytest.raises(ValueError):
        HeadModel(A=np.zeros((2, 3)), bias=np.zeros(4), W=np.eye(4), alpha0_sum=3.0)
    with pytest.raises(ValueError):
        HeadModel(A=np.zeros((2, 3)), bias=np.zeros(3), W=np.eye(3), alpha0_sum=0.0)
