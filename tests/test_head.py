import functools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from crowdinfer.core import DirichletParams, InputError
from crowdinfer.head import (
    HeadModel,
    TrainConfig,
    _chernoff,
    _columns,
    _forward_batch,
    _loss_grads,
    _row_sum,
    _target_term,
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
# reference implementations: the fused kernels must equal these bit for bit
# ---------------------------------------------------------------------------


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


def _log_gamma_oracle(x):
    """log_gamma with a fresh array for every term of the Lanczos series."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    small = xv < 0.5
    z = np.where(small, xv + 1.0, xv) - 1.0
    series = np.full_like(z, _LANCZOS_COEFS[0])
    for i, c in enumerate(_LANCZOS_COEFS[1:], start=1):
        series += c / (z + i)
    t = z + 7.0 + 0.5
    out = 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * np.log(t) - t + np.log(series)
    out = np.where(small, out - np.log(xv), out)
    return float(out[0]) if scalar else out


def _softmax_oracle(z):
    """softmax with numpy's own reductions over the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_batch_oracle(params, alpha0_sum, X, n):
    """The forward with one softmax call per branch."""
    A, bias, W = params
    Z = X @ A + bias
    S = softmax(Z)
    Sigma = softmax(Z @ W.T)
    alpha = alpha0_sum * S + n[:, None] * Sigma
    return alpha, Z, S, Sigma


def _same_bits(a, b) -> bool:
    """Equal shapes and equal bits, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _digamma_oracle(x):
    """The masked-shift digamma: only arguments below 8.5 are shifted, by
    boolean indexing.  digamma stays within a declared bound of it."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x).astype(float).copy()
    acc = np.zeros_like(xv)
    for _ in range(9):
        mask = xv < 8.5
        if not mask.any():
            break
        acc[mask] -= 1.0 / xv[mask]
        xv[mask] += 1.0
    inv2 = 1.0 / (xv * xv)
    series = inv2 * (
        1.0 / 12.0
        - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0)))
    )
    out = acc + np.log(xv) - 0.5 / xv - series
    return float(out[0]) if scalar else out


def _chernoff_raw(a, b, tau):
    """Closed-form Chernoff distance with one log_gamma call per term."""
    m = tau * a + (1.0 - tau) * b
    return (
        log_gamma(m.sum(axis=-1))
        - log_gamma(m).sum(axis=-1)
        + tau * (log_gamma(a).sum(axis=-1) - log_gamma(a.sum(axis=-1)))
        + (1.0 - tau) * (log_gamma(b).sum(axis=-1) - log_gamma(b.sum(axis=-1)))
    )


def _chernoff_grad_raw(a, b, tau):
    """Gradient of the closed form w.r.t. a, one digamma call per term."""
    m = tau * a + (1.0 - tau) * b
    psi_sm = np.asarray(digamma(m.sum(axis=-1)))
    psi_sa = np.asarray(digamma(a.sum(axis=-1)))
    return tau * (psi_sm[..., None] - digamma(m) + digamma(a) - psi_sa[..., None])


# arguments on both sides of the oracle's 8.5 cut-off and of its shifted
# copies, where its shift loop takes one step more or fewer
_NEAR_CUTOFF = [v for c in np.arange(0.5, 9.0)
                for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 9.0))]


@st.composite
def _component_arrays(draw, shape):
    """Log-uniform components in [1e-6, 1e6], some set to _NEAR_CUTOFF values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=shape))
    flat = x.reshape(-1)
    for pos, value in draw(st.lists(st.tuples(st.integers(0, flat.size - 1),
                                              st.sampled_from(_NEAR_CUTOFF)), max_size=8)):
        flat[pos] = value
    return x


@st.composite
def _kernel_cases(draw):
    shape = (draw(st.integers(1, 300)), draw(st.integers(2, 12)))
    tau = draw(st.sampled_from([0.5, 0.25, 0.9]) | st.floats(0.01, 0.99))
    return draw(_component_arrays(shape)), draw(_component_arrays(shape)), tau


@settings(max_examples=200, deadline=None)
@given(_kernel_cases())
def test_fused_kernel_equals_separate_calls_bitwise(case):
    a, b, tau = case
    J, G = _chernoff(a, b, tau, grad=True)
    assert np.array_equal(J, _chernoff_raw(a, b, tau))
    assert np.array_equal(G, _chernoff_grad_raw(a, b, tau))
    assert np.array_equal(_chernoff(a, b, tau), J)


def test_fused_kernel_equals_separate_calls_on_one_vector():
    a, b = np.array([0.3, 8.5, 7.5, 2e5]), np.array([1.0, 9.0, 1e-6, 4.0])
    J, G = _chernoff(a, b, 0.4, grad=True)
    assert J.shape == () and G.shape == (4,)
    assert J == _chernoff_raw(a, b, 0.4)
    assert np.array_equal(G, _chernoff_grad_raw(a, b, 0.4))
    assert chernoff(DirichletParams(a), DirichletParams(b), 0.4) == _chernoff_raw(a, b, 0.4)
    assert np.array_equal(chernoff_grad(DirichletParams(a), DirichletParams(b), 0.4), G)


_argument_arrays = st.integers(1, 400).flatmap(lambda size: _component_arrays((size,)))

# digamma's declared deviation from the masked-shift algorithm it replaced
_DIGAMMA_OLD_BOUND = 2e-13


@settings(max_examples=200, deadline=None)
@given(_argument_arrays)
def test_digamma_within_declared_bound_of_masked_shift(x):
    old = _digamma_oracle(x)
    assert np.all(np.abs(digamma(x) - old) <= _DIGAMMA_OLD_BOUND * np.maximum(np.abs(old), 1.0))
    old = _digamma_oracle(float(x[0]))
    assert abs(digamma(float(x[0])) - old) <= _DIGAMMA_OLD_BOUND * max(abs(old), 1.0)


# subnormals, and 0.5 (where log_gamma lifts its argument) with its neighbours
_TINY = np.finfo(float).tiny
_LOG_GAMMA_EDGES = [5e-324, _TINY / 3, np.nextafter(_TINY, 0.0),
                    np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1.0, 2.0]


@settings(max_examples=200, deadline=None)
@given(_argument_arrays,
       st.lists(st.tuples(st.integers(0, 2**31), st.sampled_from(_LOG_GAMMA_EDGES)), max_size=8))
def test_log_gamma_equals_lanczos_oracle_bitwise(x, edges):
    for pos, value in edges:
        x[pos % x.size] = value
    assert _same_bits(log_gamma(x), _log_gamma_oracle(x))
    assert _same_bits(log_gamma(x.reshape(1, -1)), _log_gamma_oracle(x.reshape(1, -1)))
    for value in (float(x[0]), *_LOG_GAMMA_EDGES):
        assert log_gamma(value) == _log_gamma_oracle(value)
        assert isinstance(log_gamma(value), float)


@st.composite
def _row_matrices(draw):
    """(N, K) matrices, N 1-600 and K 2-12, of signed zeros, ties and values
    of any magnitude."""
    n, k = draw(st.integers(1, 600)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-300, 300, size=(n, k))
    pool = np.array([0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324])
    special = rng.random((n, k)) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    x[special] = rng.choice(pool, size=int(special.sum()))
    return x


@settings(max_examples=300, deadline=None)
@given(_row_matrices())
def test_row_reductions_equal_numpy_bitwise(x):
    with np.errstate(over="ignore", invalid="ignore"):   # sums of +-1e308
        assert _same_bits(_row_sum(x), x.sum(axis=-1))
        assert _same_bits(_row_sum(x[0]), x[0].sum(axis=-1))
    cols = _columns(x)   # softmax takes the row maxima from these
    assert (cols is None) == (len(x) == 1 or x.shape[1] >= 8)
    if cols is not None:
        assert _same_bits(cols.max(axis=0)[:, None], x.max(axis=-1, keepdims=True))


@settings(max_examples=200, deadline=None)
@given(_row_matrices(), st.floats(1e-3, 10.0))
def test_softmax_equals_numpy_formula_bitwise(x, scale):
    z = np.arcsinh(x) * scale   # scores within +-7000, signed zeros kept
    assert _same_bits(softmax(z), _softmax_oracle(z))
    assert _same_bits(softmax(z[0]), _softmax_oracle(z[0]))


@st.composite
def _forward_cases(draw):
    """Parameters, features (N, d) and counts (N,) for N 1-600, K 2-12 and
    d 1-16, at scales from flat to saturated scores, signed zeros included."""
    n, k, d = draw(st.integers(1, 600)), draw(st.integers(2, 12)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 30.0, 1e3]))
    X = rng.standard_normal((n, d)) * scale
    X[rng.random((n, d)) < 0.1] = -0.0
    params = (rng.standard_normal((d, k)), rng.standard_normal(k), rng.standard_normal((k, k)))
    counts = rng.integers(0, 50, size=n).astype(float)
    return params, draw(st.floats(0.5, 20.0)), X, counts


@settings(max_examples=150, deadline=None)
@given(_forward_cases())
def test_stacked_forward_equals_two_softmax_oracle_bitwise(case):
    params, alpha0_sum, X, counts = case
    with np.errstate(all="ignore"):   # saturated scores may underflow a branch to 0
        for rows in (slice(None), slice(0, 1), slice(-1, None)):   # single rows too
            got = _forward_batch(params, alpha0_sum, X[rows], counts[rows])
            want = _forward_batch_oracle(params, alpha0_sum, X[rows], counts[rows])
            assert all(_same_bits(g, w) for g, w in zip(got, want))


@settings(max_examples=150, deadline=None)
@given(_forward_cases())
def test_one_row_forward_equals_batch_forward_bitwise(case):
    """head_forward does its own one-row arithmetic: its alpha must be
    _forward_batch's on that row, bit for bit, and where that row is not
    positive and finite (saturated scores) it raises the same error text."""
    params, alpha0_sum, X, counts = case
    model = HeadModel(*params, alpha0_sum)
    with np.errstate(all="ignore"):
        for x, count in zip(X[:8], counts.tolist()):
            for n in (0, int(count), 2**62):
                want = _forward_batch(params, alpha0_sum, x[None, :], np.array([float(n)]))[0][0]
                if np.isfinite(want).all() and (want > 0).all():
                    assert _same_bits(head_forward(model, x, n).alpha, want)
                    continue
                with pytest.raises(FloatingPointError) as raised:
                    head_forward(model, x, n)
                assert str(raised.value) == f"forward alpha not positive and finite: {want.tolist()}"


# numpy 2.4 names; a name a numpy build lacks is ignored with an ImportWarning
_OTHER_DISPATCH = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def _passes_in_a_subprocess(test: str, env: dict) -> None:
    """Run one test of this file in a fresh interpreter with env added to the
    environment, and require that it passed."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                      os.environ.get("PYTHONPATH")]))}
    test = f"{Path(__file__).resolve()}::{test}"
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                          cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "1 passed" in done.stdout


def test_stacked_forward_equals_oracle_under_other_cpu_dispatch():
    """The equality above must hold whatever kernels numpy dispatches to:
    rerun it with the AVX-512 dispatch targets switched off."""
    _passes_in_a_subprocess("test_stacked_forward_equals_two_softmax_oracle_bitwise",
                            _OTHER_DISPATCH)


@pytest.mark.parametrize("env", [_OTHER_DISPATCH, {"OPENBLAS_CORETYPE": "Haswell"}],
                         ids=["other_cpu_dispatch", "haswell_blas_kernel"])
def test_one_row_forward_equals_batch_forward_under(env):
    """The one-row forward keeps the batch's bits with numpy's AVX-512
    dispatch switched off, and with OpenBLAS's AVX2 kernel in place of the
    one it picks for this CPU."""
    _passes_in_a_subprocess("test_one_row_forward_equals_batch_forward_bitwise", env)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda k: _component_arrays((200, k))),
       st.integers(0, 2**32 - 1), st.floats(0.01, 0.99))
def test_target_term_gathered_by_index_equals_per_batch_value(T, seed, tau):
    idx = np.random.default_rng(seed).permutation(T.shape[0])[:64]
    batch = T[idx]
    per_batch = (1.0 - tau) * (log_gamma(batch).sum(axis=-1) - log_gamma(batch.sum(axis=-1)))
    assert np.array_equal(_target_term(T, tau)[idx], per_batch)
    assert np.array_equal(_chernoff(batch[::-1], batch, tau, _target_term(T, tau)[idx]),
                          _chernoff_raw(batch[::-1], batch, tau))


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


def test_digamma_matches_scipy_to_5e_14_relative():
    """Relative to max(|psi|, 1) over log-uniform [1e-6, 1e6] and the edges;
    the smallest subnormal's 1/x overflows, so digamma is -inf there."""
    rng = np.random.default_rng(14)
    x = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=200_000))
    psi = special.psi(x)
    assert np.max(np.abs(digamma(x) - psi) / np.maximum(np.abs(psi), 1.0)) < 5e-14
    edges = np.array([5e-324, _TINY, 1.0, 8.5, 1.7e308])
    got = digamma(edges)
    psi = special.psi(edges)
    assert got[0] == psi[0] == -math.inf
    assert np.all(np.abs(got[1:] - psi[1:]) / np.maximum(np.abs(psi[1:]), 1.0) < 5e-14)


def test_digamma_input_contract():
    for bad in (0.0, -1.0, math.nan, math.inf, np.array([1.0, -2.0]), np.array([[2.0, math.nan]])):
        with pytest.raises(ValueError, match="digamma requires positive finite arguments"):
            digamma(bad)
    assert isinstance(digamma(np.float64(2.0)), float) and isinstance(digamma(2), float)
    assert digamma(np.array(2.0)) == digamma(2.0)
    x = np.array([[0.5, 3.0, 20.0], [1e-3, 1.0, 8.5]])
    kept = x.copy()
    got = digamma(x)
    assert got.shape == (2, 3) and np.array_equal(got.ravel(), digamma(kept.ravel()))
    assert np.array_equal(x, kept)
    empty = digamma(np.empty((0, 3)))
    assert isinstance(empty, np.ndarray) and empty.shape == (0, 3)


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
    # finite features whose scores overflow: a numeric error, not a bad input
    with pytest.raises(FloatingPointError, match="forward alpha not positive and finite"):
        head_forward(model, np.full(4, 1e308), 1)


_EDGE_FEATURES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.7e308,
                  -1.7e308, 1.0, -2.5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_EDGE_FEATURES) | st.floats(), min_size=4, max_size=4))
def test_head_forward_feature_check_equals_isfinite_oracle(values):
    """head_forward checks a task's features as Python floats; a vector
    np.isfinite(x).all() refuses must be refused, and no other."""
    model = init_model(4, 3, 3.0, np.random.default_rng(0))
    x = np.array(values)
    with np.errstate(all="ignore"):
        if not np.isfinite(x).all():
            with pytest.raises(ValueError, match="^non-finite feature values$"):
                head_forward(model, x, 1)
            return
        try:   # finite features, though large ones overflow the scores
            head_forward(model, x, 1)
        except FloatingPointError:
            pass


def test_head_forward_refuses_a_nan_count():
    model = init_model(4, 3, 3.0, np.random.default_rng(0))
    with pytest.raises(InputError, match="response count n must be non-negative"):
        head_forward(model, np.zeros(4), math.nan)


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


def _train_head_oracle(data, cfg, val_dataset=None, alpha0_sum=None, callback=None):
    """train_head with Adam state kept per parameter array (A, bias, W) and
    every minibatch loss computed: the reference for the flat-vector trainer,
    which skips that loss where it is bounded.  Skips the input checks, but
    refuses a step's non-finite parameters and a selection without a finite
    loss as train_head does."""
    X, T, n, w = data
    N, k = T.shape
    alpha0_sum = float(k) if alpha0_sum is None else alpha0_sum
    target = _target_term(T, cfg.tau)
    if val_dataset is not None:
        target_v = _target_term(val_dataset[1], cfg.tau)
    rng = np.random.default_rng(cfg.seed)
    params = init_model(X.shape[1], k, alpha0_sum, rng).params
    m = [np.zeros(p.shape) for p in params]
    v = [np.zeros(p.shape) for p in params]
    t = 0
    best_loss, best_params = math.inf, [p.copy() for p in params]
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(N)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, N, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, J, grads = _loss_grads(params, alpha0_sum, X[idx], T[idx], n[idx], w[idx],
                                             cfg.tau, target[idx], grad=True)
                t += 1
                if not math.isfinite(loss):
                    raise RuntimeError(f"non-finite training loss at iteration {t}, "
                                       f"example row {idx[~np.isfinite(J)][0]}")
                lr = cfg.learning_rate * min(1.0, t / max(cfg.warmup_iters, 1))
                out = []
                for i, (p, g) in enumerate(zip(params, grads)):
                    m[i] = cfg.beta1 * m[i] + (1 - cfg.beta1) * g
                    v[i] = cfg.beta2 * v[i] + (1 - cfg.beta2) * g * g
                    mhat = m[i] / (1 - cfg.beta1 ** t)
                    vhat = v[i] / (1 - cfg.beta2 ** t)
                    out.append(p - lr * mhat / (np.sqrt(vhat) + 1e-8))
                params = out
                for name, p in zip(("A", "bias", "W"), params):
                    if not np.isfinite(p).all():
                        raise ValueError(f"non-finite entries in {name}")
        train_loss = _loss_grads(params, alpha0_sum, X, T, n, w, cfg.tau, target)[0]
        val_loss = (_loss_grads(params, alpha0_sum, *val_dataset, cfg.tau, target_v)[0]
                    if val_dataset is not None else None)
        monitored = train_loss if val_loss is None else val_loss
        if monitored < best_loss:
            best_loss, best_params = monitored, [p.copy() for p in params]
        callback(epoch, train_loss, val_loss)
    if cfg.select == "best" and best_loss == math.inf:
        which = "training" if val_dataset is None else "validation"
        raise RuntimeError(f"non-finite {which} loss in every epoch: no epoch to select")
    return HeadModel(*(best_params if cfg.select == "best" else params), alpha0_sum)


@st.composite
def _training_cases(draw):
    N, d, k = draw(st.integers(1, 300)), draw(st.integers(1, 16)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def examples(rows):
        counts = rng.integers(0, 30, size=rows).astype(float)
        targets = np.exp(rng.uniform(math.log(0.05), math.log(20.0), size=(rows, k)))
        return rng.normal(size=(rows, d)), targets, counts, rng.uniform(0.1, 2.0, size=rows)

    val = examples(draw(st.integers(1, 40))) if draw(st.booleans()) else None
    data = examples(N)
    if draw(st.integers(0, 4)) == 0:
        # a target row past the bound under which steps skip their loss, with
        # a finite log_gamma, so training takes the loss-checking steps to the end
        data[1][draw(st.integers(0, N - 1))] *= 1e200
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from([2e-4, 1e-2, 0.1])),
        beta1=draw(st.sampled_from([0.0, 0.9])),
        beta2=draw(st.sampled_from([0.0, 0.995])),
        warmup_iters=draw(st.sampled_from([None, 0, 5])),
        batch_size=draw(st.integers(1, 63) | st.integers(N, N + 10)),
        epochs=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
        select=draw(st.sampled_from(["best", "last"])),
    )
    # alpha0_sum 1e150 is past that bound too; at 1e306 the first step's loss is not finite
    return data, val, draw(st.sampled_from([None, 1.0, 7.5, 1e150, 1e306])), cfg


def _trained(trainer, case):
    """The model's bytes, or the error that stopped training, and the losses
    the callback saw."""
    data, val, alpha0_sum, cfg = case
    losses = []
    try:
        model = trainer(data, cfg, val, alpha0_sum, callback=lambda *e: losses.append(e))
    except (RuntimeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}", losses
    return [model.A.tobytes(), model.bias.tobytes(), model.W.tobytes(), model.alpha0_sum], losses


@settings(max_examples=60, deadline=None)
@given(_training_cases())
def test_training_equals_per_array_adam_oracle_bitwise(case):
    assert _trained(train_head, case) == _trained(_train_head_oracle, case)


def _hex(losses):
    """(epoch, train_loss, val_loss) entries with each loss's bits spelt out."""
    return [(e, tl.hex(), vl if vl is None else vl.hex()) for e, tl, vl in losses]


@settings(max_examples=60, deadline=None)
@given(_training_cases())
def test_unread_full_set_losses_are_skipped_bitwise(case):
    """Training with no callback, with the last epoch's losses only and with
    every epoch's losses gives the same model, or the same error, and the last
    epoch's losses bit for bit."""
    every = _trained(train_head, case)
    last = _trained(functools.partial(train_head, last_epoch_only=True), case)
    silent = _trained(lambda *args, callback: train_head(*args), case)
    assert last[0] == silent[0] == every[0]
    assert silent[1] == []
    assert _hex(last[1]) == ([] if isinstance(every[0], str) else _hex(every[1][-1:]))


def test_full_set_losses_computed_only_where_read(monkeypatch):
    from crowdinfer import head

    loss_grads, passes = head._loss_grads, []

    def counting(params, alpha0_sum, X, *args, grad=False, **kwargs):
        if not grad:
            passes.append(len(X))
        return loss_grads(params, alpha0_sum, X, *args, grad=grad, **kwargs)

    monkeypatch.setattr(head, "_loss_grads", counting)
    rng = np.random.default_rng(11)
    data, val = _toy_dataset(rng, n=48), _toy_dataset(rng, n=16)
    epochs = 7
    final = []
    train_head(data, TrainConfig(epochs=epochs, batch_size=16), val_dataset=val,
               callback=lambda *e: final.append(e), last_epoch_only=True)
    # model selection reads the validation loss every epoch; the train loss
    # only goes to the callback, once
    assert sorted(passes) == [16] * epochs + [48]
    assert [e[0] for e in final] == [epochs]
    passes.clear()
    train_head(data, TrainConfig(epochs=epochs, batch_size=16, select="last"), val_dataset=val)
    assert passes == []
    # without a validation set model selection reads the train loss
    train_head(data, TrainConfig(epochs=epochs, batch_size=16))
    assert passes == [48] * epochs

def _toy_dataset(rng, n=64, d=6, k=3):
    X = rng.normal(size=(n, d))
    A = rng.normal(size=(d, k))
    logits = X @ A
    targets = (3.0 + 20.0) * softmax(logits)
    return X, targets, np.full(n, 20.0), np.ones(n)


def _scaled(data, part, row, factor):
    """data with one entry of X, T, n or w (part 0-3), or one row of it, scaled."""
    out = [a.copy() for a in data]
    out[part][row] *= factor
    return tuple(out)


@pytest.mark.parametrize("alpha0_sum, part, factor, bounded", [
    (None, 0, 1.0, True),
    (None, 0, 1e300, True),         # features do not bound the loss's arguments
    (1e100, 0, 1.0, False),
    (-1e100, 0, 1.0, False),
    (None, 1, 1e100, False),        # a target row past 1e100
    (None, 2, 1e100, False),        # a response count of 2e101
    (None, 2, -1e100, False),
    (None, 2, math.nan, False),
    (None, 3, 0.0, False),          # a weight of 0: a minibatch may weigh nothing
    (None, 3, math.inf, False),
])
def test_loss_bound_decision(alpha0_sum, part, factor, bounded):
    from crowdinfer import head

    data = _scaled(_toy_dataset(np.random.default_rng(13), n=8), part, 0, factor)
    a0 = 3.0 if alpha0_sum is None else alpha0_sum
    assert head._losses_finite(a0, data[1], data[2], data[3], 0.5) is bounded


def test_loss_bound_decision_needs_m_positive():
    """(1 - tau) * T rounding to 0 could leave a component of m at 0, where
    log_gamma, not digamma, would name the fault."""
    from crowdinfer import head

    T = np.array([[5e-324, 1.0]])
    one = (np.ones(1), np.ones(1))
    assert head._losses_finite(2.0, T, *one, 0.25)
    assert not head._losses_finite(2.0, T, *one, 0.5)
    assert not head._losses_finite(2.0, T, *one, 1.0 - 2.0 ** -53)


def test_minibatch_steps_compute_their_loss_only_past_the_bound(monkeypatch):
    """log_gamma runs for the two target terms and each full-set loss; only
    training on data past the bound also runs it once per minibatch step.
    Either way the model and the losses the callback sees are the same bits
    as the per-array oracle's, which computes every step's loss."""
    from crowdinfer import head

    calls = []
    log_gamma = head.log_gamma
    monkeypatch.setattr(head, "log_gamma", lambda x: calls.append(1) or log_gamma(x))
    rng = np.random.default_rng(11)
    data, val = _toy_dataset(rng, n=48), _toy_dataset(rng, n=16)
    epochs, steps = 4, 4 * 3
    cfg = TrainConfig(learning_rate=1e-2, epochs=epochs, batch_size=16)
    for case, per_step in [((data, None), 0), ((_scaled(data, 1, 5, 1e150), None), 1),
                           ((data, 1e100), 1), ((_scaled(data, 3, 7, 0.0), None), 1)]:
        calls.clear()
        trained = _trained(functools.partial(train_head, last_epoch_only=True),
                           (case[0], val, case[1], cfg))
        # validation losses every epoch for model selection, the final train loss once
        assert len(calls) == 2 + epochs + 1 + per_step * steps
        assert not isinstance(trained[0], str)
        oracle = _trained(_train_head_oracle, (case[0], val, case[1], cfg))
        assert trained == (oracle[0], oracle[1][-1:])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_step_raises_without_a_numpy_warning():
    """A learning rate of 1e308 overflows the second step's scores; the
    forward check refuses them, and numpy's warnings of it stay silent."""
    data = _toy_dataset(np.random.default_rng(14), n=8)
    cfg = TrainConfig(learning_rate=1e308, epochs=1, batch_size=1, seed=0)
    with pytest.raises(RuntimeError, match="non-finite training loss at iteration 2, example"):
        train_head(data, cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_target_past_the_float_range_raises_without_a_numpy_warning():
    """A target row near the largest float has an infinite log_gamma, so its
    target term is NaN; training refuses that loss with its one error, and
    numpy does not warn of the inf - inf first."""
    X, T, n, w = _toy_dataset(np.random.default_rng(15), n=10)
    T[3] = [1e306, 1.0, 1.0]
    cfg = TrainConfig(epochs=1, batch_size=10, seed=0)
    with pytest.raises(RuntimeError,
                       match="^non-finite training loss at iteration 1, example row 3$"):
        train_head((X, T, n, w), cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_val_loss_past_the_float_range_is_nan_without_a_numpy_warning():
    """A full-set loss is passed on as it is, and one past the float range
    (a validation target near the largest float) reads NaN, without
    numpy's warnings of the inf - inf that makes it."""
    X, T, n, w = _toy_dataset(np.random.default_rng(16), n=10)
    Tv = T.copy()
    Tv[3] = [1e306, 1.0, 1.0]
    losses = []
    # every validation loss is NaN, so model selection then has no epoch to keep
    with pytest.raises(RuntimeError, match="non-finite validation loss in every epoch"):
        train_head((X, T, n, w), TrainConfig(epochs=2, batch_size=4, seed=0),
                   val_dataset=(X, Tv, n, w), callback=lambda *entry: losses.append(entry))
    assert [epoch for epoch, _, _ in losses] == [1, 2]
    assert all(math.isfinite(train) and math.isnan(val) for _, train, val in losses)


def test_selection_without_a_finite_loss_raises():
    """NaN compares below no loss, so where every epoch's validation loss
    is NaN no epoch is selected: training raises instead of returning the
    initial parameters."""
    X, T, n, w = _toy_dataset(np.random.default_rng(17), n=10)
    Tv = T.copy()
    Tv[3] = [1e306, 1.0, 1.0]
    cfg = TrainConfig(epochs=5, batch_size=4, seed=0)
    with pytest.raises(RuntimeError,
                       match="^non-finite validation loss in every epoch: no epoch to select$"):
        train_head((X, T, n, w), cfg, val_dataset=(X, Tv, n, w))


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
    data = (x[None, :], target[None, :], np.array([20.0]), np.array([1.0]))
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
        return _loss_grads(model.params, model.alpha0_sum, *val, cfg.tau)[0]

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
    for bad in (dict(learning_rate=math.nan), dict(learning_rate=math.inf),
                dict(learning_rate=-1.0), dict(beta1=1.5), dict(beta1=-0.1),
                dict(beta2=1.0), dict(beta2=math.nan), dict(epochs=0), dict(epochs=-3),
                dict(batch_size=0), dict(warmup_iters=-1), dict(seed=-1)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    assert TrainConfig(beta1=0.0, beta2=0.0, warmup_iters=0, epochs=1, batch_size=1)


def test_non_finite_loss_aborts_with_example_id():
    x = np.array([[0.0, 0.0], [1e30, 1e30]])
    data = (x, np.array([[1.0, 1.0, 21.0]] * 2), np.full(2, 20.0), np.ones(2))
    cfg = TrainConfig(learning_rate=1e3, epochs=50, batch_size=2, seed=0)
    with pytest.raises(RuntimeError, match="iteration 1, example bad-task"):
        train_head(data, cfg, task_ids=["good-task", "bad-task"])
    with pytest.raises(RuntimeError, match="iteration 1, example row 1"):
        train_head(data, cfg)
    with pytest.raises(RuntimeError, match="iteration 1, example xxxxxxxxxxxxx...x{14}$"):
        train_head(data, cfg, task_ids=["good-task", "x" * 1000])


def test_non_finite_gradient_aborts_like_a_non_finite_loss():
    """A subnormal alpha component is positive and finite, and its loss is
    finite, but digamma of it is -inf: training stops there, naming the
    example, before the backward pass meets inf - inf."""
    cfg = TrainConfig(epochs=1, batch_size=2, seed=0)
    start = init_model(3, 3, 3.0, np.random.default_rng(cfg.seed))   # as train_head's
    # the initial scores of the second example are about (0, -740, 0)
    X = np.array([[0.0, 0.0, 0.0], [0.0, -740.0, 0.0]]) @ np.linalg.inv(start.A)
    data = (X, np.ones((2, 3)), np.zeros(2), np.ones(2))
    loss, J, grads = _loss_grads(start.params, 3.0, *data, cfg.tau, grad=True)
    assert (loss, np.isfinite(J).tolist(), grads) == (math.inf, [True, False], None)
    with pytest.raises(RuntimeError, match="iteration 1, example subnormal$"):
        train_head(data, cfg, task_ids=["plain", "subnormal"])


def test_train_head_checks_array_shapes():
    X, T, n, w = _toy_dataset(np.random.default_rng(10), n=8)
    cfg = TrainConfig(epochs=1)
    for bad in ((X[0], T, n, w), (X, T[:7], n, w), (X, T, n[:, None], w), (X, T, n, w[:7]),
                (X, T[:, 0], n, w)):
        with pytest.raises(ValueError, match="data must be arrays"):
            train_head(bad, cfg)
    with pytest.raises(ValueError, match="empty training dataset"):
        train_head((X[:0], T[:0], n[:0], w[:0]), cfg)
    with pytest.raises(ValueError, match=re.escape("val_dataset's (d, K) (5, 3) differ")):
        train_head((X, T, n, w), cfg, val_dataset=(X[:, :5], T, n, w))
    with pytest.raises(ValueError, match="7 task ids"):
        train_head((X, T, n, w), cfg, task_ids=[f"t{i}" for i in range(7)])
    # an empty validation set counts as none: the training loss is monitored
    losses = []
    train_head((X, T, n, w), cfg, val_dataset=(X[:0], T[:0], n[:0], w[:0]),
               callback=lambda e, tl, vl: losses.append(vl))
    assert losses == [None]


@pytest.mark.parametrize("part", [0, 1, 2], ids=["A", "bias", "W"])
def test_non_finite_parameters_stop_training_at_that_step(monkeypatch, part):
    from crowdinfer import head

    step = head._adam_step
    data = _toy_dataset(np.random.default_rng(9), n=32)
    d, k = data[0].shape[1], data[1].shape[1]

    def poisoned(theta, m, v, g, t, cfg):
        steps.append(t)
        step(theta, m, v, g, t, cfg)
        if t == 3:
            head._unflatten(theta, d, k)[part].flat[-1] = np.nan

    monkeypatch.setattr(head, "_adam_step", poisoned)
    steps, epochs = [], []
    with pytest.raises(ValueError, match=f"non-finite entries in {('A', 'bias', 'W')[part]}$"):
        train_head(data, TrainConfig(epochs=2, batch_size=8),
                   callback=lambda e, tl, vl: epochs.append(e))
    assert steps == [1, 2, 3] and epochs == []


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


@pytest.mark.parametrize("key", ["d", "C"])
def test_model_load_requires_d_and_C(tmp_path, key):
    path = tmp_path / "model.json"
    save_model(path, init_model(5, 3, 3.0, np.random.default_rng(8)))
    payload = json.loads(path.read_text())
    del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(InputError, match=f"missing key '{key}'"):
        load_model(path)


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


# 10**400 compares below inf, but no float holds it
@pytest.mark.parametrize("alpha0_sum", [0.0, -1.0, float("inf"), float("nan"),
                                        pytest.param(10**400, id="10**400")])
def test_head_model_requires_positive_finite_alpha0_sum(alpha0_sum):
    with pytest.raises(ValueError, match="alpha0_sum must be positive and finite"):
        HeadModel(A=np.zeros((2, 3)), bias=np.zeros(3), W=np.eye(3), alpha0_sum=alpha0_sum)


def test_head_model_keeps_an_int_alpha0_sum_in_the_float_range():
    model = HeadModel(A=np.zeros((2, 3)), bias=np.zeros(3), W=np.eye(3), alpha0_sum=10**300)
    assert type(model.alpha0_sum) is int and model.alpha0_sum == 10**300
    assert head_forward(model, np.zeros(2), 0).alpha.tolist() == [10.0**300 / 3] * 3
