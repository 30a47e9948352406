import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdinfer.bayes import (
    marginal_conditional,
    marginal_solvability,
    point_estimates,
    posterior,
    posterior_mean,
    posterior_mode,
    uniform_prior,
)
from crowdinfer.core import CategoryScheme, DirichletParams, InputError, SoftLabel


def _posterior_mean_oracle(alpha: DirichletParams) -> SoftLabel:
    """posterior_mean as a one-vector computation."""
    return SoftLabel(alpha.alpha / alpha.alpha_sum)


def _posterior_mode_oracle(alpha: DirichletParams) -> SoftLabel:
    """posterior_mode as a one-vector computation: clamp, normalize, or
    fall back to the mean when nothing is left."""
    shifted = np.maximum(alpha.alpha - 1.0, 0.0)
    total = shifted.sum()
    if total > 0.0:
        return SoftLabel(shifted / total)
    return _posterior_mean_oracle(alpha)


def simplex_grid(step=1e-3):
    """Midpoint grid over the 2-simplex via the stick-breaking map.

    (u, v) in the unit square maps to q = (u, (1-u)v, (1-u)(1-v)) with area
    element (1-u) du dv; unlike a raw triangular grid this covers the simplex
    without boundary slivers, so midpoint quadrature stays accurate.
    Returns the q points, their logs, and the log area weights.
    """
    u = np.arange(step / 2, 1.0, step)
    ug, vg = np.meshgrid(u, u, indexing="ij")
    ug, vg = ug.ravel(), vg.ravel()
    q = np.stack([ug, (1.0 - ug) * vg, (1.0 - ug) * (1.0 - vg)])
    return q, np.log(q), np.log1p(-ug)


def grid_posterior_mean(prior, counts, q, logq, log_jac):
    """Brute-force oracle: normalize prior x likelihood on the simplex grid.

    Independent of the conjugate shortcut; only uses the density kernel.
    Valid for prior components >= 1: below that the kernel is singular at
    the simplex boundary and midpoint quadrature degrades, which would test
    the quadrature rather than the conjugacy.
    """
    expo = prior.alpha + counts - 1.0
    logw = expo @ logq + log_jac
    w = np.exp(logw - logw.max())
    w /= w.sum()
    return q @ w


def test_conjugate_mean_matches_grid_oracle():
    rng = np.random.default_rng(0)
    grid = simplex_grid()
    for _ in range(10):
        prior = DirichletParams(rng.uniform(1.0, 4.0, size=3))
        counts = rng.multinomial(int(rng.integers(0, 7)), (0.3, 0.5, 0.2))
        analytic = posterior_mean(posterior(prior, counts)).q
        brute = grid_posterior_mean(prior, counts, *grid)
        assert np.max(np.abs(analytic - brute) / brute) < 1e-3


def test_uniform_prior_is_ones():
    s = CategoryScheme(("no", "yes"))
    assert uniform_prior(s).alpha.tolist() == [1.0, 1.0, 1.0]


def test_posterior_adds_counts():
    post = posterior(DirichletParams([1, 1, 1]), np.array([0, 20, 0]))
    assert post.alpha.tolist() == [1.0, 21.0, 1.0]
    assert posterior(DirichletParams([1, 1, 1]), [0, 20, 0]).alpha.tolist() == [1.0, 21.0, 1.0]
    with pytest.raises(ValueError):
        posterior(DirichletParams([1, 1]), np.array([1, 2, 3]))


def test_posterior_mismatch_names_the_shape_of_counts():
    with pytest.raises(ValueError, match=re.escape(
            "prior has 3 components, counts has shape (1, 3)")):
        posterior(DirichletParams([1.0, 1.0, 1.0]), np.ones((1, 3), dtype=np.int64))


def test_posterior_refuses_negative_counts():
    # a negative count could still leave every component positive
    for counts in ([0, -1, 0], np.array([3, 0, -2])):
        with pytest.raises(InputError, match="negative count in"):
            posterior(DirichletParams([2.0, 2.0, 3.0]), counts)
    # a fractional count must not be truncated to an integer
    for counts in ([0.5, 1.7, 0.0], np.array([True, False, True])):
        with pytest.raises(InputError, match="counts must be integers"):
            posterior(DirichletParams([2.0, 2.0, 3.0]), counts)


def test_marginals_against_monte_carlo():
    # Aggregation property of the Dirichlet: grouped components stay Dirichlet.
    alpha = DirichletParams([2.0, 3.0, 1.5])
    rng = np.random.default_rng(1)
    draws = rng.dirichlet(alpha.alpha, size=100_000)

    beta = marginal_solvability(alpha)
    assert beta.alpha.tolist() == [5.0, 1.5]
    pi = draws[:, :2].sum(axis=1)
    assert abs(pi.mean() - posterior_mean(beta).q[0]) < 1e-2

    cond = marginal_conditional(alpha)
    assert cond.alpha.tolist() == [2.0, 3.0]
    p = draws[:, 0] / pi
    assert abs(p.mean() - 2.0 / 5.0) < 1e-2


def test_posterior_mean():
    assert np.allclose(posterior_mean(DirichletParams([1, 21, 1])).q, [1 / 23, 21 / 23, 1 / 23])


def test_posterior_mode_identity_with_uniform_prior():
    # (1 + n_k - 1) / N is the empirical frequency, bitwise.
    rng = np.random.default_rng(2)
    for _ in range(200):
        counts = rng.multinomial(int(rng.integers(1, 40)), (0.2, 0.5, 0.3))
        post = posterior(DirichletParams([1, 1, 1]), counts)
        mode = posterior_mode(post).q
        assert np.max(np.abs(mode - counts / counts.sum())) <= 1e-12


def test_posterior_mode_clamps_below_one():
    mode = posterior_mode(DirichletParams([0.5, 2.0, 0.5])).q
    assert np.allclose(mode, [0.0, 1.0, 0.0])


def test_posterior_mode_falls_back_to_mean():
    # All components < 1: the density has no interior mode, use the mean.
    params = DirichletParams([0.5, 0.5])
    assert np.allclose(posterior_mode(params).q, posterior_mean(params).q)


_alpha_rows = st.integers(2, 12).flatmap(
    lambda k: st.lists(
        st.one_of(
            st.just([1.0] * k),   # mode has no mass left: falls back to the mean
            st.lists(st.floats(0.01, 50.0), min_size=k, max_size=k),
        ),
        min_size=1,
        max_size=20,
    )
)


@settings(max_examples=300, deadline=None)
@given(_alpha_rows)
def test_point_estimates_equal_scalar_estimators_bitwise(rows):
    alpha = np.array(rows)
    modes = point_estimates(alpha)
    means = point_estimates(alpha, "mean")
    for row, mode, mean in zip(alpha, modes, means):
        params = DirichletParams(row)
        assert np.array_equal(mode, _posterior_mode_oracle(params).q)
        assert np.array_equal(mean, _posterior_mean_oracle(params).q)
        assert np.array_equal(posterior_mode(params).q, mode)
        assert np.array_equal(posterior_mean(params).q, mean)


def test_point_estimates_keep_leading_axes_and_reject_unknown():
    alpha = np.ones((2, 3, 4))
    alpha[1, 2] = [3.0, 1.0, 0.5, 2.0]
    out = point_estimates(alpha)
    assert out.shape == (2, 3, 4)
    assert np.array_equal(out[0, 0], np.full(4, 0.25))
    assert np.array_equal(out[1, 2], [2 / 3, 0.0, 0.0, 1 / 3])
    with pytest.raises(ValueError):
        point_estimates(alpha, "median")
