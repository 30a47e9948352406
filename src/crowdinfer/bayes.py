"""Conjugate truth inference for the Dirichlet-multinomial crowd model.

A Dirichlet prior over the per-task soft label combined with categorical
responses yields a Dirichlet posterior by simple count addition.  The
module also exposes the transformed marginals (task solvability and the
conditional distribution over proper categories) and two point
estimators, the posterior mode and the posterior predictive mean.
"""

from __future__ import annotations

import numpy as np

from .core import CategoryScheme, DirichletParams, InputError, SoftLabel


def uniform_prior(scheme: CategoryScheme) -> DirichletParams:
    """All-ones concentration vector over the C+1 categories."""
    return DirichletParams(np.ones(scheme.num_categories))


def posterior(prior: DirichletParams, counts) -> DirichletParams:
    """Conjugate update: add observed counts (an integer row, as tally
    returns) to the prior concentrations."""
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        raise InputError(f"counts must be integers, got {counts.dtype}")
    if counts.shape != (len(prior),):
        raise ValueError(
            f"dimension mismatch: prior has {len(prior)} components, "
            f"counts has shape {counts.shape}"
        )
    if min(counts.tolist()) < 0:   # a list: microseconds less per task than a ufunc
        raise InputError(f"negative count in {counts}")
    return DirichletParams(prior.alpha + counts)


def marginal_solvability(alpha: DirichletParams) -> DirichletParams:
    """Marginal of the solvability probability: Beta(sum of proper, cs), a Dirichlet."""
    if len(alpha) < 2:
        raise ValueError("need at least one proper category plus cs")
    return DirichletParams([alpha.alpha[:-1].sum(), alpha.alpha[-1]])


def marginal_conditional(alpha: DirichletParams) -> DirichletParams:
    """Marginal over proper categories given solvability; drops the cs
    component."""
    if len(alpha) < 2:
        raise ValueError("need at least one proper category plus cs")
    return DirichletParams(alpha.alpha[:-1].copy())


def posterior_mean(alpha: DirichletParams) -> SoftLabel:
    """Expected soft label, the posterior predictive probability vector."""
    return SoftLabel(point_estimates(alpha.alpha, "mean"))


def posterior_mode(alpha: DirichletParams) -> SoftLabel:
    """Mode (alpha - 1) / sum(alpha - 1), made total: components are clamped
    at zero first, since blended machine-informed priors can dip below 1, and
    if nothing remains (e.g. the all-ones vector) the mean is returned."""
    return SoftLabel(point_estimates(alpha.alpha))


def point_estimates(alpha: np.ndarray, how: str = "mode") -> np.ndarray:
    """The posterior mode or mean (how="mode"/"mean") of each row of stacked
    concentration vectors, as posterior_mode and posterior_mean describe."""
    mean = alpha / alpha.sum(axis=-1, keepdims=True)
    if how == "mean":
        return mean
    if how != "mode":
        raise InputError(f"unknown point estimate {how!r}")
    shifted = np.maximum(alpha - 1.0, 0.0)
    total = shifted.sum(axis=-1, keepdims=True)
    return np.divide(shifted, total, out=mean, where=total > 0.0)

