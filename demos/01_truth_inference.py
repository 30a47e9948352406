"""
Truth inference from repeated crowd responses
==============================================

A task is shown to several annotators; each picks one of the proper answer
categories or "can't solve".  Starting from a flat Dirichlet prior, every
response sharpens the posterior over the task's answer distribution.
"""

import numpy as np

from crowdinfer import (
    CategoryScheme,
    empirical_soft_label,
    marginal_conditional,
    marginal_solvability,
    posterior,
    posterior_mean,
    posterior_mode,
    tally,
    uniform_prior,
)

# two proper categories; "cs" (can't solve) is always appended as the last one
scheme = CategoryScheme(("no", "yes"))
print("categories:", scheme.names)

# twelve annotators: 3 * no, 8 * yes, 1 * can't solve
answers = ["no"] * 3 + ["yes"] * 8 + ["cs"]
counts = tally([scheme.index_of(a) for a in answers], scheme)
print("counts:", dict(zip(scheme.names, counts.tolist())))

# conjugate update: posterior parameters are prior + counts
prior = uniform_prior(scheme)
post = posterior(prior, counts)
print("posterior alpha:", post.alpha)

# two point estimates of the answer distribution
print("posterior mean:", np.round(posterior_mean(post).q, 4))
print("posterior mode:", np.round(posterior_mode(post).q, 4))

# under the uniform prior the mode reproduces the raw response frequencies
print("empirical     :", np.round(empirical_soft_label(counts).q, 4))

# marginals: how solvable is the task, and which answer given solvable?
solv = marginal_solvability(post)
cond = marginal_conditional(post)
a, b = solv.alpha
print(f"solvability Beta(a={a}, b={b}), mean {posterior_mean(solv).q[0]:.3f}")
print("conditional answer distribution:", np.round(posterior_mean(cond).q, 4))

# a single extra "yes" moves the posterior a little; twenty move it a lot
for extra in (1, 20):
    more = [scheme.index_of("yes")] * extra
    updated = posterior(post, tally(more, scheme))
    print(f"+{extra:2d} yes -> mode {np.round(posterior_mode(updated).q, 4)}")
