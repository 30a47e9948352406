"""
Using predictions as priors for the remaining human work
=========================================================

Tasks the model cannot automate still need annotators, but the model's
prediction does not have to be discarded: blended into the Dirichlet
prior, it gives the Bayesian update a head start.  The repeats analysis
replays each task's responses one at a time and tracks how fast the
posterior mode approaches the crowd's final empirical distribution.
"""

import numpy as np

from crowdinfer import task_rng
from crowdinfer.priors import blend_prior, repeats_summary
from crowdinfer.sim import SimConfig, simulate_dataset, synthetic_predictor

cfg = SimConfig(num_tasks=400, num_proper=2, repeats=12, seed=0)
scheme, tasks, answers = simulate_dataset(cfg)
k = scheme.num_categories

# the blended prior keeps 2/3 uniform mass so a wrong prediction cannot
# dominate; predictions are taken at n=0 (no responses seen)
def informed_prior(task_id, q):
    rng = task_rng(cfg.seed, f"demo-pred:{task_id}")
    return blend_prior(synthetic_predictor(q, 0, rng, noise=0.5), blend=1.0 / 3.0).alpha


# one prior row per task
informed = np.stack([informed_prior(tid, q) for tid, q in zip(tasks.task_ids, tasks.true_q)])
print("uniform prior :", np.ones(k))
print("informed prior:", np.round(informed[0], 3))

# one call replays each task once from every prior, on the same response
# orders, so the variants are compared on exactly the same draws; the same
# machinery accepts any prior, e.g. a deliberately wrong one
wrong = np.array([2.5, 0.25, 0.25])
summary = repeats_summary(tasks.task_ids, answers, {
    "uniform": np.ones((len(tasks), k)),
    "informed": informed,
    "wrong": np.tile(wrong, (len(tasks), 1)),
}, permutations=16, seed=0)
uni, inf = summary["uniform"], summary["informed"]

print("\nstep  uniform median  informed median")
for su, si in zip(uni, inf):
    print(f"{su.step:4d} {su.median:15.4f} {si.median:16.4f}")

first_gain = uni[0].median - inf[0].median
print(f"\nmedian distance saved at step 1: {first_gain:.4f}")
print("final step is 0 for the uniform variant by construction:", uni[-1].median)
print("step-1 median with a misleading prior:", round(summary["wrong"][0].median, 4))
