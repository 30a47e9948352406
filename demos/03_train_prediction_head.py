"""
Training the Dirichlet prediction head
=======================================

The head maps task features to Dirichlet parameters whose sum is fixed at
alpha0_sum + n by construction, trained by minimizing the Chernoff
distance to the crowd posterior.  Everything runs on a synthetic crowd so
the script finishes in seconds.
"""

import numpy as np

from crowdinfer import (
    TrainConfig,
    chernoff,
    evaluate,
    head_forward,
    posterior,
    simulate_dataset,
    split_dataset,
    tally,
    train_head,
    uniform_prior,
)
from crowdinfer.bayes import point_estimates
from crowdinfer.sim import SimConfig

cfg = SimConfig(num_tasks=1200, num_proper=2, repeats=15, feature_noise=0.1, seed=0)
# the tasks as columns (ids, features, latent soft labels) and one row of
# answers per task
scheme, tasks, answers = simulate_dataset(cfg)
# one split label per task: 0 train, 1 val, 2 test
labels = split_dataset(tasks.task_ids, (0.8, 0.1, 0.1), seed=0)
prior = uniform_prior(scheme)


def arrays(label):
    """The tasks of one split as arrays: features X, target concentrations T
    (each task's posterior under the uniform prior), response counts n and
    example weights w, one row per task."""
    rows = labels == label
    counts = np.stack([tally(row, scheme) for row in answers[rows]])
    X = tasks.features[rows]
    return X, prior.alpha + counts, counts.sum(axis=1).astype(float), np.ones(len(X))


train_set, val_set = arrays(0), arrays(1)
print(f"{len(train_set[0])} train / {len(val_set[0])} val examples, "
      f"{cfg.feature_dim} features, {scheme.num_categories} categories")

# keep the best epoch as measured on the validation set
train_cfg = TrainConfig(learning_rate=2e-4, epochs=120, batch_size=256, seed=0)
history = []
model = train_head(train_set, train_cfg, val_dataset=val_set,
                   callback=lambda e, tl, vl: history.append((e, tl, vl)))
for e, tl, vl in history[:: max(1, len(history) // 6)]:
    print(f"  epoch {e:3d}  train {tl:.4f}  val {vl:.4f}")

# predictions: Dirichlet parameters at any chosen response budget n
test_rows = np.flatnonzero(labels == 2)
x = tasks.features[test_rows[0]]
for n in (0, 5, 15):
    alpha = head_forward(model, x, n)
    print(f"n={n:2d} -> alpha {np.round(alpha.alpha, 3)} (sum {alpha.alpha_sum:.1f})")

# score mode-vs-mode on the held-out split, one row per task
X, T, n, _ = arrays(2)
predictions = point_estimates(np.stack([head_forward(model, x, k).alpha for x, k in zip(X, n)]))
report = evaluate(predictions, point_estimates(T))
print(f"\ntest accuracy {report.acc:.3f}, mean distance {report.mean_D:.3f} "
      f"over {report.n_tasks} tasks")

# the loss being minimized is a proper distance between Dirichlet posteriors
last = test_rows[-1]
a = head_forward(model, tasks.features[last], answers[last].size)
b = posterior(prior, tally(answers[last], scheme))
print(f"chernoff(prediction, crowd posterior) on one task: {chernoff(a, b):.4f}")
