"""
Scoring soft labels: ambiguity, confidence, distance
=====================================================

Soft labels are probability vectors over the answer categories.  This
script walks through the scalar summaries used everywhere else in the
package and ends with the geometric median as a robust ensemble of noisy
predictions.  Each metric takes one label as a (K,) array and returns a
float, or a stack of labels as an (N, K) array and returns one value per
row.
"""

import numpy as np

from crowdinfer import (
    ambiguity,
    confidence,
    cross_entropy,
    geometric_median,
    hard_weights,
    soft_distance,
    soft_weight,
)

labels = np.array([
    [0.05, 0.9, 0.05],     # clear: strong "yes"
    [0.45, 0.45, 0.1],     # split: annotators disagree
    [0.1, 0.1, 0.8],       # lost: mostly "can't solve"
])
for name, q, amb, conf in zip(("clear", "split", "lost"), labels,
                              ambiguity(labels), confidence(labels)):
    print(f"{name:6s} q={np.round(q, 2)}  ambiguity {amb:.3f}  confidence {conf:.3f}")

# ambiguity blends two ingredients: distance of the proper-category part
# from uniform, and an exponential penalty as "can't solve" mass grows
print("\nambiguity as cs mass grows:")
for cs in (0.0, 0.2, 0.5, 0.9):
    q = np.array([(1 - cs) / 2, (1 - cs) / 2, cs])
    print(f"  cs={cs:.1f} -> {ambiguity(q):.3f}")

# soft_distance normalizes each component deviation by the largest shift
# the reference permits in that direction; 1 means maximally wrong
ref = np.array([0.0, 1.0, 0.0])
pred = np.array([0.03, 0.9, 0.07])
print(f"\nsoft distance to one-hot reference: {soft_distance(pred, ref):.3f}")
print(f"cross entropy (nats): {cross_entropy(ref, pred):.4f}")

# class weights counter imbalance; soft weights scale them by the label
counts = np.array([40, 8, 2])            # majority labels per category
w = hard_weights(counts)
print("\nclass weights:", np.round(w, 3))
print("weight of a clear minority-class task:", round(soft_weight(labels[2], w), 3))

# geometric median of several predictions: robust to a single bad one
preds = np.array([
    [0.1, 0.85, 0.05],
    [0.12, 0.8, 0.08],
    [0.08, 0.88, 0.04],
    [0.9, 0.05, 0.05],                   # outlier
])
print("\ngeometric median:", np.round(geometric_median(preds), 3), " (outlier shrugged off)")
print("plain average   :", np.round(preds.mean(axis=0), 3))
