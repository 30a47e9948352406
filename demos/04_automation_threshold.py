"""
Calibrating an automation threshold
====================================

Predictions above a confidence threshold are accepted automatically, the
rest go back to human annotators.  The threshold is picked on a validation
split so retained accuracy meets a target, with bootstrap resampling to
quantify how stable that choice is, then stress-tested on the test split.
"""

import numpy as np

from crowdinfer import confidence, posterior_mode
from crowdinfer.autothresh import bootstrap_curves, calibrate, curve
from crowdinfer.sim import SimConfig, simulate_dataset, synthetic_predictor

# a synthetic predictor with mild noise stands in for a trained model
cfg = SimConfig(num_tasks=3000, num_proper=2, repeats=0, seed=0)
_, tasks, _ = simulate_dataset(cfg)
rng = np.random.default_rng(0)

conf, correct = [], []
for q in tasks.true_q:
    pred = posterior_mode(synthetic_predictor(q, 20, rng, noise=0.8))
    conf.append(confidence(pred.q))
    correct.append(int(pred.argmax() == q.argmax()))
conf, correct = np.array(conf), np.array(correct)
val, test = slice(0, 1500), slice(1500, None)
print(f"overall accuracy {correct.mean():.3f}; "
      f"mean confidence {conf.mean():.3f}")

# the automation-correctness tradeoff: raise the threshold, keep less,
# get it right more often
print("\nthreshold  automation  accuracy")
thresholds, automation, accuracy = curve(conf[val], correct[val])
for t, a, acc in zip(thresholds[::12], automation[::12], accuracy[::12]):
    print(f"  {t:9.3f} {a:10.3f} {acc:9.3f}")

# bootstrap bands show how much the curve wobbles under resampling
bands = bootstrap_curves(conf[val], correct[val], B=256, seed=0)
i = len(bands.thresholds) // 2
print(f"\nmid-curve accuracy band at threshold {bands.thresholds[i]:.3f}: "
      f"[{bands.acc_q025[i]:.3f}, {bands.acc_q975[i]:.3f}]")

# full calibration: one threshold per bootstrap realization, evaluated
# jointly on the untouched test half
result = calibrate(conf[val], correct[val], conf[test], correct[test],
                   target_accuracy=0.95, B=512, seed=0)
print(f"\ntarget accuracy       {result.target_accuracy}")
print(f"deployment threshold  {result.deployment_threshold:.4f}")
print(f"test accuracy CI      [{result.accuracy_ci[0]:.4f}, {result.accuracy_ci[1]:.4f}]")
print(f"test automation CI    [{result.automation_ci[0]:.4f}, {result.automation_ci[1]:.4f}]")
print(f"abstain-all fraction  {result.abstention_rate:.4f}")
