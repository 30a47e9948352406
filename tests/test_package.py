"""The package's public names: each one listed in __all__ must import, and
the refusals of its types and functions that no stage reaches still raise."""

import math
import re

import pytest

import crowdinfer
from crowdinfer.autothresh import ThresholdCalibration
from crowdinfer.bayes import marginal_conditional, marginal_solvability
from crowdinfer.core import (
    CategoryScheme,
    DirichletParams,
    InputError,
    read_scheme,
    split_dataset,
)
from crowdinfer.head import chernoff_grad
from crowdinfer.metrics import confidence, hard_weights, soft_weight
from crowdinfer.sim import SimConfig


def test_every_name_in_all_resolves():
    missing = [name for name in crowdinfer.__all__ if not hasattr(crowdinfer, name)]
    assert not missing
    assert len(set(crowdinfer.__all__)) == len(crowdinfer.__all__)


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from crowdinfer import *", namespace)
    assert set(crowdinfer.__all__) <= set(namespace)


def _scheme_file(tmp_path, text):
    path = tmp_path / "scheme.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize("call, error, message", [
    (lambda _: ThresholdCalibration(0.9, [], (0.0, 0.0), (0.0, 0.0), 0.0, 0.5), ValueError,
     "calibration needs at least one realization"),
    (lambda _: marginal_solvability(DirichletParams([1.0])), ValueError,
     "need at least one proper category plus cs"),
    (lambda _: marginal_conditional(DirichletParams([1.0])), ValueError,
     "need at least one proper category plus cs"),
    (lambda _: CategoryScheme(("a", 1)), InputError, "category names must be strings"),
    (lambda _: split_dataset(["a", "b", "c"], (0.5, 0.5)), InputError,
     "expected three split ratios"),
    (lambda tmp: read_scheme(_scheme_file(tmp, '{"proper": ["a", "cs"]}')), InputError,
     "scheme.json: category names not unique: ('a', 'cs', 'cs')"),
    (lambda _: chernoff_grad(DirichletParams([1.0, 1.0]), DirichletParams([1.0, 1.0, 1.0])),
     ValueError, "parameter vectors must have equal length"),
    (lambda _: confidence([[1.0]]), ValueError, "confidence needs at least two categories"),
    (lambda _: hard_weights([1.0]), ValueError,
     "class_counts must be a vector of at least two categories"),
    (lambda _: hard_weights([1.0, -1.0]), ValueError, "negative class counts"),
    (lambda _: hard_weights([math.nan, 1.0, 1.0]), InputError,
     "class counts must be finite, got nan"),
    (lambda _: hard_weights([1.0, math.inf, 1.0]), InputError,
     "class counts must be finite, got inf"),
    (lambda _: soft_weight([[0.5, 0.5]], [1.0, 1.0, 1.0]), ValueError,
     "weight vector length must match the label"),
    (lambda _: SimConfig(num_tasks=1, feature_dim=0), InputError,
     "feature_dim must be at least 1"),
], ids=["no-realization", "solvability", "conditional",
        "category-name", "two-ratios", "duplicate-names", "chernoff-lengths",
        "confidence-k1", "weights-k1", "weights-negative", "weights-nan", "weights-inf",
        "weights-length", "no-features"])
def test_refusals(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)
