"""Batch pipeline entry point.

Subcommands cover the full flow: simulate a crowd, infer posteriors, train
the prediction head, predict, evaluate, plot-ready curve export, threshold
calibration, and the prediction-as-prior repeats analysis.  Options resolve
in three layers: built-in defaults, then a JSON config file, then explicit
command-line flags.  Every report embeds the seed and a hash of the
non-path options so reruns are byte-identical and attributable.

Exit codes: 0 success, 2 bad input (files, schema, option values),
3 numeric failure during computation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .autothresh import (
    _at_thresholds,
    ambiguity_calibration,
    bootstrap_curves,
    calibrate,
    write_bins_csv,
    write_curve_csv,
)
from .bayes import point_estimates, posterior, posterior_mean, posterior_mode, uniform_prior
from .core import (
    InputError,
    attach_responses,
    brief,
    brief_text,
    config_hash,
    count_matrix,
    is_numbers,
    read_alpha_records,
    read_json_object,
    read_responses,
    read_scheme,
    read_tasks,
    split_dataset,
    tally,
    write_alpha_records,
    write_responses,
    write_scheme,
    write_tasks,
)
from .head import TrainConfig, head_forward, load_model, save_model, train_head
from .metrics import (
    AmbiguityConfig,
    ambiguity,
    confidence,
    evaluate,
    hard_weights,
    soft_distance,
    soft_weight,
)
from .priors import blend_prior, check_blend, check_replay, repeats_summary, write_repeats_csv
from .sim import SimConfig, simulate_dataset

# Artifact paths, resolved against the output directory; provenance leaves
# them out of the config hash.
_PATHS = {
    "scheme": "scheme.json",
    "tasks": "tasks.jsonl",
    "responses": "responses.jsonl",
    "posteriors": "posteriors.jsonl",
    "model": "model.json",
    "predictions": "predictions.jsonl",
    "report": "report.json",
    "curve": "curve.csv",
    "calibration": "calibration.json",
    "bins_csv": "bins.csv",
    "repeats_csv": "repeats.csv",
}

# The option of a settings field is the field's name, but for these.
_OPTION_OF = {"num_proper": "categories"}


def _field_options(settings) -> Dict[str, object]:
    """{option: default} of the fields of a settings dataclass but its seed."""
    return {_OPTION_OF.get(f.name, f.name): f.default
            for f in dataclasses.fields(settings) if f.name != "seed"}


def _settings(settings, cfg: dict):
    """The settings dataclass built from the options of its fields."""
    return settings(**{f.name: cfg[_OPTION_OF.get(f.name, f.name)]
                       for f in dataclasses.fields(settings)})


DEFAULTS: Dict[str, object] = {
    "seed": 0,   # shared by every stage, so left out of the field options below
    **_PATHS,
    **_field_options(SimConfig),
    **_field_options(TrainConfig),
    **_field_options(AmbiguityConfig),
    # metrics and calibration
    "bins": 10,
    "point_estimate": "mode",
    "target_accuracy": 0.99,
    "bootstrap": 1024,
    # repeats analysis
    "blend": 1.0 / 3.0,
    "permutations": 16,
    "max_repeats": None,
    "deployment_threshold": None,
    # shared
    "ratios": (0.8, 0.1, 0.1),
    "inference_n": None,
    "prior": "uniform",
    "split": "test",
}


# ---------------------------------------------------------------------------
# Option resolution
# ---------------------------------------------------------------------------

# Option type for the options whose default is None; the others take the
# type of their default.
_NULLABLE_TYPES = {"alpha0": tuple, "warmup_iters": int, "max_repeats": int,
                   "inference_n": int, "deployment_threshold": float}
_TYPE_NAMES = {int: "an integer", float: "a number", tuple: "a list of numbers",
               str: "a string"}
# The values a string option may take, from a flag or a config file alike;
# the splits come in the order of split_dataset's labels 0, 1, 2.
_CHOICES = {"prior": ("uniform", "model"), "select": ("best", "last"),
            "split": ("train", "val", "test", "all"), "point_estimate": ("mode", "mean")}


def _check_config_value(key: str, value) -> None:
    """A config-file value must have its option's type; null only stands for
    a default of None.  Lists of numbers may also be comma-separated strings."""
    kind = _NULLABLE_TYPES.get(key, type(DEFAULTS[key]))
    if value is None:
        ok = DEFAULTS[key] is None
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind is float:
        ok = is_numbers(value)
    elif kind is tuple:
        ok = isinstance(value, str) or is_numbers(value, 1)
    else:
        ok = isinstance(value, str)
    if not ok:
        raise InputError(f"config key {key!r} must be {_TYPE_NAMES[kind]}, "
                         f"got {brief.repr(value)}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise InputError(f"config key {key!r} must be one of {', '.join(_CHOICES[key])}, "
                         f"got {brief.repr(value)}")


def _parse_floats(key: str, text) -> tuple:
    try:
        if isinstance(text, str):
            return tuple(float(x) for x in text.split(","))
        return tuple(float(x) for x in text)
    except ValueError:
        raise InputError(f"{key} must be {_TYPE_NAMES[tuple]}, got {brief.repr(text)}") from None


def resolve_options(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    raw = vars(args)
    if raw.get("config"):
        file_cfg = read_json_object(raw["config"], "options")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_config_value(key, value)
        cfg.update(file_cfg)
    for key, value in raw.items():
        if key in cfg and value is not None:
            cfg[key] = value
    for key in ("alpha0", "ratios"):
        if cfg[key] is not None:
            cfg[key] = _parse_floats(key, cfg[key])
    cfg["_outdir"] = raw.get("outdir") or os.environ.get("CROWDINFER_OUTDIR") or "."
    return cfg


def _path(cfg: dict, key: str) -> str:
    p = str(cfg[key])
    return p if os.path.isabs(p) else os.path.join(cfg["_outdir"], p)


def provenance(cfg: dict) -> dict:
    hashable = {k: cfg[k] for k in sorted(DEFAULTS) if k not in _PATHS}
    return {"version": __version__, "seed": cfg["seed"], "config_hash": config_hash(hashable)}


# ---------------------------------------------------------------------------
# Shared loading helpers
# ---------------------------------------------------------------------------

def _load_dataset(cfg: dict, responses: bool = True):
    """The scheme, the tasks table and the responses file's columns (None
    where the stage does not read that file)."""
    scheme = read_scheme(_path(cfg, "scheme"))
    table = read_tasks(_path(cfg, "tasks"))
    return scheme, table, read_responses(_path(cfg, "responses"), scheme) if responses else None


def _load_model(cfg: dict, scheme, table):
    """The model, refused unless it maps the tasks' features to the scheme's categories."""
    path = _path(cfg, "model")
    model = load_model(path)
    width = table.features.shape[1] if table.has_features.any() else model.feature_dim
    if (model.feature_dim, model.num_categories) != (width, scheme.num_categories):
        raise InputError(f"{path}: the model maps {model.feature_dim} features to "
                         f"{model.num_categories} categories; the tasks have {width} features "
                         f"and the scheme {scheme.num_categories} categories")
    return model


def _inference_counts(cfg: dict, counts: Optional[np.ndarray], rows) -> np.ndarray:
    """The int64 response count each of the rows is predicted at: inference_n,
    which must fit an int64 as the record readers require, else its count."""
    n = cfg["inference_n"]
    if n is None:
        return counts[rows]
    if n > np.iinfo(np.int64).max:
        raise InputError(f"inference_n must be at most {np.iinfo(np.int64).max}, "
                         f"got {brief.repr(n)}")
    # head_forward refuses every negative n alike, task by task, so -1 stands for them all
    return np.full(len(rows), max(n, -1), dtype=np.int64)


def _forwards(model, table, rows, ns, featureless: str):
    """head_forward of each of the table's rows at its count in ns, in row
    order and one at a time.  A featureless task exits 2 ("task <id>
    <featureless>"), a forward not positive and finite 3, naming the task."""
    ids, has_x = table.task_ids, table.has_features.tolist()
    for i, n in zip(rows, ns):
        if not has_x[i]:
            raise InputError(f"task {brief_text(ids[i])} {featureless}")
        try:
            alpha = head_forward(model, table.features[i], n)
        except FloatingPointError as exc:
            raise FloatingPointError(f"task {brief_text(ids[i])}: {exc}") from None
        yield alpha


def _stacked(vectors, k: int) -> np.ndarray:
    """Per-task (k,) vectors as the rows of an (N, k) matrix."""
    return np.array(list(vectors)).reshape(-1, k)


def _in_splits(cfg: dict, task_ids: List[str], splits: List[str]) -> list:
    """Mask of the task ids in each of the named splits; split_dataset labels
    the ids at most once, and not when every split is all."""
    labels = None if set(splits) == {"all"} else split_dataset(task_ids, cfg["ratios"],
                                                                   seed=cfg["seed"])
    return [np.ones(len(task_ids), dtype=bool) if split == "all"
            else labels == _CHOICES["split"].index(split) for split in splits]


def _scored(cfg: dict, scheme, task_ids: List[str], splits: List[str]) -> list:
    """Per named split, in order: the predictions' point estimates (per cfg)
    and the reference modes of the split's ids, which both record files must
    hold, as rows in sorted id order.  Each record file is read once.

    A reference posterior of a task without responses (n = 0) is only its
    prior, so it exits 2 with its file line.
    """
    masks = _in_splits(cfg, task_ids, splits)
    preds = read_alpha_records(_path(cfg, "predictions"), scheme.num_categories)
    posts = read_alpha_records(_path(cfg, "posteriors"), scheme.num_categories)
    scored = []
    for split, mask in zip(splits, masks):
        ordered = sorted(itertools.compress(task_ids, mask))
        pred_rows, ref_rows = preds.rows(ordered), posts.rows(ordered)
        if not ordered:
            raise InputError(f"no tasks to score in split {split}")
        unanswered = ref_rows[posts.n[ref_rows] == 0]
        if unanswered.size:
            row = unanswered.min()
            raise InputError(
                f"{posts.path}:{posts.lines[row]}: task {brief.repr(posts.task_ids[row])} has "
                f"no responses (n = 0), so it cannot be a scoring reference"
            )
        scored.append((point_estimates(preds.alpha[pred_rows], cfg["point_estimate"]),
                       point_estimates(posts.alpha[ref_rows])))
    return scored


def _write_json(path: str, payload: dict) -> None:
    """A report, indented with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _conf_correct(q_hat: np.ndarray, q_ref: np.ndarray):
    """The confidence of each prediction, and whether its majority category
    matches the reference's."""
    return confidence(q_hat), q_hat.argmax(axis=1) == q_ref.argmax(axis=1)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict) -> int:
    scheme, table, answers = simulate_dataset(_settings(SimConfig, cfg))
    write_scheme(_path(cfg, "scheme"), scheme)
    write_tasks(_path(cfg, "tasks"), table)
    write_responses(_path(cfg, "responses"), table.task_ids, answers, scheme)
    print(
        f"simulated {len(table)} tasks, {answers.size} responses "
        f"({scheme.num_proper}+1 categories, seed {cfg['seed']})"
    )
    return 0


def cmd_infer(cfg: dict) -> int:
    check_blend(cfg["blend"])   # refused with either prior, though only the model prior blends
    scheme, table, responses = _load_dataset(cfg)
    k = scheme.num_categories
    if cfg["prior"] == "model":
        # one count pass; forward and blend stay per task, as the benchmark's trace counts them
        counts = count_matrix(table.task_ids, responses, k)
        forwards = _forwards(_load_model(cfg, scheme, table), table, range(len(table)),
                             itertools.repeat(0), "has no features for the model prior")
        alpha = _stacked((blend_prior(a, cfg["blend"]).alpha for a in forwards), k) + counts
        n = counts.sum(axis=1)
    else:
        prior = uniform_prior(scheme)
        answers = attach_responses(table.task_ids, responses)
        alpha = _stacked((posterior(prior, tally(row, scheme)).alpha for row in answers), k)
        n = np.array([row.size for row in answers], dtype=np.int64)
    write_alpha_records(_path(cfg, "posteriors"), table.task_ids, alpha, n)
    print(f"inferred {len(table)} posteriors ({cfg['prior']} prior)")
    return 0


def _training_set(scheme, table, counts: np.ndarray, train: np.ndarray, val: np.ndarray) -> list:
    """(X, T, n, w) arrays and task ids of the train and of the val tasks
    (masks train and val) in file order: uniform-prior posteriors T,
    weighted by train label rarity."""
    ids = table.task_ids
    featureless = (train | val) & ~table.has_features
    if featureless.any():
        raise InputError(f"task {brief_text(ids[featureless.argmax()])} has no features; "
                         f"cannot train on it")
    T = uniform_prior(scheme).alpha + counts
    refs = point_estimates(T)
    weights = hard_weights(np.bincount(refs[train].argmax(axis=1),
                                       minlength=scheme.num_categories))
    w = soft_weight(refs, weights)
    n = counts.sum(axis=1).astype(float)
    return [((table.features[rows], T[rows], n[rows], w[rows]), [ids[i] for i in rows])
            for rows in (np.flatnonzero(train), np.flatnonzero(val))]


def cmd_train(cfg: dict) -> int:
    scheme, table, responses = _load_dataset(cfg)
    counts = count_matrix(table.task_ids, responses, scheme.num_categories)
    train, val = _in_splits(cfg, table.task_ids, ["train", "val"])
    if not train.any():
        ratios = ",".join(str(r) for r in cfg["ratios"])
        raise InputError(f"ratios {ratios} leave no training tasks among {len(table.task_ids)}")
    (train_set, train_ids), (val_set, _) = _training_set(scheme, table, counts, train, val)
    final = []
    model = train_head(
        train_set,
        _settings(TrainConfig, cfg),
        val_dataset=val_set,
        callback=lambda *losses: final.extend(losses),
        task_ids=train_ids,
        last_epoch_only=True,
    )
    save_model(_path(cfg, "model"), model)
    epoch, train_loss, val_loss = final
    val_note = f", val loss {val_loss:.6f}" if val_loss is not None else ""
    print(
        f"trained on {len(train_ids)} tasks for {epoch} epochs "
        f"(final train loss {train_loss:.6f}{val_note})"
    )
    return 0


def cmd_predict(cfg: dict) -> int:
    scheme, table, responses = _load_dataset(cfg, responses=cfg["inference_n"] is None)
    counts = None if responses is None else count_matrix(
        table.task_ids, responses, scheme.num_categories).sum(axis=1)
    model = _load_model(cfg, scheme, table)
    ns = _inference_counts(cfg, counts, range(len(table)))
    forwards = _forwards(model, table, range(len(table)), ns, "has no features to predict from")
    write_alpha_records(_path(cfg, "predictions"), table.task_ids,
                        _stacked((a.alpha for a in forwards), scheme.num_categories), ns)
    print(f"predicted {len(table)} tasks")
    return 0


def cmd_eval(cfg: dict) -> int:
    amb_cfg = _settings(AmbiguityConfig, cfg)
    scheme, table, _ = _load_dataset(cfg, responses=False)
    if scheme.num_proper < 2:
        raise InputError(f"{_path(cfg, 'scheme')}: eval scores ambiguity, which needs at "
                         f"least two proper categories; the scheme has {scheme.num_proper}")
    [(q_hat, q_ref)] = _scored(cfg, scheme, table.task_ids, [cfg["split"]])
    weights = hard_weights(np.bincount(q_ref.argmax(axis=1), minlength=scheme.num_categories))
    report = evaluate(q_hat, q_ref, weights)
    bins_ = ambiguity_calibration(ambiguity(q_hat, amb_cfg), ambiguity(q_ref, amb_cfg),
                                  cfg["bins"], soft_distance(q_hat, q_ref))

    prov = provenance(cfg)
    _write_json(_path(cfg, "report"), {"provenance": prov, "split": cfg["split"],
                                       **report.to_dict()})
    write_bins_csv(_path(cfg, "bins_csv"), bins_, prov)
    print(
        f"evaluated {report.n_tasks} tasks on split {cfg['split']}: "
        f"acc {report.acc:.4f}, mean D {report.mean_D:.4f}"
    )
    return 0


def cmd_curve(cfg: dict) -> int:
    scheme, table, _ = _load_dataset(cfg, responses=False)
    [scored] = _scored(cfg, scheme, table.task_ids, [cfg["split"]])
    conf, correct = _conf_correct(*scored)
    bands = bootstrap_curves(conf, correct, cfg["bootstrap"], cfg["seed"])
    write_curve_csv(_path(cfg, "curve"), bands, provenance(cfg))
    print(
        f"curve over {conf.size} tasks ({cfg['split']}), "
        f"{bands.thresholds.size} thresholds, B={cfg['bootstrap']}"
    )
    return 0


def cmd_calibrate(cfg: dict) -> int:
    scheme, table, _ = _load_dataset(cfg, responses=False)
    (val_conf, val_corr), (test_conf, test_corr) = (
        _conf_correct(*scored) for scored in _scored(cfg, scheme, table.task_ids, ["val", "test"]))
    result = calibrate(
        val_conf, val_corr, test_conf, test_corr,
        target_accuracy=cfg["target_accuracy"], B=cfg["bootstrap"], seed=cfg["seed"],
    )
    _write_json(_path(cfg, "calibration"), {"provenance": provenance(cfg),
                                            "point_estimate": cfg["point_estimate"],
                                            **result.to_dict()})
    lo, hi = result.accuracy_ci
    [automated], [accuracy] = _at_thresholds(test_conf, test_corr, [result.deployment_threshold])
    print(
        f"calibrated threshold {result.deployment_threshold:.4f} "
        f"(target {cfg['target_accuracy']}, test accuracy CI [{lo:.4f}, {hi:.4f}])\n"
        f"at it: {automated:.4f} of test tasks automated, retained accuracy {accuracy:.4f}"
    )
    return 0


def cmd_repeats(cfg: dict) -> int:
    threshold = cfg["deployment_threshold"]
    if threshold is not None and math.isnan(threshold):
        raise InputError(f"deployment_threshold must be a number or inf, got {threshold}")
    check_blend(cfg["blend"])
    check_replay(cfg["max_repeats"], cfg["permutations"])
    scheme, table, responses = _load_dataset(cfg)
    answers = attach_responses(table.task_ids, responses)
    counts = np.array([row.size for row in answers], dtype=np.int64)
    [in_split] = _in_splits(cfg, table.task_ids, [cfg["split"]])
    model = _load_model(cfg, scheme, table)

    source = "the deployment_threshold option"
    if threshold is None:
        source = _path(cfg, "calibration")
        calibration = read_json_object(source, "calibration results", {
            "deployment_threshold": ("a number or null",
                                     lambda v: v is None or is_numbers(v) and not math.isnan(v)),
            "point_estimate": ("one of " + ", ".join(_CHOICES["point_estimate"]),
                               lambda v: v in _CHOICES["point_estimate"]),
        })
        if calibration["point_estimate"] != cfg["point_estimate"]:
            raise InputError(f"{source}: the threshold was calibrated on point_estimate "
                             f"{calibration['point_estimate']!r}, but repeats gates on "
                             f"{cfg['point_estimate']!r}; give both stages the same one")
        threshold = calibration["deployment_threshold"]
        if threshold is None:   # serialized +inf: nothing is automated
            threshold = math.inf

    # the rule calibrate gates with: the confidence of the point estimate it names
    estimate = {"mode": posterior_mode, "mean": posterior_mean}[cfg["point_estimate"]]
    scored = np.flatnonzero(in_split & (counts > 0))
    if not scored.size:
        raise InputError(f"no task in split {cfg['split']} has responses to replay")
    ns = _inference_counts(cfg, counts, scored)
    forwards = _forwards(model, table, scored, ns, "has no features")
    conf = confidence(_stacked((estimate(a).q for a in forwards), scheme.num_categories))
    kept = scored[conf < threshold]
    if not kept.size:
        raise InputError(f"no non-automated tasks left for the repeats analysis "
                         f"(deployment threshold {threshold} from {source})")

    ids, answers = [table.task_ids[i] for i in kept], [answers[i] for i in kept]
    forwards = _forwards(model, table, kept, itertools.repeat(0), "has no features")
    informed = _stacked((blend_prior(a, cfg["blend"]).alpha for a in forwards),
                        scheme.num_categories)
    summaries = repeats_summary(ids, answers, {"uniform": np.ones_like(informed),
                                               "informed": informed},
                                max_repeats=cfg["max_repeats"], permutations=cfg["permutations"],
                                seed=cfg["seed"])
    write_repeats_csv(_path(cfg, "repeats_csv"), summaries, provenance(cfg))
    s1 = {variant: steps[0].median for variant, steps in summaries.items()}
    print(
        f"repeats over {len(kept)} non-automated tasks "
        f"(step-1 median uniform {s1['uniform']:.4f}, informed {s1['informed']:.4f})"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_HELP = {
    "categories": "number of proper categories",
    "repeats": "responses per task",
    "alpha0": "comma-separated generation prior, length C+1",
    "ratios": "train,val,test fractions",
    "inference_n": "response count to predict at (default: observed per task)",
    "deployment_threshold": "override the calibrated threshold",
}

# Each subcommand: its handler, its help, and the options it takes beyond
# --config, --outdir and --seed, in --help order.
_COMMANDS = {
    "simulate": (cmd_simulate, "generate a synthetic crowd dataset", (
        "scheme", "tasks", "responses", "num_tasks", "categories", "repeats", "alpha0",
        "feature_dim", "feature_noise")),
    "infer": (cmd_infer, "conjugate posterior per task", (
        "scheme", "tasks", "responses", "posteriors", "model", "prior", "blend")),
    "train": (cmd_train, "fit the prediction head", (
        "scheme", "tasks", "responses", "model", "ratios", "learning_rate", "beta1", "beta2",
        "warmup_iters", "batch_size", "epochs", "select", "tau")),
    "predict": (cmd_predict, "predict Dirichlet parameters per task", (
        "scheme", "tasks", "responses", "model", "predictions", "inference_n")),
    "eval": (cmd_eval, "score predictions against posteriors", (
        "scheme", "tasks", "predictions", "posteriors", "report", "bins_csv", "split", "ratios",
        "point_estimate", "eta0", "pi0", "bins")),
    "curve": (cmd_curve, "automation-correctness curve with bootstrap bands", (
        "scheme", "tasks", "predictions", "posteriors", "curve", "split", "ratios", "bootstrap",
        "point_estimate")),
    "calibrate": (cmd_calibrate, "select and evaluate the accuracy threshold", (
        "scheme", "tasks", "predictions", "posteriors", "calibration", "ratios",
        "target_accuracy", "bootstrap", "point_estimate")),
    "repeats": (cmd_repeats, "prediction-as-prior convergence analysis", (
        "scheme", "tasks", "responses", "model", "calibration", "repeats_csv", "split", "ratios",
        "blend", "permutations", "max_repeats", "inference_n", "deployment_threshold",
        "point_estimate")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per _COMMANDS entry.  An option's flag, type, choices and
    metavar follow from its key and the tables that check config-file values.

    Built once per process: argparse ties its formatters, actions and groups
    into reference cycles, which a parser built on every main call would
    leave to the cyclic collector."""
    parser = argparse.ArgumentParser(
        prog="crowdinfer",
        description="Truth inference and annotation automation for crowd-labeled tasks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--outdir", help="output directory (env CROWDINFER_OUTDIR, default .)")
        for key in ("seed", *keys):
            # lists of numbers and strings stay text; resolve_options parses lists
            kind = _NULLABLE_TYPES.get(key, type(DEFAULTS[key]))
            p.add_argument(
                "--" + key.replace("_", "-"),
                type=kind if kind in (int, float) else None,
                choices=_CHOICES.get(key),
                metavar="PATH" if key in _PATHS else "B" if key == "bootstrap" else None,
                help=_HELP.get(key),
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_options(args)
        return args.func(cfg)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
