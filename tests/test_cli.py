import dataclasses
import gc
import inspect
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdinfer.bayes import point_estimates, posterior, uniform_prior
from crowdinfer.autothresh import ambiguity_calibration, calibrate
from crowdinfer.cli import DEFAULTS, _training_set, main, provenance
from crowdinfer.core import (
    CategoryScheme,
    InputError,
    Responses,
    SoftLabel,
    TaskTable,
    attach_responses,
    count_matrix,
    read_alpha_records,
    split_dataset,
    tally,
    write_alpha_records,
    write_responses,
    write_scheme,
    write_tasks,
)
from crowdinfer.head import HeadModel, TrainConfig, head_forward, load_model, save_model
from crowdinfer.metrics import confidence, hard_weights
from crowdinfer.priors import blend_prior, repeats_summary
from crowdinfer.sim import SimConfig
from test_core import _write_alpha_records_oracle


def run(tmp_path, *argv):
    return main([argv[0], "--outdir", str(tmp_path), *argv[1:]])


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small end-to-end run shared by the read-only assertions below."""
    out = tmp_path_factory.mktemp("pipeline")
    args = dict(outdir=str(out))
    assert run(out, "simulate", "--num-tasks", "120", "--repeats", "10", "--seed", "0") == 0
    assert run(out, "infer") == 0
    assert run(out, "train", "--epochs", "30") == 0
    assert run(out, "predict") == 0
    assert run(out, "eval", "--split", "test") == 0
    assert run(out, "curve", "--split", "val", "--bootstrap", "16") == 0
    assert run(out, "calibrate", "--target-accuracy", "0.7", "--bootstrap", "32") == 0
    assert run(out, "repeats", "--split", "test", "--permutations", "4") == 0
    return out


def test_pipeline_artifacts_exist(pipeline):
    for name in (
        "scheme.json", "tasks.jsonl", "responses.jsonl", "posteriors.jsonl",
        "model.json", "predictions.jsonl", "report.json", "curve.csv",
        "calibration.json", "bins.csv", "repeats.csv",
    ):
        assert (pipeline / name).exists(), name


def test_simulate_counts(pipeline):
    tasks = read_jsonl(pipeline / "tasks.jsonl")
    responses = read_jsonl(pipeline / "responses.jsonl")
    assert len(tasks) == 120
    assert len(responses) == 1200
    scheme = json.loads((pipeline / "scheme.json").read_text())
    assert scheme == {"proper": ["c0", "c1"], "cs": "cs"}


def test_report_shape(pipeline):
    report = json.loads((pipeline / "report.json").read_text())
    assert report["split"] == "test"
    assert 0.0 <= report["acc"] <= 1.0
    assert report["n_tasks"] == 12
    assert "config_hash" in report["provenance"]


def test_calibration_shape(pipeline):
    cal = json.loads((pipeline / "calibration.json").read_text())
    assert cal["target_accuracy"] == 0.7
    assert len(cal["thresholds"]) == 32
    assert len(cal["automation_ci"]) == 2


def test_repeats_csv_variants(pipeline):
    lines = (pipeline / "repeats.csv").read_text().splitlines()
    assert lines[1] == "variant,step,q025,q25,median,q75,q975,n_tasks"
    variants = {row.split(",")[0] for row in lines[2:]}
    assert variants == {"uniform", "informed"}


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for d in (a, b):
        assert run(d, "simulate", "--num-tasks", "30", "--seed", "7") == 0
    for name in ("scheme.json", "tasks.jsonl", "responses.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_unanimous_posterior_hand_value(tmp_path):
    (tmp_path / "scheme.json").write_text(
        json.dumps({"proper": ["no", "yes"], "cs": "cs"})
    )
    (tmp_path / "tasks.jsonl").write_text(json.dumps({"task_id": "t0"}) + "\n")
    with open(tmp_path / "responses.jsonl", "w") as fh:
        for _ in range(20):
            fh.write(json.dumps({"task_id": "t0", "answer": "yes"}) + "\n")
    assert run(tmp_path, "infer") == 0
    rec = read_jsonl(tmp_path / "posteriors.jsonl")[0]
    assert rec["task_id"] == "t0"
    assert rec["alpha"] == [1.0, 21.0, 1.0]
    assert rec["n"] == 20


def test_infer_with_model_prior(pipeline, tmp_path):
    for name in ("scheme.json", "tasks.jsonl", "responses.jsonl", "model.json"):
        (tmp_path / name).write_bytes((pipeline / name).read_bytes())
    assert run(tmp_path, "infer", "--prior", "model", "--blend", "0.5") == 0
    uniform = {r["task_id"]: r for r in read_jsonl(pipeline / "posteriors.jsonl")}
    informed = {r["task_id"]: r for r in read_jsonl(tmp_path / "posteriors.jsonl")}
    assert uniform.keys() == informed.keys()
    some_differ = any(
        uniform[tid]["alpha"] != informed[tid]["alpha"] for tid in uniform
    )
    assert some_differ
    # parameter sums still equal categories + n
    for tid, rec in informed.items():
        assert sum(rec["alpha"]) == pytest.approx(3.0 + rec["n"], abs=1e-6)


def test_predict_inference_n_override(pipeline, tmp_path):
    for name in ("scheme.json", "tasks.jsonl", "model.json"):
        (tmp_path / name).write_bytes((pipeline / name).read_bytes())
    assert run(tmp_path, "predict", "--inference-n", "0") == 0
    recs = read_jsonl(tmp_path / "predictions.jsonl")
    assert all(r["n"] == 0 for r in recs)
    assert all(sum(r["alpha"]) == pytest.approx(3.0, abs=1e-6) for r in recs)
    # observed-n predictions carry n = 10 instead
    obs = read_jsonl(pipeline / "predictions.jsonl")
    assert all(r["n"] == 10 for r in obs)


def test_eval_self_comparison_is_perfect(pipeline, tmp_path):
    for name in ("scheme.json", "tasks.jsonl", "posteriors.jsonl"):
        (tmp_path / name).write_bytes((pipeline / name).read_bytes())
    (tmp_path / "predictions.jsonl").write_bytes(
        (pipeline / "posteriors.jsonl").read_bytes()
    )
    assert run(tmp_path, "eval", "--split", "all") == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["acc"] == 1.0
    assert report["mean_D"] == 0.0


def test_repeats_reads_deployment_threshold(pipeline, tmp_path):
    for name in ("scheme.json", "tasks.jsonl", "responses.jsonl",
                 "model.json", "predictions.jsonl", "posteriors.jsonl"):
        (tmp_path / name).write_bytes((pipeline / name).read_bytes())
    # explicit threshold above every confidence: nothing automated,
    # every test task enters the analysis
    assert run(tmp_path, "repeats", "--split", "test", "--permutations", "2",
               "--deployment-threshold", "2.0") == 0
    lines = (tmp_path / "repeats.csv").read_text().splitlines()
    n_tasks = int(lines[2].split(",")[-1])
    assert n_tasks == 12


def test_repeats_without_answered_tasks_exit_2(pipeline, tmp_path, capsys):
    """No task of the split has responses: the cause is named, not the threshold."""
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl", "model.json")
    (tmp_path / "responses.jsonl").write_text("")
    argv = ("repeats", "--permutations", "2")
    assert run(tmp_path, *argv, "--deployment-threshold", "inf") == 2
    assert capsys.readouterr().err == "error: no task in split test has responses to replay\n"
    # answered tasks that the threshold automates, every one of them
    _copy_inputs(pipeline, tmp_path, "responses.jsonl")
    assert run(tmp_path, *argv, "--split", "val", "--deployment-threshold", "0") == 2
    assert capsys.readouterr().err == (
        "error: no non-automated tasks left for the repeats analysis "
        "(deployment threshold 0.0 from the deployment_threshold option)\n")
    assert not (tmp_path / "repeats.csv").exists()


# ---------------------------------------------------------------------------
# option layering
# ---------------------------------------------------------------------------


def test_literal_defaults_agree_with_the_library():
    """The defaults DEFAULTS writes out are those of the library parameters
    the options feed; the default config hash pins every default at once."""
    def keyword(func, name):
        return inspect.signature(func).parameters[name].default

    seed_fields = [f.default for cls in (SimConfig, TrainConfig)
                   for f in dataclasses.fields(cls) if f.name == "seed"]
    library = {
        "ratios": keyword(split_dataset, "ratios"),
        "bins": keyword(ambiguity_calibration, "bins"),
        "target_accuracy": keyword(calibrate, "target_accuracy"),
        "bootstrap": keyword(calibrate, "B"),
        "blend": keyword(blend_prior, "blend"),
        "permutations": keyword(repeats_summary, "permutations"),
        "max_repeats": keyword(repeats_summary, "max_repeats"),
        "point_estimate": keyword(point_estimates, "how"),
    }
    for key, value in library.items():
        assert (DEFAULTS[key], type(DEFAULTS[key])) == (value, type(value)), key
    assert seed_fields == [DEFAULTS["seed"]] * 2
    assert provenance(DEFAULTS)["config_hash"] == "312148b8160f0e99"


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"num_tasks": 12, "repeats": 4}))
    assert run(tmp_path, "simulate", "--config", str(cfgfile), "--num-tasks", "9") == 0
    tasks = read_jsonl(tmp_path / "tasks.jsonl")
    responses = read_jsonl(tmp_path / "responses.jsonl")
    assert len(tasks) == 9          # flag beats config file
    assert len(responses) == 36     # config file beats default


def test_outdir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("CROWDINFER_OUTDIR", str(tmp_path))
    assert main(["simulate", "--num-tasks", "5"]) == 0
    assert (tmp_path / "tasks.jsonl").exists()


def test_absolute_paths_ignore_outdir(tmp_path):
    target = tmp_path / "elsewhere.jsonl"
    assert run(tmp_path, "simulate", "--num-tasks", "5",
               "--tasks", str(target)) == 0
    assert target.exists()


# ---------------------------------------------------------------------------
# error handling and exit codes
# ---------------------------------------------------------------------------


def test_invalid_simulate_options_exit_2(tmp_path, capsys):
    assert run(tmp_path, "simulate", "--num-tasks", "0") == 2
    assert run(tmp_path, "simulate", "--repeats", "-1") == 2
    assert run(tmp_path, "simulate", "--alpha0", "1.0,1.0") == 2
    for value in ("nan", "inf"):
        capsys.readouterr()
        assert run(tmp_path, "simulate", "--feature-noise", value) == 2
        assert "error: feature_noise must be " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []   # nothing written


@pytest.mark.filterwarnings("error")   # a numpy warning would reach stderr
def test_simulate_refuses_non_finite_features(tmp_path, capsys):
    # noise this large overflows the features; they were written as Infinity
    # and every later stage refused the file
    assert run(tmp_path, "simulate", "--num-tasks", "5", "--feature-noise", "1e308") == 2
    assert capsys.readouterr().err == "error: non-finite feature values in task 't000000'\n"
    assert list(tmp_path.iterdir()) == []   # nothing written


def test_empty_features_exit_2(tmp_path, capsys):
    # train used to die in init_model with a ZeroDivisionError
    assert run(tmp_path, "simulate", "--num-tasks", "30", "--repeats", "3") == 0
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text("".join(json.dumps({"task_id": rec["task_id"], "features": []}) + "\n"
                             for rec in read_jsonl(tasks)))
    for argv in (("train", "--epochs", "1"), ("predict",)):
        assert run(tmp_path, *argv) == 2
        assert "tasks.jsonl:1: bad task record: empty features in task 't000000'" in \
            capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_simulate_refuses_a_dataset_too_large_before_allocating(tmp_path, capsys, monkeypatch):
    def unreachable(config):
        raise AssertionError("simulate_dataset reached")

    monkeypatch.setattr("crowdinfer.cli.simulate_dataset", unreachable)
    for option, value in (("--num-tasks", 10**12), ("--repeats", 10**12),
                          ("--feature-dim", 10**12), ("--categories", 10**12)):
        assert run(tmp_path, "simulate", option, str(value)) == 2
        assert "more than the limit of 1073741824" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []   # nothing written


def test_simulate_takes_a_negative_seed(tmp_path):
    # the simulator hashes its seed into per-task streams, so any integer will do
    assert run(tmp_path, "simulate", "--num-tasks", "6", "--seed", "-1") == 0
    assert len(read_jsonl(tmp_path / "tasks.jsonl")) == 6


def test_missing_inputs_exit_2(tmp_path):
    assert run(tmp_path, "infer") == 2
    assert run(tmp_path, "eval") == 2


def test_unknown_config_key_exit_2(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"num_task": 12}))
    assert run(tmp_path, "simulate", "--config", str(cfgfile)) == 2


@pytest.mark.parametrize("key", ["predictor_temperature", "predictor_noise"])
def test_synthetic_predictor_keys_are_not_options(tmp_path, capsys, key):
    # SimConfig once carried them; synthetic_predictor now takes its noise as
    # an argument, and neither was ever an option
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: 1.0}))
    assert run(tmp_path, "simulate", "--config", str(cfgfile)) == 2
    assert capsys.readouterr().err == f"error: unknown config keys: [{key!r}]\n"
    with pytest.raises(SystemExit):
        run(tmp_path, "simulate", "--" + key.replace("_", "-"), "1.0")


@pytest.mark.parametrize("alpha0, message", [
    ("nan,1,1", "alpha0 components must be positive and finite, got (nan, 1.0, 1.0)"),
    ("1,inf,1", "alpha0 components must be positive and finite, got (1.0, inf, 1.0)"),
    # the gamma draws behind every latent label overflow to zeros
    ("1e308,1e308,1", "the latent label drawn for task 't000000' from alpha0 "
                      "(1e+308, 1e+308, 1.0) is not a soft label: [0. 0. 0.]"),
])
def test_simulate_alpha0_faults_name_alpha0(tmp_path, capsys, alpha0, message):
    assert run(tmp_path, "simulate", "--num-tasks", "5", "--alpha0", alpha0) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []   # nothing written


def test_orphan_responses_exit_2(tmp_path, capsys):
    (tmp_path / "scheme.json").write_text(json.dumps({"proper": ["a", "b"], "cs": "cs"}))
    (tmp_path / "tasks.jsonl").write_text(json.dumps({"task_id": "t0"}) + "\n")
    (tmp_path / "responses.jsonl").write_text(
        json.dumps({"task_id": "ghost", "answer": "a"}) + "\n"
    )
    assert run(tmp_path, "infer") == 2
    assert "responses.jsonl:1: response references unknown task 'ghost'" in capsys.readouterr().err
    # the first orphan is reported, after a known task's response and a blank line
    (tmp_path / "responses.jsonl").write_text(
        json.dumps({"task_id": "t0", "answer": "b"}) + "\n\n"
        + json.dumps({"task_id": "ghost", "answer": "a"}) + "\n"
        + json.dumps({"task_id": "ghost2", "answer": "a"}) + "\n"
    )
    assert run(tmp_path, "infer") == 2
    assert "responses.jsonl:3: response references unknown task 'ghost'" in capsys.readouterr().err


def test_model_prior_reports_an_orphan_response_before_a_missing_model(tmp_path, capsys):
    (tmp_path / "scheme.json").write_text(json.dumps({"proper": ["a", "b"], "cs": "cs"}))
    (tmp_path / "tasks.jsonl").write_text(json.dumps({"task_id": "t0", "features": [1.0]}) + "\n")
    (tmp_path / "responses.jsonl").write_text(
        json.dumps({"task_id": "t0", "answer": "a"}) + "\n"
        + json.dumps({"task_id": "ghost", "answer": "b"}) + "\n"
    )
    assert not (tmp_path / "model.json").exists()
    assert run(tmp_path, "infer", "--prior", "model") == 2
    assert "responses.jsonl:2: response references unknown task 'ghost'" in capsys.readouterr().err


@pytest.mark.parametrize("answer", [True, False, 1.9, 1.0])
def test_bool_and_float_answers_exit_2(tmp_path, capsys, answer):
    (tmp_path / "scheme.json").write_text(json.dumps({"proper": ["a", "b"], "cs": "cs"}))
    (tmp_path / "tasks.jsonl").write_text(json.dumps({"task_id": "t0"}) + "\n")
    (tmp_path / "responses.jsonl").write_text(
        json.dumps({"task_id": "t0", "answer": 1}) + "\n"
        + json.dumps({"task_id": "t0", "answer": "cs"}) + "\n"
    )
    assert run(tmp_path, "infer") == 0
    assert read_jsonl(tmp_path / "posteriors.jsonl")[0]["alpha"] == [1.0, 2.0, 2.0]
    (tmp_path / "responses.jsonl").write_text(
        json.dumps({"task_id": "t0", "answer": 1}) + "\n"
        + json.dumps({"task_id": "t0", "answer": answer}) + "\n"
    )
    assert run(tmp_path, "infer") == 2
    assert (f"responses.jsonl:2: bad response record: answer must be a category name or an "
            f"integer index, got {answer!r}") in capsys.readouterr().err


def _copy_inputs(pipeline, tmp_path, *names):
    for name in names:
        (tmp_path / name).write_bytes((pipeline / name).read_bytes())


def test_duplicate_task_ids_exit_2(pipeline, tmp_path, capsys):
    _copy_inputs(pipeline, tmp_path, "scheme.json", "responses.jsonl", "model.json")
    lines = (pipeline / "tasks.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "tasks.jsonl").write_text("".join(lines + lines[:1]))
    assert run(tmp_path, "infer") == 2
    assert f"tasks.jsonl:{len(lines) + 1}: duplicate task_id" in capsys.readouterr().err

    _copy_inputs(pipeline, tmp_path, "tasks.jsonl", "predictions.jsonl")
    lines = (pipeline / "posteriors.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "posteriors.jsonl").write_text("".join(lines[:3] + lines[1:2] + lines[3:]))
    assert run(tmp_path, "eval", "--split", "test") == 2
    assert "posteriors.jsonl:4: duplicate task_id" in capsys.readouterr().err


def test_non_finite_task_values_exit_2(pipeline, tmp_path, capsys):
    _copy_inputs(pipeline, tmp_path, "scheme.json", "responses.jsonl", "model.json")
    records = read_jsonl(pipeline / "tasks.jsonl")
    for key in ("features", "true_q"):
        bad = [dict(r) for r in records]
        bad[2][key] = [float("nan")] + bad[2][key][1:]
        (tmp_path / "tasks.jsonl").write_text("".join(json.dumps(r) + "\n" for r in bad))
        assert run(tmp_path, "predict") == 2
        assert "tasks.jsonl:3: " in capsys.readouterr().err


@pytest.mark.parametrize("item", [True, False, "0.5"])
def test_non_number_values_exit_2(pipeline, tmp_path, capsys, item):
    """true and "0.5" would convert to floats; each is refused at its line."""
    _copy_inputs(pipeline, tmp_path, "scheme.json", "responses.jsonl", "model.json",
                 "posteriors.jsonl")
    records = read_jsonl(pipeline / "tasks.jsonl")
    for key in ("features", "true_q"):
        bad = [dict(r) for r in records]
        bad[2][key] = [item] + bad[2][key][1:]
        (tmp_path / "tasks.jsonl").write_text("".join(json.dumps(r) + "\n" for r in bad))
        assert run(tmp_path, "predict") == 2
        assert (f"tasks.jsonl:3: bad task record: {key} must hold numbers, got "
                f"{json.dumps(item)}") in capsys.readouterr().err
    _copy_inputs(pipeline, tmp_path, "tasks.jsonl")
    bad = read_jsonl(pipeline / "predictions.jsonl")
    bad[4]["alpha"][1] = item
    (tmp_path / "predictions.jsonl").write_text("".join(json.dumps(r) + "\n" for r in bad))
    assert run(tmp_path, "eval", "--split", "all") == 2
    assert (f"predictions.jsonl:5: bad record: alpha must hold numbers, got "
            f"{json.dumps(item)}") in capsys.readouterr().err


@pytest.mark.parametrize("name", ["predictions.jsonl", "posteriors.jsonl"])
@pytest.mark.parametrize("argv", [("eval", "--split", "all"),
                                  ("curve", "--split", "all", "--bootstrap", "4")])
def test_alpha_summing_past_the_float_range_exit_2(pipeline, tmp_path, capsys, name, argv):
    """Finite components whose sum is inf are refused where the record file
    is read, with its line, and nothing is written."""
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl", "predictions.jsonl",
                 "posteriors.jsonl")
    records = read_jsonl(pipeline / name)
    records[4]["alpha"] = [1e308] * len(records[4]["alpha"])
    (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {tmp_path / name}:5: bad record: alpha components must have a "
                   f"finite sum, got [1.e+308 1.e+308 1.e+308]\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("key, value, message", [
    ("features", ["x" * 1000, 1.0],
     'features must hold numbers, got "xxxxxxxxxxxx...xxxxxxxxxxxxx"'),
    ("task_id", ["x" * 1000],
     'task_id must be a string or an integer, got ["xxxxxxxxxxx...xxxxxxxxxxxx"]'),
])
def test_long_bad_value_is_cut_short(pipeline, tmp_path, capsys, key, value, message):
    """A 1000-character value is named by its line in a short message."""
    _copy_inputs(pipeline, tmp_path, "scheme.json", "responses.jsonl", "model.json")
    records = read_jsonl(pipeline / "tasks.jsonl")
    records[2][key] = value
    (tmp_path / "tasks.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(tmp_path, "predict") == 2
    err = capsys.readouterr().err.strip()
    assert f"tasks.jsonl:3: bad task record: {message}" in err and len(err) < 200


_LONG = "x" * 1000
_CUT = "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"


@pytest.mark.parametrize("name, key, argv, message", [
    ("responses.jsonl", "answer", ("infer",), f"bad response record: unknown category name {_CUT}"),
    ("tasks.jsonl", "task_id", ("infer",), f"duplicate task_id {_CUT}"),
    ("posteriors.jsonl", "task_id", ("eval", "--split", "all"), f"duplicate task_id {_CUT}"),
], ids=["answer", "tasks-id", "posteriors-id"])
def test_long_answer_or_task_id_is_cut_short(pipeline, tmp_path, capsys, name, key, argv,
                                             message):
    """A 1000-character answer, or a task id repeated on lines 3 and 4, is
    named by its line in a short message."""
    _copy_inputs(pipeline, tmp_path, *_ALL_INPUTS)
    records = read_jsonl(pipeline / name)
    records[2][key] = _LONG
    if key == "task_id":
        records[3][key] = _LONG
    (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err.strip()
    line = 4 if key == "task_id" else 3
    assert f"{name}:{line}: {message}" in err and len(err) < 200


@pytest.mark.parametrize("name, argv, what", [
    ("tasks.jsonl", ("infer",), "task record"),
    ("responses.jsonl", ("infer",), "response record"),
    ("posteriors.jsonl", ("eval", "--split", "all"), "record"),
    ("predictions.jsonl", ("eval", "--split", "all"), "record"),
])
def test_undecodable_bytes_exit_2(pipeline, tmp_path, capsys, name, argv, what):
    """Bytes that are not UTF-8 exited 3 as a numeric error naming no file."""
    _copy_inputs(pipeline, tmp_path, *_ALL_INPUTS)
    lines = (pipeline / name).read_bytes().splitlines(keepends=True)
    lines[4] = b"\xff" + lines[4]
    (tmp_path / name).write_bytes(b"".join(lines))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / name}:5: bad {what}: 'utf-8' codec can't decode byte 0xff "
        f"in position 0: invalid start byte\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before   # nothing written


@pytest.mark.parametrize("task_id", [None, True, 1.5, [1], {}])
def test_task_ids_that_are_not_strings_or_integers_exit_2(pipeline, tmp_path, capsys, task_id):
    """str() would make ids such as "None" and "True" of them."""
    for name, argv in (("tasks.jsonl", ("infer",)), ("responses.jsonl", ("infer",)),
                       ("posteriors.jsonl", ("eval", "--split", "all"))):
        _copy_inputs(pipeline, tmp_path, *_ALL_INPUTS)
        records = read_jsonl(pipeline / name)
        records[2]["task_id"] = task_id
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert f"{name}:3: " in err
        assert f"task_id must be a string or an integer, got {json.dumps(task_id)}\n" in err


def test_empty_split_exit_2(pipeline, tmp_path, capsys):
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl", "posteriors.jsonl",
                 "predictions.jsonl")
    ratios = ("--ratios", "0.99,0.005,0.005")   # 119/1/0 tasks: the test split is empty
    assert run(tmp_path, "eval", "--split", "test", *ratios) == 2
    assert run(tmp_path, "calibrate", "--bootstrap", "4", *ratios) == 2
    err = capsys.readouterr().err
    assert err.count("no tasks to score") == 2
    # calibrate takes no --split: it names the split it scores
    assert err.count("error: no tasks to score in split test\n") == 2
    ratios = ("--ratios", "0.9,0.001,0.099")   # 108/0/12 tasks: the val split is empty
    assert run(tmp_path, "calibrate", "--bootstrap", "4", *ratios) == 2
    assert capsys.readouterr().err == "error: no tasks to score in split val\n"


def test_empty_train_split_exit_2(pipeline, tmp_path, capsys):
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl", "responses.jsonl")
    assert run(tmp_path, "train", "--epochs", "1", "--ratios", "0.001,0.001,0.998") == 2
    assert "leave no training tasks" in capsys.readouterr().err


@pytest.mark.parametrize("option", [
    ("--epochs", "0"), ("--epochs", "-3"), ("--batch-size", "0"),
    ("--learning-rate", "nan"), ("--learning-rate", "inf"), ("--learning-rate", "0"),
    ("--beta1", "1.5"), ("--beta1", "-0.1"), ("--beta2", "1"), ("--warmup-iters", "-1"),
])
def test_invalid_train_options_exit_2(pipeline, tmp_path, capsys, option):
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl", "responses.jsonl")
    assert run(tmp_path, "train", *option) == 2
    assert option[0][2:].replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_alpha_record_of_wrong_length_exit_2(pipeline, tmp_path, capsys):
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl", "posteriors.jsonl")
    records = read_jsonl(pipeline / "predictions.jsonl")
    records[4]["alpha"].append(1.0)
    (tmp_path / "predictions.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    for argv in (("eval", "--split", "all"), ("curve", "--split", "all", "--bootstrap", "4"),
                 ("calibrate", "--bootstrap", "4")):
        assert run(tmp_path, *argv) == 2, argv
        err = capsys.readouterr().err
        assert "predictions.jsonl:5: 4 alpha components for a scheme of 3" in err


_MODEL = {"format_version": 1, "d": 1, "C": 2, "alpha0_sum": 3.0, "A": [[0.0, 0.0, 0.0]],
          "bias": [0.0, 0.0, 0.0], "W": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}

# (document, the stage that reads it, its malformed contents, words the error must hold)
_MALFORMED_DOCUMENTS = {
    "scheme-bad_json": ("scheme.json", ("infer",), '{"proper": ["a", "b"]', "invalid JSON"),
    "scheme-not_object": ("scheme.json", ("infer",), "[1, 2]", "expected a JSON object"),
    "scheme-missing_key": ("scheme.json", ("infer",), '{"cs": "x"}', "missing key 'proper'"),
    "scheme-wrong_type": ("scheme.json", ("infer",), '{"proper": "ab"}',
                          "key 'proper' must be a list of category names"),
    "model-bad_json": ("model.json", ("predict",), "{", "invalid JSON"),
    "model-not_object": ("model.json", ("predict",), "[1, 2]", "expected a JSON object"),
    "model-missing_key": ("model.json", ("predict",),
                          json.dumps({k: v for k, v in _MODEL.items() if k != "A"}),
                          "missing key 'A'"),
    "model-wrong_type": ("model.json", ("predict",), json.dumps({**_MODEL, "format_version": 2}),
                         "key 'format_version' must be 1, got 2"),
    "model-mis_shaped": ("model.json", ("predict",), json.dumps({**_MODEL, "A": [[0.0, 0.0]]}),
                         "inconsistent parameter shapes: A (1, 2), bias (3,)"),
    "model-d_mismatch": ("model.json", ("predict",), json.dumps({**_MODEL, "d": 99}),
                         "key 'd' must be 1, the number of rows of A, got 99"),
    "model-C_mismatch": ("model.json", ("predict",), json.dumps({**_MODEL, "C": 7}),
                         "key 'C' must be 2, one less than the length of bias, got 7"),
    "model-alpha0_sum_inf": ("model.json", ("predict",),
                             json.dumps({**_MODEL, "alpha0_sum": float("inf")}),
                             "key 'alpha0_sum' must be a positive finite number, got inf"),
    "model-alpha0_sum_inf_infer": ("model.json", ("infer", "--prior", "model"),
                                   json.dumps({**_MODEL, "alpha0_sum": float("inf")}),
                                   "key 'alpha0_sum' must be a positive finite number, got inf"),
    "model-alpha0_sum_zero": ("model.json", ("predict",), json.dumps({**_MODEL, "alpha0_sum": 0}),
                              "key 'alpha0_sum' must be a positive finite number, got 0"),
    "calibration-bad_json": ("calibration.json", ("repeats",), "{'a': 1}", "invalid JSON"),
    "calibration-not_object": ("calibration.json", ("repeats",), "[]", "expected a JSON object"),
    "calibration-missing_key": ("calibration.json", ("repeats",), "{}",
                                "missing key 'deployment_threshold'"),
    "calibration-wrong_type": ("calibration.json", ("repeats",), '{"deployment_threshold": "x"}',
                               "key 'deployment_threshold' must be a number or null, got 'x'"),
    "calibration-no_point_estimate": ("calibration.json", ("repeats",),
                                      '{"deployment_threshold": 0.5}',
                                      "missing key 'point_estimate'"),
    # integers too large for a float: float() raised OverflowError
    "model-huge_int": ("model.json", ("predict",), json.dumps({**_MODEL, "bias": [10**400, 0, 0]}),
                       "key 'bias' must be a list of numbers, got [1000"),
    "model-huge_int_infer": ("model.json", ("infer", "--prior", "model"),
                             json.dumps({**_MODEL, "bias": [10**400, 0, 0]}),
                             "key 'bias' must be a list of numbers, got [1000"),
    "model-huge_int_repeats": ("model.json", ("repeats",),
                               json.dumps({**_MODEL, "bias": [10**400, 0, 0]}),
                               "key 'bias' must be a list of numbers, got [1000"),
    "calibration-huge_int": ("calibration.json", ("repeats",),
                             json.dumps({"deployment_threshold": 10**400}),
                             "key 'deployment_threshold' must be a number or null, got 1000"),
    "config-bad_json": ("cfg.json", ("train", "--config", "cfg.json"), '{"epochs": 1,}',
                        "cfg.json: invalid JSON: "),
    "config-not_object": ("cfg.json", ("train", "--config", "cfg.json"), '[["epochs", 2]]',
                          "cfg.json: expected a JSON object of options"),
    # nested deeper than the decoder's recursion limit: exited 3 naming no file
    "config-deep_json": ("cfg.json", ("train", "--config", "cfg.json"),
                         '{"epochs": ' + "[" * 100_000 + "]" * 100_000 + "}",
                         "cfg.json: invalid JSON: maximum recursion depth exceeded"),
    "calibration-deep_json": ("calibration.json", ("repeats",),
                              '{"deployment_threshold": ' + "[" * 100_000 + "]" * 100_000 + "}",
                              "invalid JSON: maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_DOCUMENTS))
def test_malformed_json_document_exit_2(pipeline, tmp_path, capsys, monkeypatch, case):
    name, argv, text, words = _MALFORMED_DOCUMENTS[case]
    _copy_inputs(pipeline, tmp_path, *_ALL_INPUTS)
    (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)   # the config path is relative
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert f"{name}: " in err and words in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before   # nothing written


def _reshaped_model(pipeline, categories=0, features=0) -> dict:
    """The pipeline's model with extra categories or features (zero weights)."""
    model = json.loads((pipeline / "model.json").read_text())
    A, bias, W = (np.array(model[key]) for key in ("A", "bias", "W"))
    A = np.pad(A, ((0, features), (0, categories)))
    bias = np.pad(bias, (0, categories))
    W = np.pad(W, ((0, categories), (0, categories)))
    return {**model, "d": A.shape[0], "C": bias.size - 1,
            "A": A.tolist(), "bias": bias.tolist(), "W": W.tolist()}


@pytest.mark.parametrize("argv", [("predict",), ("infer", "--prior", "model"),
                                  ("repeats", "--split", "all", "--permutations", "2")],
                         ids=["predict", "infer", "repeats"])
@pytest.mark.parametrize("shape, words", [
    (dict(categories=1), "model maps 8 features to 4 categories; the tasks have 8 features "
                         "and the scheme 3 categories"),
    (dict(features=1), "model maps 9 features to 3 categories; the tasks have 8 features "
                       "and the scheme 3 categories"),
], ids=["categories", "features"])
def test_model_that_disagrees_exit_2(pipeline, tmp_path, capsys, argv, shape, words):
    _copy_inputs(pipeline, tmp_path, *_ALL_INPUTS)
    (tmp_path / "model.json").write_text(json.dumps(_reshaped_model(pipeline, **shape)))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(tmp_path, *argv) == 2
    assert f"model.json: the {words}" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before   # nothing written


@pytest.mark.parametrize("option", ["--tasks", "--posteriors"])
def test_directory_in_place_of_a_file_exit_2(pipeline, tmp_path, capsys, option):
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl", "responses.jsonl")
    (tmp_path / "adir").mkdir()
    assert run(tmp_path, "infer", option, "adir") == 2
    assert "adir" in capsys.readouterr().err
    assert not (tmp_path / "posteriors.jsonl").exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_command_is_parser_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# Each subcommand's handler and its options in parser order, one per line:
# option strings (joined by "/"), dest, type name, choices (joined by ","),
# metavar; "-" stands for None.  Every subcommand starts with _COMMON_OPTIONS.
_COMMON_OPTIONS = """
    -h/--help help - - -
    --config config - - -
    --outdir outdir - - -
    --seed seed int - -
"""
_SURFACE = {
    "simulate": ("cmd_simulate", """
        --scheme scheme - - PATH
        --tasks tasks - - PATH
        --responses responses - - PATH
        --num-tasks num_tasks int - -
        --categories categories int - -
        --repeats repeats int - -
        --alpha0 alpha0 - - -
        --feature-dim feature_dim int - -
        --feature-noise feature_noise float - -
    """),
    "infer": ("cmd_infer", """
        --scheme scheme - - PATH
        --tasks tasks - - PATH
        --responses responses - - PATH
        --posteriors posteriors - - PATH
        --model model - - PATH
        --prior prior - uniform,model -
        --blend blend float - -
    """),
    "train": ("cmd_train", """
        --scheme scheme - - PATH
        --tasks tasks - - PATH
        --responses responses - - PATH
        --model model - - PATH
        --ratios ratios - - -
        --learning-rate learning_rate float - -
        --beta1 beta1 float - -
        --beta2 beta2 float - -
        --warmup-iters warmup_iters int - -
        --batch-size batch_size int - -
        --epochs epochs int - -
        --select select - best,last -
        --tau tau float - -
    """),
    "predict": ("cmd_predict", """
        --scheme scheme - - PATH
        --tasks tasks - - PATH
        --responses responses - - PATH
        --model model - - PATH
        --predictions predictions - - PATH
        --inference-n inference_n int - -
    """),
    "eval": ("cmd_eval", """
        --scheme scheme - - PATH
        --tasks tasks - - PATH
        --predictions predictions - - PATH
        --posteriors posteriors - - PATH
        --report report - - PATH
        --bins-csv bins_csv - - PATH
        --split split - train,val,test,all -
        --ratios ratios - - -
        --point-estimate point_estimate - mode,mean -
        --eta0 eta0 float - -
        --pi0 pi0 float - -
        --bins bins int - -
    """),
    "curve": ("cmd_curve", """
        --scheme scheme - - PATH
        --tasks tasks - - PATH
        --predictions predictions - - PATH
        --posteriors posteriors - - PATH
        --curve curve - - PATH
        --split split - train,val,test,all -
        --ratios ratios - - -
        --bootstrap bootstrap int - B
        --point-estimate point_estimate - mode,mean -
    """),
    "calibrate": ("cmd_calibrate", """
        --scheme scheme - - PATH
        --tasks tasks - - PATH
        --predictions predictions - - PATH
        --posteriors posteriors - - PATH
        --calibration calibration - - PATH
        --ratios ratios - - -
        --target-accuracy target_accuracy float - -
        --bootstrap bootstrap int - B
        --point-estimate point_estimate - mode,mean -
    """),
    "repeats": ("cmd_repeats", """
        --scheme scheme - - PATH
        --tasks tasks - - PATH
        --responses responses - - PATH
        --model model - - PATH
        --calibration calibration - - PATH
        --repeats-csv repeats_csv - - PATH
        --split split - train,val,test,all -
        --ratios ratios - - -
        --blend blend float - -
        --permutations permutations int - -
        --max-repeats max_repeats int - -
        --inference-n inference_n int - -
        --deployment-threshold deployment_threshold float - -
        --point-estimate point_estimate - mode,mean -
    """),
}


def test_cli_surface_frozen(capsys):
    import argparse

    from crowdinfer.cli import build_parser

    def row(action):
        fields = ("/".join(action.option_strings), action.dest,
                  getattr(action.type, "__name__", None),
                  ",".join(action.choices) if action.choices is not None else None,
                  action.metavar)
        return " ".join("-" if f is None else f for f in fields)

    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(_SURFACE)
    for name, (handler, options) in _SURFACE.items():
        p = sub.choices[name]
        assert p.get_default("func").__name__ == handler
        want = [line.strip() for line in (_COMMON_OPTIONS + options).splitlines() if line.strip()]
        assert [row(a) for a in p._actions] == want, name
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert f"usage: crowdinfer {name}" in capsys.readouterr().out


def test_second_main_leaves_no_argparse_cycles(tmp_path, capsys):
    """The parser is built once per process, so a later run leaves none of
    argparse's formatter, action and group cycles to the collector."""
    argv = ["infer", "--outdir", str(tmp_path / "missing")]   # exits 2: no scheme file
    assert main(argv) == 2
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 2
        gc.collect()
        leaked = [type(obj).__name__ for obj in gc.garbage if type(obj).__module__ == "argparse"]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


@pytest.mark.parametrize("entry", [
    {"epochs": "5"}, {"epochs": 5.0}, {"epochs": True}, {"learning_rate": "fast"},
    {"tau": None}, {"select": 1}, {"ratios": [0.8, "x", 0.1]}, {"ratios": "0.8,x,0.1"},
    {"warmup_iters": 2.5}, {"learning_rate": 10**400}, {"ratios": [10**400, 0.1, 0.1]},
    {"select": "x" * 500}, {"epochs": "9" * 500},
])
def test_config_values_of_the_wrong_type_exit_2(pipeline, tmp_path, capsys, entry):
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl", "responses.jsonl")
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(entry))
    assert run(tmp_path, "train", "--config", str(cfgfile)) == 2
    err = capsys.readouterr().err
    assert next(iter(entry)) in err
    assert err.count("\n") == 1 and len(err) < 160   # a long value is cut short
    assert not (tmp_path / "model.json").exists()


_HUGE = "1" + "0" * 400
_SHORT = "100000000000000000...0000000000000000000"   # as the messages print _HUGE


@pytest.mark.parametrize("argv, unreachable, message", [
    (("predict", "--inference-n", str(2**63)), "crowdinfer.cli._forwards",
     f"inference_n must be at most {2**63 - 1}, got {2**63}"),
    (("predict", "--inference-n", "1" + "0" * 330), "crowdinfer.cli._forwards",
     f"inference_n must be at most {2**63 - 1}, got {_SHORT}"),
    (("repeats", "--split", "all", "--inference-n", str(2**63)), "crowdinfer.cli._forwards",
     f"inference_n must be at most {2**63 - 1}, got {2**63}"),
    (("eval", "--bins", _HUGE), "crowdinfer.autothresh.CalibrationBin",
     f"bins = {_SHORT}: bins, each one row and a test of "),
    (("eval", "--split", "all", "--bins", str(2**30 // 121 + 1)),
     "crowdinfer.autothresh.CalibrationBin", "more than the limit of 1073741824"),
    (("curve", "--bootstrap", _HUGE), "crowdinfer.autothresh._realization_rngs",
     f"B = {_SHORT}: resamples of "),
    (("calibrate", "--bootstrap", _HUGE), "crowdinfer.autothresh._realization_rngs",
     f"B = {_SHORT}: resamples of "),
    (("repeats", "--permutations", _HUGE), "crowdinfer.priors.repeats_run",
     f"permutations = {_SHORT}: replays of "),
    (("simulate", "--num-tasks", _HUGE), "crowdinfer.cli.simulate_dataset",
     f"num_tasks = {_SHORT}: tasks of answers, "),
])
def test_options_too_large_for_what_they_size_exit_2(pipeline, tmp_path, capsys, monkeypatch,
                                                     argv, unreachable, message):
    """Refused before the allocation or loop they size, which is never reached;
    the message stays one short line."""
    def fail(*args, **kwargs):
        raise AssertionError(f"{unreachable} reached")

    monkeypatch.setattr(unreachable, fail)
    if argv[0] != "simulate":
        _copy_inputs(pipeline, tmp_path, *_ALL_INPUTS)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and len(err) < 200
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before   # nothing written


def test_config_values_of_the_right_type_are_taken(pipeline, tmp_path):
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl", "responses.jsonl")
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"epochs": 2, "learning_rate": 1, "warmup_iters": None,
                                   "ratios": [0.8, 0.1, 0.1], "select": "last"}))
    assert run(tmp_path, "train", "--config", str(cfgfile)) == 0
    cfgfile.write_text(json.dumps([["epochs", 2]]))
    assert run(tmp_path, "train", "--config", str(cfgfile)) == 2


def test_bad_ratios_flag_exit_2(pipeline, tmp_path, capsys):
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl", "posteriors.jsonl",
                 "predictions.jsonl")
    assert run(tmp_path, "eval", "--ratios", "0.8,ten,0.1") == 2
    assert "ratios" in capsys.readouterr().err


def test_alpha_record_with_bad_n_exit_2(pipeline, tmp_path, capsys):
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl", "predictions.jsonl")
    records = read_jsonl(pipeline / "posteriors.jsonl")
    for bad in ("ten", -1, True):
        records[6]["n"] = bad
        (tmp_path / "posteriors.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records))
        assert run(tmp_path, "eval", "--split", "all") == 2
        err = capsys.readouterr().err
        assert f"posteriors.jsonl:7: bad record: n must be a non-negative integer, got {bad!r}" in err


@pytest.mark.parametrize("argv", [
    ("eval", "--split", "test"), ("curve", "--split", "test", "--bootstrap", "4"),
    ("calibrate", "--bootstrap", "4"),
])
def test_reference_without_responses_exit_2(pipeline, tmp_path, capsys, argv):
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl", "predictions.jsonl")
    records = read_jsonl(pipeline / "posteriors.jsonl")[::-1]
    ids = [r["task_id"] for r in records]
    test_ids = {tid for tid, label in zip(ids, split_dataset(ids, seed=0)) if label == 2}
    # two unanswered tasks: the one on the earlier line is reported
    (line, rec), _ = [(i + 1, r) for i, r in enumerate(records) if r["task_id"] in test_ids][:2]
    for r in records:
        if r["task_id"] in test_ids and (r is rec or r["task_id"] < rec["task_id"]):
            r["alpha"], r["n"] = [1.0, 1.0, 1.0], 0
    (tmp_path / "posteriors.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert f"posteriors.jsonl:{line}: task {rec['task_id']!r} has no responses (n = 0)" in err
    # a prediction priced at zero responses is fine; only references need them
    _copy_inputs(pipeline, tmp_path, "posteriors.jsonl")
    records = read_jsonl(pipeline / "predictions.jsonl")
    records[0]["n"] = 0
    (tmp_path / "predictions.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(tmp_path, *argv) == 0


@pytest.mark.parametrize("lacking, named", [
    (("predictions.jsonl",), "predictions.jsonl"),
    (("posteriors.jsonl",), "posteriors.jsonl"),
    (("predictions.jsonl", "posteriors.jsonl"), "predictions.jsonl"),
])
def test_task_without_a_record_exit_2(pipeline, tmp_path, capsys, lacking, named):
    """A test task missing from a record file exits naming the file and the
    task; missing from both, predictions.jsonl is the one named."""
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl", "predictions.jsonl",
                 "posteriors.jsonl")
    ids = [r["task_id"] for r in read_jsonl(pipeline / "tasks.jsonl")]
    missing = ids[int(np.flatnonzero(split_dataset(ids, seed=0) == 2)[0])]
    for name in lacking:
        records = [r for r in read_jsonl(pipeline / name) if r["task_id"] != missing]
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(tmp_path, "eval", "--split", "test") == 2
    assert capsys.readouterr().err == (f"error: {tmp_path / named}: no record of 1 of the "
                                       f"tasks to score (first: {missing!r})\n")


@pytest.mark.parametrize("argv, labellings", [
    (("eval", "--split", "test"), 1), (("eval", "--split", "all"), 0),
    (("curve", "--split", "val", "--bootstrap", "4"), 1), (("calibrate", "--bootstrap", "4"), 1),
])
def test_score_stages_read_each_record_file_once(pipeline, tmp_path, monkeypatch, argv,
                                                 labellings):
    """Both record files are read once, and the split labels computed at
    most once (not at all for split all), whatever splits a stage scores."""
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl", "predictions.jsonl",
                 "posteriors.jsonl")
    calls = []

    def counted(func):
        def call(*args, **kwargs):
            calls.append(func.__name__)
            return func(*args, **kwargs)
        return call

    for func in (read_alpha_records, split_dataset):
        monkeypatch.setattr(f"crowdinfer.cli.{func.__name__}", counted(func))
    assert run(tmp_path, *argv) == 0
    assert calls.count("read_alpha_records") == 2
    assert calls.count("split_dataset") == labellings


def test_calibrate_reports_a_val_fault_before_a_test_fault(pipeline, tmp_path, capsys):
    """An unanswered val reference is reported before a test task that has
    no prediction record: val is checked in full before test."""
    _copy_inputs(pipeline, tmp_path, "scheme.json", "tasks.jsonl")
    ids = [r["task_id"] for r in read_jsonl(pipeline / "tasks.jsonl")]
    labels = split_dataset(ids, seed=0)
    val_id, test_id = (ids[int(np.flatnonzero(labels == j)[-1])] for j in (1, 2))
    posts = read_jsonl(pipeline / "posteriors.jsonl")
    line = next(i + 1 for i, r in enumerate(posts) if r["task_id"] == val_id)
    posts[line - 1]["n"] = 0
    preds = [r for r in read_jsonl(pipeline / "predictions.jsonl") if r["task_id"] != test_id]
    for name, records in (("posteriors.jsonl", posts), ("predictions.jsonl", preds)):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(tmp_path, "calibrate", "--bootstrap", "4") == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'posteriors.jsonl'}:{line}: task {val_id!r} has no responses "
        f"(n = 0), so it cannot be a scoring reference\n")
    # the test fault alone is reported
    _copy_inputs(pipeline, tmp_path, "posteriors.jsonl")
    assert run(tmp_path, "calibrate", "--bootstrap", "4") == 2
    assert capsys.readouterr().err == (f"error: {tmp_path / 'predictions.jsonl'}: no record of 1 "
                                       f"of the tasks to score (first: {test_id!r})\n")


def test_val_task_without_features_exit_2(pipeline, tmp_path, capsys):
    _copy_inputs(pipeline, tmp_path, "scheme.json", "responses.jsonl")
    records = read_jsonl(pipeline / "tasks.jsonl")
    labels = split_dataset([r["task_id"] for r in records], seed=0)
    # two featureless val tasks: the one on the earlier line is reported
    first, second = [r for r, label in zip(records, labels) if label == 1][:2]
    del first["features"], second["features"]
    (tmp_path / "tasks.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(tmp_path, "train", "--epochs", "1") == 2
    err = capsys.readouterr().err
    assert f"task {first['task_id']} has no features; cannot train on it" in err
    assert not (tmp_path / "model.json").exists()


def _without_features(pipeline, tmp_path, rows) -> list:
    """Copy the pipeline's inputs, minus the features of the tasks on the
    given rows of tasks.jsonl; their ids."""
    _copy_inputs(pipeline, tmp_path, *_ALL_INPUTS)
    records = read_jsonl(pipeline / "tasks.jsonl")
    for i in rows:
        del records[i]["features"]
    (tmp_path / "tasks.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    return [records[i]["task_id"] for i in rows]


_NEGATIVE_N = "response count n must be non-negative"


@pytest.mark.parametrize("argv, rows, message", [
    (("predict", "--inference-n", "-1"), [1], _NEGATIVE_N),
    (("repeats", "--split", "all", "--inference-n", "-1"), [1], _NEGATIVE_N),
    (("predict", "--inference-n", "-1"), [0], "task {} has no features to predict from"),
    (("repeats", "--split", "all", "--inference-n", "-1"), [0], "task {} has no features"),
    (("infer", "--prior", "model"), [3, 7], "task {} has no features for the model prior"),
], ids=["predict-n", "repeats-n", "predict-featureless", "repeats-featureless",
        "infer-first-featureless"])
def test_per_task_stages_report_the_first_fault(pipeline, tmp_path, capsys, argv, rows,
                                                message):
    """The tasks are checked one at a time in file order, so the first
    task's fault is reported, whichever kind it is."""
    ids = _without_features(pipeline, tmp_path, rows)
    assert run(tmp_path, *argv) == 2
    assert f"error: {message.format(ids[0])}\n" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")   # a numpy warning would reach stderr
@pytest.mark.parametrize("argv", [("predict",), ("infer", "--prior", "model"),
                                  ("repeats", "--split", "all", "--permutations", "2")])
def test_forward_that_is_not_positive_and_finite_exit_3(pipeline, tmp_path, capsys, argv):
    # finite features this large overflow the model's scores
    _copy_inputs(pipeline, tmp_path, *_ALL_INPUTS)
    records = read_jsonl(pipeline / "tasks.jsonl")
    records[2]["features"] = [1e308] * len(records[2]["features"])
    (tmp_path / "tasks.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(tmp_path, *argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric error: task {records[2]['task_id']}: forward alpha not "
                          f"positive and finite: [")
    assert err.endswith("]\n") and err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before   # nothing written


@pytest.mark.filterwarnings("error")   # a numpy warning would reach stderr
@pytest.mark.parametrize("argv", [("predict",), ("infer", "--prior", "model"),
                                  ("repeats", "--split", "all", "--permutations", "2")])
def test_model_too_large_for_its_scores_exit_3_with_one_line(pipeline, tmp_path, capsys, argv):
    # every A entry at 1e308 overflows the first task's scores to inf and NaN
    _copy_inputs(pipeline, tmp_path, *_ALL_INPUTS)
    model = json.loads((pipeline / "model.json").read_text())
    model["A"] = [[1e308] * len(row) for row in model["A"]]
    (tmp_path / "model.json").write_text(json.dumps(model))
    first = read_jsonl(pipeline / "tasks.jsonl")[0]["task_id"]
    assert run(tmp_path, *argv) == 3
    assert capsys.readouterr().err == (f"numeric error: task {first}: forward alpha not "
                                       f"positive and finite: [nan, nan, nan]\n")


@pytest.mark.filterwarnings("error")   # a numpy warning would reach stderr
def test_overflowing_training_step_exit_3_with_one_line(tmp_path, capsys):
    assert run(tmp_path, "simulate", "--num-tasks", "200") == 0
    assert run(tmp_path, "infer") == 0
    capsys.readouterr()
    assert run(tmp_path, "train", "--batch-size", "1", "--epochs", "1",
               "--learning-rate", "1e308") == 3
    assert capsys.readouterr().err == ("numeric error: non-finite training loss at "
                                       "iteration 2, example t000132\n")
    assert not (tmp_path / "model.json").exists()


def test_repeats_ignores_featureless_tasks_outside_its_split(pipeline, tmp_path):
    argv = ("repeats", "--split", "test", "--permutations", "2", "--deployment-threshold", "2.0")
    assert run(pipeline, *argv, "--repeats-csv", str(tmp_path / "want.csv")) == 0
    labels = split_dataset([r["task_id"] for r in read_jsonl(pipeline / "tasks.jsonl")], seed=0)
    _without_features(pipeline, tmp_path, [int(np.flatnonzero(labels == 0)[0])])
    assert run(tmp_path, *argv) == 0
    assert (tmp_path / "repeats.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_repeats_gates_with_the_point_estimate_calibrate_used(tmp_path, monkeypatch):
    """With point_estimate "mean" in the config file of both calibrate and
    repeats, repeats replays exactly the answered test tasks whose mean
    confidence in predictions.jsonl is below the calibrated threshold."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"point_estimate": "mean", "target_accuracy": 0.9}))
    for argv in (("simulate", "--num-tasks", "200", "--repeats", "10"), ("infer",),
                 ("train", "--epochs", "20", "--learning-rate", "0.05"), ("predict",),
                 ("calibrate", "--bootstrap", "32", "--config", str(cfgfile))):
        assert run(tmp_path, *argv) == 0, argv
    replayed = []

    def summary(ids, *args, **kwargs):
        replayed.append(list(ids))
        return repeats_summary(ids, *args, **kwargs)

    monkeypatch.setattr("crowdinfer.cli.repeats_summary", summary)
    assert run(tmp_path, "repeats", "--permutations", "2", "--config", str(cfgfile)) == 0

    threshold = json.loads((tmp_path / "calibration.json").read_text())["deployment_threshold"]
    preds = read_alpha_records(tmp_path / "predictions.jsonl", 3)
    test = (split_dataset(preds.task_ids, seed=0) == 2) & (preds.n > 0)

    def below(how):
        conf = confidence(point_estimates(preds.alpha, how))
        return list(itertools.compress(preds.task_ids, test & (conf < threshold)))

    assert replayed == [below("mean")]   # one replay serves both priors
    assert below("mean") != below("mode")   # the posterior mode would replay other tasks


def test_calibrate_prints_the_point_values_at_the_deployed_threshold(tmp_path, capsys):
    """The automated share and retained accuracy on test that calibrate
    prints, recomputed from predictions.jsonl, posteriors.jsonl and
    calibration.json: the test tasks whose confidence reaches the threshold.
    The predictions are the posteriors with the least confident 30% of them
    reversed, so accuracy grows with confidence."""
    assert run(tmp_path, "simulate", "--num-tasks", "400", "--repeats", "8", "--seed", "0") == 0
    assert run(tmp_path, "infer") == 0
    posts = read_alpha_records(tmp_path / "posteriors.jsonl", 3)
    posterior_conf = confidence(point_estimates(posts.alpha))
    alpha = posts.alpha.copy()
    reversed_rows = posterior_conf < np.quantile(posterior_conf, 0.3)
    alpha[reversed_rows] = alpha[reversed_rows, ::-1]
    write_alpha_records(tmp_path / "predictions.jsonl", posts.task_ids, alpha, posts.n)
    capsys.readouterr()
    assert run(tmp_path, "calibrate", "--target-accuracy", "0.8", "--bootstrap", "32",
               "--seed", "1") == 0
    out = capsys.readouterr().out

    threshold = json.loads((tmp_path / "calibration.json").read_text())["deployment_threshold"]
    preds = read_alpha_records(tmp_path / "predictions.jsonl", 3)
    test = split_dataset(preds.task_ids, seed=1) == 2
    q_hat = point_estimates(preds.alpha[test])
    correct = q_hat.argmax(axis=1) == point_estimates(posts.alpha[test]).argmax(axis=1)
    automated = confidence(q_hat) >= threshold
    assert 0 < automated.sum() < test.sum() and not correct[automated].all()
    assert out.splitlines()[1] == (f"at it: {automated.mean():.4f} of test tasks automated, "
                                   f"retained accuracy {correct[automated].mean():.4f}")


def test_calibrate_prints_the_latent_accuracy_where_test_tasks_carry_true_q(tmp_path, capsys):
    """The retained accuracy against argmax(true_q) that calibrate prints,
    recomputed from tasks.jsonl, predictions.jsonl and calibration.json: the
    test tasks whose confidence reaches the threshold.  Without a true_q on
    every test task the line is left out."""
    assert run(tmp_path, "simulate", "--num-tasks", "400", "--repeats", "4", "--seed", "2") == 0
    assert run(tmp_path, "infer") == 0
    posts = read_alpha_records(tmp_path / "posteriors.jsonl", 3)
    posterior_conf = confidence(point_estimates(posts.alpha))
    alpha = posts.alpha.copy()
    reversed_rows = posterior_conf < np.quantile(posterior_conf, 0.3)
    alpha[reversed_rows] = alpha[reversed_rows, ::-1]
    write_alpha_records(tmp_path / "predictions.jsonl", posts.task_ids, alpha, posts.n)
    capsys.readouterr()
    argv = ("calibrate", "--target-accuracy", "0.8", "--bootstrap", "32", "--seed", "2")
    assert run(tmp_path, *argv) == 0
    out = capsys.readouterr().out.splitlines()

    true_q = {rec["task_id"]: rec["true_q"] for rec in read_jsonl(tmp_path / "tasks.jsonl")}
    threshold = json.loads((tmp_path / "calibration.json").read_text())["deployment_threshold"]
    preds = read_alpha_records(tmp_path / "predictions.jsonl", 3)
    test = split_dataset(preds.task_ids, seed=2) == 2
    q_hat = point_estimates(preds.alpha[test])
    truth = np.array([true_q[t] for t in itertools.compress(preds.task_ids, test)])
    correct = q_hat.argmax(axis=1) == truth.argmax(axis=1)
    automated = confidence(q_hat) >= threshold
    assert 0 < automated.sum() < test.sum() and 0 < correct[automated].mean() < 1
    assert len(out) == 3
    assert out[2] == f"against the latent true_q, retained accuracy {correct[automated].mean():.4f}"

    # one test task without its true_q: the line is left out
    first_test = next(itertools.compress(preds.task_ids, test))
    records = read_jsonl(tmp_path / "tasks.jsonl")
    for rec in records:
        if rec["task_id"] == first_test:
            del rec["true_q"]
    (tmp_path / "tasks.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(tmp_path, *argv) == 0
    assert capsys.readouterr().out.splitlines() == out[:2]


def test_repeats_refuses_a_threshold_calibrated_on_another_point_estimate(pipeline, tmp_path,
                                                                         capsys):
    """calibration.json names the point estimate calibrate gated on, and
    repeats takes the threshold from it only under the same one."""
    _copy_inputs(pipeline, tmp_path, *_ALL_INPUTS)
    assert json.loads((tmp_path / "calibration.json").read_text())["point_estimate"] == "mode"
    argv = ("repeats", "--split", "test", "--permutations", "4")
    assert run(tmp_path, *argv, "--point-estimate", "mean") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("calibration.json: the threshold was calibrated on point_estimate 'mode', but "
            "repeats gates on 'mean'") in err
    assert not (tmp_path / "repeats.csv").exists()
    assert run(tmp_path, *argv, "--point-estimate", "mode") == 0
    assert (tmp_path / "repeats.csv").read_bytes() == (pipeline / "repeats.csv").read_bytes()
    # a threshold given as an option is taken under either point estimate
    assert run(tmp_path, *argv, "--point-estimate", "mean", "--deployment-threshold", "inf") == 0


def test_stages_take_a_surrogate_escaped_task_id(tmp_path):
    """A JSON "\\ud800" escape decodes to a lone surrogate, a valid task id."""
    assert run(tmp_path, "simulate", "--num-tasks", "30", "--repeats", "3") == 0
    for name in ("tasks.jsonl", "responses.jsonl"):
        path = tmp_path / name
        path.write_text(path.read_text().replace('"t000000"', '"\\ud800"'))
    assert '"\\ud800"' in (tmp_path / "tasks.jsonl").read_text()
    for argv in (("infer",), ("train", "--epochs", "2"), ("predict",),
                 ("repeats", "--split", "all", "--permutations", "2",
                  "--deployment-threshold", "inf")):
        assert run(tmp_path, *argv) == 0, argv
    assert "\ud800" in read_alpha_records(tmp_path / "predictions.jsonl", 3).task_ids


def test_inputs_are_read_as_utf8_under_an_ascii_locale(tmp_path):
    """JSON text is UTF-8 (RFC 8259): a task id, category name and answer
    outside ASCII are read the same under the C locale as in UTF-8 mode."""
    assert run(tmp_path, "simulate", "--num-tasks", "30", "--repeats", "3") == 0
    for name in ("scheme.json", "tasks.jsonl", "responses.jsonl"):
        path = tmp_path / name
        text = path.read_text().replace('"t000000"', '"café"').replace('"c0"', '"naïve"')
        path.write_bytes(text.encode("utf-8"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for out, mode in (("ascii.jsonl", {"LC_ALL": "C", "PYTHONUTF8": "0",
                                       "PYTHONCOERCECLOCALE": "0"}),
                      ("utf8.jsonl", {"PYTHONUTF8": "1"})):
        done = subprocess.run([sys.executable, "-m", "crowdinfer", "infer", "--outdir",
                               str(tmp_path), "--posteriors", out],
                              env={**os.environ, "PYTHONPATH": pythonpath, **mode},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    assert (tmp_path / "ascii.jsonl").read_bytes() == (tmp_path / "utf8.jsonl").read_bytes()
    assert "café" in read_alpha_records(tmp_path / "ascii.jsonl", 3).task_ids


# ---------------------------------------------------------------------------
# the training set: column arrays against the per-task builder
# ---------------------------------------------------------------------------


def _mode_oracle(alpha):
    """The posterior mode of one concentration vector, computed on its own."""
    shifted = np.maximum(alpha - 1.0, 0.0)
    total = shifted.sum()
    return SoftLabel(shifted / total if total > 0.0 else alpha / alpha.sum())


def _training_set_oracle(scheme, tasks, train, val):
    """The per-task builder: one tally, posterior, mode and soft weight per
    (task_id, features or None, answers) task of the train and val id sets,
    stacked into (X, T, n, w) arrays and ids in file order."""
    uni = uniform_prior(scheme)
    targets = {}
    for tid, x, answers in tasks:
        if tid in train or tid in val:
            if x is None:
                raise InputError(f"task {tid} has no features; cannot train on it")
            targets[tid] = posterior(uni, tally(answers, scheme))
    refs = {tid: _mode_oracle(target.alpha) for tid, target in targets.items()}
    class_counts = np.zeros(scheme.num_categories)
    for tid in train:
        class_counts[refs[tid].argmax()] += 1
    weights = hard_weights(class_counts)
    out = []
    for ids in (train, val):
        rows = [t for t in tasks if t[0] in ids]
        out.append(((
            np.stack([x for _, x, _ in rows]) if rows else None,
            np.stack([targets[tid].alpha for tid, _, _ in rows]) if rows else None,
            np.array([float(len(answers)) for _, _, answers in rows]),
            np.array([float(refs[tid].q @ weights) for tid, _, _ in rows]),
        ), [tid for tid, _, _ in rows]))
    return out


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 600), k=st.integers(2, 8), d=st.integers(1, 16),
       most=st.sampled_from([0, 1, 2, 3, 5, 30]), unanswered=st.sampled_from([0.0, 0.2, 1.0]),
       featureless=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_training_set_equals_per_task_builder_bitwise(n, k, d, most, unanswered, featureless,
                                                      seed):
    rng = np.random.default_rng(seed)
    scheme = CategoryScheme(tuple(f"c{i}" for i in range(k - 1)))
    ids = [f"t{i:04d}" for i in rng.permutation(n)]
    counts = rng.integers(0, most + 1, size=(n, k))
    counts[rng.random(n) < unanswered] = 0
    tied = rng.random(n) < 0.3   # ties between the top category and another
    counts[tied, rng.integers(0, k, tied.sum())] = counts[tied].max(axis=1)
    owner = np.repeat(np.arange(n), counts.sum(axis=1))
    answers = np.concatenate([np.repeat(np.arange(k), row) for row in counts])
    order = rng.permutation(owner.size)
    responses = Responses("responses.jsonl", ids, owner[order], np.arange(1, owner.size + 1),
                          answers[order])

    part = rng.choice(3, size=n, p=[0.7, 0.15, 0.15])
    part[rng.integers(n)] = 0
    has_features = np.ones(n, dtype=bool)
    has_features[(part == 2) & (rng.random(n) < 0.5)] = False
    if featureless:
        has_features[rng.integers(n)] = False
    features = np.where(has_features[:, None], rng.normal(0.0, 3.0, size=(n, d)), 0.0)
    table = TaskTable(ids, features, has_features, np.zeros((n, 0)), np.zeros(n, dtype=bool))
    train, val = ({ids[i] for i in np.flatnonzero(part == j)} for j in (0, 1))

    tasks = [(tid, x if has else None, answers) for tid, x, has, answers
             in zip(ids, features, has_features, attach_responses(ids, responses))]
    try:
        want = _training_set_oracle(scheme, tasks, train, val)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            _training_set(scheme, table, count_matrix(ids, responses, k), part == 0, part == 1)
        assert str(got.value) == str(exc)
        return
    got = _training_set(scheme, table, count_matrix(ids, responses, k), part == 0, part == 1)
    for (arrays, got_ids), (want_arrays, want_ids) in zip(got, want):
        assert got_ids == want_ids
        for a, b in zip(arrays, want_arrays):
            if b is None:   # no rows: the per-task builder had nothing to stack
                assert a.shape[0] == 0
                continue
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 200), k=st.integers(2, 8), d=st.integers(1, 6),
       blend=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_model_prior_posteriors_equal_per_task_oracle(tmp_path_factory, n, k, d, blend, seed):
    """infer --prior model writes the bytes of one posterior per task of its
    blended forward and its tally, whatever the order of the response lines."""
    rng = np.random.default_rng(seed)
    out = tmp_path_factory.mktemp("model_prior")
    scheme = CategoryScheme(tuple(f"c{i}" for i in range(k - 1)))
    ids = [f"t{i:03d}" for i in rng.permutation(n)]
    features = rng.normal(0.0, 3.0, size=(n, d))
    answers = [rng.integers(0, k, size=m) for m in rng.integers(0, 6, size=n)]  # some none
    write_scheme(out / "scheme.json", scheme)
    write_tasks(out / "tasks.jsonl", TaskTable(ids, features, np.ones(n, dtype=bool),
                                               np.zeros((n, 0)), np.zeros(n, dtype=bool)))
    write_responses(out / "responses.jsonl", ids, answers, scheme)
    lines = (out / "responses.jsonl").read_text().splitlines(keepends=True)
    (out / "responses.jsonl").write_text("".join(lines[i] for i in rng.permutation(len(lines))))
    save_model(out / "model.json", HeadModel(A=rng.normal(0.0, 0.5, size=(d, k)),
                                             bias=rng.normal(0.0, 0.5, size=k),
                                             W=rng.normal(0.0, 0.5, size=(k, k)),
                                             alpha0_sum=float(k)))

    assert run(out, "infer", "--prior", "model", "--blend", repr(blend)) == 0
    model = load_model(out / "model.json")
    _write_alpha_records_oracle(out / "want.jsonl", [
        (tid, posterior(blend_prior(head_forward(model, x, 0), blend), tally(row, scheme)),
         row.size)
        for tid, x, row in zip(ids, features, answers)
    ])
    assert (out / "posteriors.jsonl").read_bytes() == (out / "want.jsonl").read_bytes()


_ALL_INPUTS = ("scheme.json", "tasks.jsonl", "responses.jsonl", "posteriors.jsonl",
               "model.json", "predictions.jsonl", "calibration.json")


@pytest.mark.parametrize("argv, message", [
    (("eval", "--bins", "1"), "need at least 2 bins"),
    (("eval", "--eta0", "1.5"), "eta0 must lie in (0, 1), got 1.5"),
    (("eval", "--pi0", "0"), "pi0 must lie in (0, 1), got 0.0"),
    (("curve", "--bootstrap", "0"), "B must be at least 1"),
    (("calibrate", "--bootstrap", "0"), "B must be at least 1"),
    (("calibrate", "--target-accuracy", "1.5"), "target_accuracy must lie in (0, 1], got 1.5"),
    (("calibrate", "--target-accuracy", "nan"), "target_accuracy must lie in (0, 1], got nan"),
    (("repeats", "--permutations", "0"), "permutations must be at least 1"),
    (("repeats", "--blend", "2"), "blend must lie in [0, 1], got 2.0"),
    (("repeats", "--max-repeats", "0"), "max_repeats must be at least 1, got 0"),
    (("repeats", "--max-repeats", "-2"), "max_repeats must be at least 1, got -2"),
    (("repeats", "--inference-n", "-1"), "response count n must be non-negative"),
    (("infer", "--prior", "model", "--blend", "-1"), "blend must lie in [0, 1], got -1.0"),
    (("predict", "--inference-n", "-1"), "response count n must be non-negative"),
    (("infer", "--blend", "2"), "blend must lie in [0, 1], got 2.0"),
    (("train", "--ratios", "nan,0.5,0.5"), "ratios must be positive and sum to 1, got (nan, "),
    (("eval", "--ratios", "nan,0.5,0.5"), "ratios must be positive and sum to 1, got (nan, "),
    (("train", "--seed", "-1"), "seed must be a non-negative integer, got -1"),
    (("eval", "--seed", "-1"), "seed must be a non-negative integer, got -1"),
    (("curve", "--seed", "-1"), "seed must be a non-negative integer, got -1"),
    (("curve", "--split", "all", "--seed", "-1"), "seed must be a non-negative integer, got -1"),
    (("calibrate", "--seed", "-1"), "seed must be a non-negative integer, got -1"),
    (("repeats", "--seed", "-1"), "seed must be a non-negative integer, got -1"),
    (("repeats", "--deployment-threshold", "nan"),
     "deployment_threshold must be a number or inf, got nan"),
])
def test_invalid_option_values_exit_2(pipeline, tmp_path, capsys, argv, message):
    _copy_inputs(pipeline, tmp_path, *_ALL_INPUTS)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(tmp_path, *argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before   # nothing written


@pytest.mark.parametrize("argv, entry", [
    (("infer",), {"prior": "bogus"}), (("train", "--epochs", "1"), {"select": "bogus"}),
    (("eval",), {"split": "bogus"}), (("curve", "--bootstrap", "4"), {"split": "bogus"}),
    (("calibrate", "--bootstrap", "4"), {"point_estimate": "bogus"}),
])
def test_config_values_outside_the_choices_exit_2(pipeline, tmp_path, capsys, argv, entry):
    _copy_inputs(pipeline, tmp_path, *_ALL_INPUTS)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(entry))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(tmp_path, *argv, "--config", str(cfgfile)) == 2
    (key,) = entry
    assert f"error: config key {key!r} must be one of " in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before   # nothing written


def test_nan_deployment_threshold_from_config_exit_2(tmp_path, capsys):
    # refused before any file is read: the directory holds no inputs
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"deployment_threshold": NaN}')
    assert run(tmp_path, "repeats", "--config", str(cfgfile)) == 2
    assert "error: deployment_threshold must be a number or inf, got nan" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("option, message", [
    (("--blend", "2"), "blend must lie in [0, 1], got 2.0"),
    (("--blend", "nan"), "blend must lie in [0, 1], got nan"),
    (("--permutations", "0"), "permutations must be at least 1"),
    (("--max-repeats", "0"), "max_repeats must be at least 1, got 0"),
])
def test_repeats_refuses_bad_replay_options_before_reading(tmp_path, capsys, option, message):
    """Refused before any file is read (the directory holds no inputs), so a
    threshold that automates every task is not blamed for them."""
    assert run(tmp_path, "repeats", "--deployment-threshold=-inf", *option) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_eval_on_one_proper_category_exit_2(tmp_path, capsys):
    assert run(tmp_path, "simulate", "--num-tasks", "30", "--categories", "1",
               "--repeats", "5") == 0
    # the record files are not read: a scheme of one proper category is refused first
    assert run(tmp_path, "eval", "--split", "all") == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'scheme.json'}: eval scores ambiguity" in err
    assert "the scheme has 1" in err
    assert not (tmp_path / "report.json").exists()
