"""The benchmark's span tracer (perfbench/tracer.py) wraps crowdinfer functions
by name, and its runner (perfbench/run.py) checks the calls each traced stage
makes.  A source change that renames or deletes one of them, or that stops
making a call the runner counts, fails every traced benchmark run; these tests
catch it in the unit suite."""

import importlib.util
import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import crowdinfer.cli  # noqa: F401  imports every module the tracer patches
from crowdinfer.core import split_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    return module


def _tracer_module():
    return _load("perfbench_tracer", "tracer.py")


def _bindings():
    """Every name bound in a crowdinfer module, and each class's own
    __post_init__, as (owner, name) -> object."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "crowdinfer" or mod_name.startswith("crowdinfer."):
            for key, value in vars(mod).items():
                out[mod_name, key] = value
                if isinstance(value, type) and "__post_init__" in vars(value):
                    out[value, "__post_init__"] = vars(value)["__post_init__"]
    return out


def test_tracer_wraps_every_target_and_uninstalls_cleanly():
    tracer_mod = _tracer_module()
    before = _bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for mod_name, attr, _ in tracer_mod.TARGETS:
            target = getattr(sys.modules[f"crowdinfer.{mod_name}"], attr)
            span = target.__post_init__ if isinstance(target, type) else target
            assert hasattr(span, "__wrapped__"), f"{mod_name}.{attr} is not traced"
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_traced_stages_make_the_per_task_calls_the_benchmark_counts(tmp_path):
    """Each stage runs inside the tracer's stage span under its benchmark
    name, and the runner's check_trace must find every call it counts (one
    tally, posterior, forward and blend per task where it counts them)."""
    bench = _load("perfbench_run", "run.py")
    tracer = _tracer_module().Tracer()
    runner = bench.Runner(crowdinfer.cli, tmp_path, seed=0)
    stages = [
        ("simulate", ["simulate", "--num-tasks", "60", "--repeats", "5"]),
        ("infer", ["infer"]),
        ("train", ["train", "--epochs", "2"]),
        ("predict", ["predict"]),
        ("infer_model", ["infer", "--prior", "model", "--posteriors", "posteriors_model.jsonl"]),
        ("repeats", ["repeats", "--split", "test", "--permutations", "2",
                     "--deployment-threshold", "inf"]),
    ]
    with tracer.installed():
        for label, argv in stages:
            runner.run(label, argv, tracer)
    bench.check_trace(runner, SimpleNamespace(num_tasks=60, replays=True), tracer, 1)
    assert runner.failures == []
    # train: one log_gamma per target term (train and val) and per validation
    # pass model selection reads, and one for the final train loss the stage
    # prints; none in the minibatch steps, whose losses are bounded on this
    # data, so the steps need only digamma
    ids = [json.loads(line)["task_id"]
           for line in (tmp_path / "tasks.jsonl").read_text().splitlines()]
    labels = split_dataset(ids, seed=0)
    assert (labels == 1).any()
    epochs, batch = 2, 256
    steps = epochs * -(-int((labels == 0).sum()) // batch)
    assert tracer.stats[("train", "head.log_gamma")][2] == 2 + epochs + 1
    assert tracer.stats[("train", "head.digamma")][2] == steps
    # priors.replay_steps: responses replayed, from both priors, times permutations
    test = set(itertools.compress(ids, labels == 2))
    replayed = sum(json.loads(line)["task_id"] in test
                   for line in (tmp_path / "responses.jsonl").read_text().splitlines())
    assert replayed > 0
    assert tracer.stats[("repeats", "priors.repeats_run")][3] == 2 * replayed * 2
