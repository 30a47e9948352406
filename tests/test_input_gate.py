"""Input-mutation gate: one fault in one input, and no traceback, no stray
warning and no wrong exit code.

Each case runs one stage in-process on a small pipeline's files after
changing one thing: one field of one record of an input file, one line of
it, the whole file, or one option.  The stage must exit 0 with nothing on
stderr, or 2 (3 for the cases marked numeric) with one ``error:`` (or
``numeric error:``) line that names the file (``file:line`` for a JSON
lines file), the task, or the option at fault.
"""

import json
import re
import shutil

import pytest

from crowdinfer.cli import main

_HUGE_INT = 10**400
# the values a field is replaced with, and a list's first item
_VALUES = {"null": None, "true": True, "string": "x", "-1": -1, "0": 0, "1e308": 1e308,
           "1.5": 1.5, "list": [], "object": {}, "huge": _HUGE_INT}
_LINE = 3   # the JSON lines record that is changed

# each input, the stage that reads it, and the keys of its records to change
_READERS = {
    "tasks.jsonl": (("predict",), ("task_id", "features", "true_q")),
    "responses.jsonl": (("infer",), ("task_id", "answer")),
    "posteriors.jsonl": (("eval", "--split", "all"), ("task_id", "alpha", "n")),
    "predictions.jsonl": (("eval", "--split", "all"), ("task_id", "alpha", "n")),
    "model.json": (("predict",), ("format_version", "d", "C", "alpha0_sum", "A", "bias", "W")),
    "calibration.json": (("repeats", "--split", "all", "--permutations", "2"),
                         ("deployment_threshold",)),
    "cfg.json": (("eval", "--split", "all"), ("bins", "eta0", "ratios", "point_estimate")),
}
_CONFIG = {"bins": 4, "eta0": 0.4, "ratios": [0.8, 0.1, 0.1], "point_estimate": "mode"}
_LISTS = {"features", "true_q", "alpha", "A", "bias", "W", "ratios"}   # keys holding lists


def _record_cases():
    """(id, file, mutation): every key deleted or replaced, every list's
    first item replaced, the list lengthened or shortened, and whole-file
    faults."""
    for name, (_, keys) in _READERS.items():
        for key in keys:
            yield f"{name}-{key}-deleted", name, ("delete", key, None)
            for label, value in _VALUES.items():
                yield f"{name}-{key}={label}", name, ("set", key, value)
            if key in _LISTS:
                for label, value in _VALUES.items():
                    yield f"{name}-{key}[0]={label}", name, ("item", key, value)
                yield f"{name}-{key}-longer", name, ("longer", key, None)
                yield f"{name}-{key}-shorter", name, ("shorter", key, None)
        for fault in ("duplicated", "truncated", "empty", "non-utf-8"):
            yield f"{name}-{fault}", name, (fault, None, None)


def _mutated(doc: dict, kind: str, key: str, value) -> dict:
    if kind == "delete":
        del doc[key]
    elif kind == "set":
        doc[key] = value
    elif kind == "item":
        doc[key][0] = value
    elif kind == "longer":
        doc[key].append(doc[key][-1])
    elif kind == "wider":   # a model of one more feature than the tasks have
        doc["A"].append(doc["A"][-1])
        doc["d"] += 1
    else:   # shorter
        doc[key].pop()
    return doc


def _mutated_bytes(text: str, name: str, mutation) -> bytes:
    """The file's bytes after the mutation: of the record on line _LINE of
    a JSON lines file, or of the whole JSON document."""
    kind, key, value = mutation
    if kind == "empty":
        return b""
    if kind == "non-utf-8":
        return b"\xff\xfe" + text.encode()
    if not name.endswith(".jsonl"):
        if kind in ("duplicated", "truncated"):
            return (text * 2 if kind == "duplicated" else text[: len(text) // 2]).encode()
        return json.dumps(_mutated(json.loads(text), kind, key, value)).encode()
    lines = text.splitlines(keepends=True)
    at = _LINE - 1
    if kind == "duplicated":
        lines.insert(at, lines[at])
    elif kind == "truncated":
        lines[at] = lines[at][: len(lines[at]) // 2] + "\n"
    else:
        lines[at] = json.dumps(_mutated(json.loads(lines[at]), kind, key, value)) + "\n"
    return "".join(lines).encode()


_INPUTS = ("scheme.json", "tasks.jsonl", "responses.jsonl", "posteriors.jsonl",
           "predictions.jsonl", "model.json", "calibration.json")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("gate")
    # a target accuracy of 1 calibrates an infinite threshold: repeats keeps every task
    for argv in (("simulate", "--num-tasks", "40", "--repeats", "6"), ("infer",),
                 ("train", "--epochs", "2"), ("predict",),
                 ("calibrate", "--target-accuracy", "1.0", "--bootstrap", "8")):
        assert main([argv[0], "--outdir", str(out), *argv[1:]]) == 0, argv
    (out / "cfg.json").write_text(json.dumps(_CONFIG))
    return out


# a forward pass whose scores overflow: exit 3 naming the task
_NUMERIC = {"tasks.jsonl-features[0]=1e308", "model.json-bias[0]=1e308"}


def _cases():
    """(id, file, mutation, argv, what the message names, numeric): the
    record cases run the file's reader stage, and the message names an
    input file or a task; the stage cases name what they give."""
    for case_id, name, mutation in _record_cases():
        yield case_id, name, mutation, _READERS[name][0], None, case_id in _NUMERIC
    repeats = ("repeats", "--split", "all", "--permutations", "2")
    for argv in (("infer", "--prior", "model"), repeats):
        yield (f"{argv[0]}-featureless", "tasks.jsonl", ("delete", "features", None), argv,
               "task t000002 has no features", False)
    for argv in (("predict",), ("infer", "--prior", "model"), repeats):
        yield (f"{argv[0]}-features-1e308", "tasks.jsonl", ("set", "features", [1e308] * 8),
               argv, "task t000002: forward alpha not positive and finite", True)
    yield ("model-wider", "model.json", ("wider", None, None), ("predict",),
           "the model maps 9 features", False)
    huge = str(_HUGE_INT)
    for case_id, argv, names in (
            ("inference-n-2**63", ("predict", "--inference-n", str(2**63)), "inference_n"),
            ("inference-n-huge", ("predict", "--inference-n", huge), "inference_n"),
            ("repeats-inference-n-huge", (*repeats, "--inference-n", huge), "inference_n"),
            ("bins-huge", ("eval", "--split", "all", "--bins", huge), "bins"),
            ("curve-bootstrap-huge", ("curve", "--split", "all", "--bootstrap", huge), "B"),
            ("calibrate-bootstrap-huge", ("calibrate", "--bootstrap", huge), "B"),
            ("permutations-huge", ("repeats", "--split", "all", "--permutations", huge),
             "permutations"),
            ("max-repeats-huge", (*repeats, "--max-repeats", huge), "max_repeats"),
            ("num-tasks-huge", ("simulate", "--num-tasks", huge), "num_tasks")):
        yield case_id, None, None, argv, names, False


@pytest.mark.filterwarnings("error")   # a numpy warning would reach stderr
@pytest.mark.parametrize("name, change, argv, names, numeric",
                         [pytest.param(*case[1:], id=case[0]) for case in _cases()])
def test_one_fault_exits_cleanly(inputs, tmp_path, capsys, name, change, argv, names, numeric):
    for f in (*_INPUTS, "cfg.json"):
        shutil.copy(inputs / f, tmp_path / f)
    if name is not None:
        (tmp_path / name).write_bytes(_mutated_bytes((inputs / name).read_text(), name, change))
    if name == "cfg.json":
        argv = (*argv, "--config", str(tmp_path / name))
    code = main([argv[0], "--outdir", str(tmp_path), *argv[1:]])
    err = capsys.readouterr().err
    assert code in ((0, 2, 3) if numeric else (0, 2)), err
    if code == 0:
        assert err == ""
        return
    assert err.count("\n") == 1 and err.startswith("numeric error: " if code == 3 else "error: ")
    assert len(err.replace(f"{tmp_path}/", "")) <= 200, err
    if names is None:   # an input file (a record's with its line), a task or the key
        named = any(f in err for f in (*_INPUTS, "cfg.json")) or re.search(r"\btask '?\w", err)
        assert named or name == "cfg.json" and change[1] in err, err
    else:
        assert names in err, err
