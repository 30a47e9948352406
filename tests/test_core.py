import json
import math

import numpy as np
import pytest

from crowdinfer.core import (
    CategoryScheme,
    CountVector,
    DirichletParams,
    InputError,
    ResponseRecord,
    SoftLabel,
    TaskRecord,
    attach_responses,
    config_hash,
    empirical_soft_label,
    json_ready,
    read_alpha_records,
    read_responses,
    read_scheme,
    read_tasks,
    round_sig,
    split_dataset,
    tally,
    task_rng,
    write_alpha_records,
    write_responses,
    write_scheme,
    write_tasks,
)


def test_scheme_layout():
    s = CategoryScheme(("no", "yes"))
    assert s.num_proper == 2
    assert s.num_categories == 3
    assert s.cs_index == 2
    assert s.names == ("no", "yes", "cs")


def test_scheme_resolves_names_and_indices():
    s = CategoryScheme(("no", "yes"))
    assert s.index_of("yes") == 1
    assert s.index_of("cs") == 2
    assert s.index_of(0) == 0
    with pytest.raises(InputError):
        s.index_of("maybe")
    with pytest.raises(InputError):
        s.index_of(3)


def test_scheme_rejects_degenerate():
    with pytest.raises(InputError):
        CategoryScheme(())
    with pytest.raises(InputError):
        CategoryScheme(("a", "a"))
    with pytest.raises(InputError):
        CategoryScheme(("cs",))  # collides with the cs name


def test_soft_label_validation():
    q = SoftLabel([0.2, 0.7, 0.1])
    assert q.solvability == pytest.approx(0.9)
    assert np.allclose(q.conditional, [2 / 9, 7 / 9])
    with pytest.raises(InputError):
        SoftLabel([0.5, 0.6, 0.1])
    with pytest.raises(InputError):
        SoftLabel([-0.1, 1.1, 0.0])
    # NaN compares false against the sum tolerance, so it needs its own check
    for bad in ([math.nan, 0.5, 0.5], [math.inf, 0.0, 0.0], [-math.inf, 1.0, 1.0]):
        with pytest.raises(InputError):
            SoftLabel(bad)


def test_soft_label_argmax_ties_break_low():
    assert SoftLabel([0.4, 0.4, 0.2]).argmax() == 0
    assert SoftLabel([0.0, 0.5, 0.5]).argmax() == 1  # cs loses the tie


def test_dirichlet_params_positive():
    with pytest.raises(InputError):
        DirichletParams([1.0, 0.0, 1.0])
    with pytest.raises(InputError):
        DirichletParams([1.0, math.inf])
    p = DirichletParams([2.0, 3.0])
    assert p.alpha_sum == pytest.approx(5.0)


def test_tally_counts_per_category():
    s = CategoryScheme(("no", "yes"))
    responses = [ResponseRecord("t1", a) for a in (1, 1, 0, 2, 1)]
    c = tally(responses, s)
    assert c.counts.tolist() == [1, 3, 1]
    assert c.total == 5


def test_tally_rejects_out_of_range():
    s = CategoryScheme(("no", "yes"))
    with pytest.raises(InputError, match="t9"):
        tally([ResponseRecord("t9", 5)], s)


def test_empirical_soft_label():
    q = empirical_soft_label(CountVector([1, 3, 0]))
    assert np.allclose(q.q, [0.25, 0.75, 0.0])
    with pytest.raises(ValueError):
        empirical_soft_label(CountVector([0, 0, 0]))


def test_task_rng_deterministic_and_decorrelated():
    a1 = task_rng(0, "t1").normal(size=4)
    a2 = task_rng(0, "t1").normal(size=4)
    b = task_rng(0, "t2").normal(size=4)
    c = task_rng(1, "t1").normal(size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_split_partitions_all_tasks():
    tasks = [TaskRecord(f"t{i}") for i in range(100)]
    split = split_dataset(tasks, (0.8, 0.1, 0.1), seed=0)
    ids = {t.task_id for t in tasks}
    assert split.train | split.val | split.test == ids
    assert len(split.train) == 80 and len(split.val) == 10 and len(split.test) == 10


def test_split_deterministic_but_seed_sensitive():
    tasks = [TaskRecord(f"t{i}") for i in range(50)]
    s1 = split_dataset(tasks, seed=3)
    s2 = split_dataset(tasks, seed=3)
    s3 = split_dataset(tasks, seed=4)
    assert s1 == s2
    assert s1 != s3


def test_split_keeps_groups_whole():
    tasks = [TaskRecord(f"g{i % 7}/t{i}") for i in range(70)]
    split = split_dataset(tasks, group_key=lambda t: t.task_id.split("/")[0], seed=1)
    for part in (split.train, split.val, split.test):
        groups = {tid.split("/")[0] for tid in part}
        for g in groups:
            members = {t.task_id for t in tasks if t.task_id.startswith(g + "/")}
            assert members <= part


def test_split_rejects_bad_ratios():
    tasks = [TaskRecord(f"t{i}") for i in range(10)]
    with pytest.raises(InputError):
        split_dataset(tasks, (0.5, 0.5, 0.5))
    with pytest.raises(InputError):
        split_dataset(tasks[:2])


def test_round_sig_and_json_ready():
    assert round_sig(1.23456789012345) == 1.23456789
    assert round_sig(0.0) == 0.0
    assert json_ready({"a": math.inf, "b": np.float64(2.0), "c": [np.int64(3)]}) == {
        "a": None,
        "b": 2.0,
        "c": [3],
    }


def test_config_hash_stable_under_key_order():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_scheme_file_round_trip(tmp_path):
    s = CategoryScheme(("no", "yes"), "cant")
    path = tmp_path / "scheme.json"
    write_scheme(path, s)
    assert read_scheme(path) == s


def test_tasks_file_round_trip(tmp_path):
    tasks = [
        TaskRecord("t1", np.array([0.5, -1.0]), SoftLabel([0.2, 0.8, 0.0])),
        TaskRecord("t2", np.array([1.5, 2.0]), None),
    ]
    path = tmp_path / "tasks.jsonl"
    write_tasks(path, tasks)
    back = read_tasks(path)
    assert [t.task_id for t in back] == ["t1", "t2"]
    assert np.allclose(back[0].features, [0.5, -1.0])
    assert np.allclose(back[0].true_q.q, [0.2, 0.8, 0.0])
    assert back[1].true_q is None


def test_read_tasks_reports_line_numbers(tmp_path):
    path = tmp_path / "tasks.jsonl"
    path.write_text('{"task_id": "t1"}\n{"features": [1.0]}\n')
    with pytest.raises(InputError, match=":2"):
        read_tasks(path)


def test_read_tasks_rejects_ragged_features(tmp_path):
    path = tmp_path / "tasks.jsonl"
    path.write_text(
        '{"task_id": "t1", "features": [1.0, 2.0]}\n'
        '{"task_id": "t2", "features": [1.0]}\n'
    )
    with pytest.raises(InputError, match="dimension"):
        read_tasks(path)


def test_responses_round_trip_by_name_and_index(tmp_path):
    s = CategoryScheme(("no", "yes"))
    path = tmp_path / "responses.jsonl"
    write_responses(path, [ResponseRecord("t1", 1, "ann7"), ResponseRecord("t1", 2)], s)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["answer"] == "yes"
    back = read_responses(path, s)
    assert [r.answer for r in back] == [1, 2]
    assert back[0].annotator_id == "ann7"
    # integer answers are accepted on read as well
    path.write_text('{"task_id": "t1", "answer": 0}\n')
    assert read_responses(path, s)[0].answer == 0


def test_attach_responses_rejects_orphans():
    tasks = [TaskRecord("t1")]
    with pytest.raises(InputError, match="t2"):
        attach_responses(tasks, [ResponseRecord("t2", 0)])
    attach_responses(tasks, [ResponseRecord("t1", 0)])
    assert tasks[0].n_responses == 1


def test_alpha_records_round_trip(tmp_path):
    path = tmp_path / "posteriors.jsonl"
    write_alpha_records(path, [("t1", DirichletParams([1.0, 21.0, 1.0]), 20)])
    back = read_alpha_records(path, 3)
    assert set(back) == {"t1"}
    assert np.allclose(back["t1"][0].alpha, [1, 21, 1])
    assert back["t1"][1] == 20


def test_alpha_records_bad_line(tmp_path):
    path = tmp_path / "posteriors.jsonl"
    path.write_text('{"task_id": "t1", "alpha": [1.0, -1.0], "n": 0}\n')
    with pytest.raises(InputError, match=":1"):
        read_alpha_records(path, 2)
    path.write_text('{"task_id": "t1", "alpha": [1.0, 1.0], "n": 0}\n'
                    '{"task_id": "t2", "alpha": [1.0, 1.0, 1.0], "n": 0}\n')
    with pytest.raises(InputError, match=":2: 3 alpha components for a scheme of 2"):
        read_alpha_records(path, 2)
