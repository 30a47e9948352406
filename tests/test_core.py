import gc
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdinfer import core
from crowdinfer.core import (
    CategoryScheme,
    DirichletParams,
    InputError,
    Responses,
    SoftLabel,
    TaskTable,
    attach_responses,
    config_hash,
    count_matrix,
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


def test_check_soft_labels_messages_and_shapes():
    """One label, a 0-d value and a matrix take the same checks; a sum is
    printed as a plain float."""
    with pytest.raises(InputError, match=re.escape("does not sum to 1: [0.5 0.5 0.1] (sum 1.1)")):
        core.check_soft_labels([0.5, 0.5, 0.1])
    with pytest.raises(InputError, match=re.escape("does not sum to 1: [0.5] (sum 0.5)")):
        core.check_soft_labels(0.5)
    with pytest.raises(InputError, match=re.escape("negative or NaN components: [-1.]")):
        core.check_soft_labels(-1.0)
    with pytest.raises(InputError, match=re.escape("does not sum to 1: [] (sum 0.0)")):
        core.check_soft_labels([])
    with np.errstate(over="raise"):   # no overflow warning either
        with pytest.raises(InputError, match=re.escape("(sum inf)")):
            core.check_soft_labels([1e308, 1e308, 0.0])
    assert core.check_soft_labels(1.0).shape == ()
    rows = [[[0.5, 0.5]], [[0.25, 0.75]]]
    assert core.check_soft_labels(rows).shape == (2, 1, 2)
    rows[1][0][1] = 0.5
    with pytest.raises(InputError, match=re.escape("[0.25 0.5 ] (sum 0.75)")):
        core.check_soft_labels(rows)


def test_check_size_refuses_past_the_limit():
    core.check_size("x", core.MAX_VALUES // 7, 7, "rows of 7")
    with pytest.raises(InputError, match=re.escape(
            f"x = {core.MAX_VALUES // 7 + 1}: rows of 7 would hold more than the limit of "
            f"{core.MAX_VALUES} values")):
        core.check_size("x", core.MAX_VALUES // 7 + 1, 7, "rows of 7")
    with pytest.raises(InputError, match=re.escape("x = 100000000000000000...00000000")):
        core.check_size("x", 10**400, 1, "values")


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


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                -1.0, 1.0, 1e308, -1e308]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.tuples(st.integers(0, 20)), st.tuples(st.integers(0, 4), st.integers(0, 5)))
       .flatmap(lambda shape: st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(),
                                       min_size=math.prod(shape), max_size=math.prod(shape))
                .map(lambda values: np.array(values, dtype=float).reshape(shape))))
def test_positive_finite_equals_elementwise_test(x):
    assert core.positive_finite(x) is bool((np.isfinite(x) & (x > 0)).all())


def test_tally_counts_per_category():
    s = CategoryScheme(("no", "yes"))
    c = tally([1, 1, 0, 2, 1], s)
    assert c.dtype == np.int64 and c.tolist() == [1, 3, 1]
    assert c.sum() == 5


def test_tally_rejects_out_of_range():
    s = CategoryScheme(("no", "yes"))
    with pytest.raises(InputError, match="invalid category index 5"):
        tally(np.array([0, 5]), s)


def test_empirical_soft_label():
    q = empirical_soft_label(np.array([1, 3, 0]))
    assert np.allclose(q.q, [0.25, 0.75, 0.0])
    with pytest.raises(ValueError):
        empirical_soft_label(np.array([0, 0, 0]))


def test_task_rng_deterministic_and_decorrelated():
    a1 = task_rng(0, "t1").normal(size=4)
    a2 = task_rng(0, "t1").normal(size=4)
    b = task_rng(0, "t2").normal(size=4)
    c = task_rng(1, "t1").normal(size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_split_partitions_all_tasks():
    ids = [f"t{i}" for i in range(100)]
    labels = split_dataset(ids, (0.8, 0.1, 0.1), seed=0)
    assert labels.shape == (100,)
    assert np.bincount(labels).tolist() == [80, 10, 10]


def test_split_deterministic_but_seed_sensitive():
    ids = [f"t{i}" for i in range(50)]
    s1 = split_dataset(ids, seed=3)
    s2 = split_dataset(ids, seed=3)
    s3 = split_dataset(ids, seed=4)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, s3)


def test_split_keeps_groups_whole():
    ids = [f"g{i % 7}/t{i}" for i in range(70)]
    labels = split_dataset(ids, group_key=lambda tid: tid.split("/")[0], seed=1)
    for g in range(7):
        assert len(set(labels[g::7].tolist())) == 1


def _split_oracle(task_ids, ratios=(0.8, 0.1, 0.1), group_key=None, seed=0):
    """The split as three frozensets of ids, assigned one group at a time."""
    groups: dict = {}
    for tid in task_ids:
        groups.setdefault(group_key(tid) if group_key is not None else tid, []).append(tid)
    group_names = sorted(groups)
    if len(group_names) < 3:
        raise InputError(f"need at least 3 groups to split, got {len(group_names)}")
    order = np.random.default_rng(seed).permutation(len(group_names))
    # largest-remainder apportionment of the groups
    raw = [r * len(group_names) for r in ratios]
    quotas = [math.floor(x) for x in raw]
    short = len(group_names) - sum(quotas)
    for i in sorted(range(3), key=lambda i: raw[i] - quotas[i], reverse=True)[:short]:
        quotas[i] += 1
    assigned: list = [[], [], []]
    cursor = 0
    for split_idx, quota in enumerate(quotas):
        for _ in range(quota):
            assigned[split_idx].extend(groups[group_names[order[cursor]]])
            cursor += 1
    return [frozenset(ids) for ids in assigned]


_GROUP_KEYS = {"none": None, "first character": lambda tid: tid[:1],
               "NUL-stripped": lambda tid: tid.rstrip("\x00")}


@settings(max_examples=400, deadline=None)
@given(ids=st.lists(st.text(alphabet="ab\x00", max_size=4), max_size=60),
       group_key=st.sampled_from(sorted(_GROUP_KEYS)),
       ratios=st.sampled_from([(0.8, 0.1, 0.1), (0.7, 0.2, 0.1), (1 / 3, 1 / 3, 1 / 3)])
       | st.tuples(*[st.integers(1, 20)] * 3).map(lambda w: tuple(x / sum(w) for x in w)),
       seed=st.integers(0, 2**32 - 1))
def test_split_labels_equal_frozenset_oracle(ids, group_key, ratios, seed):
    # ids differing only by trailing NULs, and repeated ids, are common here
    key = _GROUP_KEYS[group_key]
    try:
        want = _split_oracle(ids, ratios, key, seed)
    except InputError as exc:
        with pytest.raises(InputError, match=re.escape(str(exc))):
            split_dataset(ids, ratios, key, seed)
        return
    labels = split_dataset(ids, ratios, key, seed)
    assert labels.shape == (len(ids),)
    assert labels.tolist() == [next(j for j in range(3) if tid in want[j]) for tid in ids]


def test_split_rejects_bad_ratios():
    ids = [f"t{i}" for i in range(10)]
    with pytest.raises(InputError):
        split_dataset(ids, (0.5, 0.5, 0.5))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="ratios must be positive"):
            split_dataset(ids, (bad, 0.5, 0.5))
    with pytest.raises(InputError):
        split_dataset(ids[:2])


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
    table = TaskTable(["t1", "t2", "t3"], np.array([[0.5, -1.0], [1.5, 2.0], [0.0, 0.0]]),
                      np.array([True, True, False]),
                      np.array([[0.2, 0.8, 0.0], [0.0, 0.0, 0.0], [0.1, 0.1, 0.8]]),
                      np.array([True, False, True]))
    assert len(table) == 3
    path = tmp_path / "tasks.jsonl"
    write_tasks(path, table)
    assert json.loads(path.read_text().splitlines()[2]) == {"task_id": "t3",
                                                            "true_q": [0.1, 0.1, 0.8]}
    back = read_tasks(path)
    for column in ("features", "has_features", "true_q", "has_true_q"):
        assert np.array_equal(getattr(back, column), getattr(table, column)), column
    assert back.task_ids == table.task_ids


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
    write_responses(path, ["t1"], [np.array([1, 2])], s)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["answer"] == "yes"
    back = read_responses(path, s)
    assert back.answers.tolist() == [1, 2]
    # a record carrying an annotator_id is accepted (and the id ignored)
    path.write_text('{"task_id": "t1", "answer": "no", "annotator_id": "ann7"}\n')
    assert read_responses(path, s).answers.tolist() == [0]
    # integer answers are accepted on read as well
    path.write_text('{"task_id": "t1", "answer": 0}\n')
    assert read_responses(path, s).answers[0] == 0


def _responses(pairs, path="responses.jsonl"):
    """Responses columns of (task_id, answer) pairs on lines 1, 2, ..."""
    return Responses(path, [tid for tid, _ in pairs], np.arange(1, len(pairs) + 1),
                     np.array([a for _, a in pairs], dtype=np.int64))


def test_attach_responses_rejects_orphans():
    with pytest.raises(InputError, match="t2"):
        attach_responses(["t1"], _responses([("t2", 0)]))
    assert [a.tolist() for a in attach_responses(["t1"], _responses([("t1", 0)]))] == [[0]]


def test_scheme_rejects_bool_and_float_answers():
    s = CategoryScheme(("no", "yes"))
    for bad in (True, False, 1.9, 1.0, None, [1]):
        with pytest.raises(InputError, match="must be a category name or an integer index"):
            s.index_of(bad)
    assert s.index_of(np.int64(2)) == 2


@pytest.mark.parametrize("answer", ["true", "false", "1.9", "1.0", "null", "[1]", '{"a": 1}'])
def test_read_responses_rejects_bool_and_float_answers(tmp_path, answer):
    path = tmp_path / "responses.jsonl"
    path.write_text('{"task_id": "t1", "answer": "yes"}\n'
                    f'{{"task_id": "t1", "answer": {answer}}}\n')
    want = (f":2: bad response record: answer must be a category name or an integer index, "
            f"got {json.loads(answer)!r}")
    with pytest.raises(InputError, match=re.escape(want)):
        read_responses(path, CategoryScheme(("no", "yes")))


def test_attach_responses_groups_in_file_order(tmp_path):
    path = tmp_path / "responses.jsonl"
    path.write_text('{"task_id": "b", "answer": 1}\n{"task_id": "a", "answer": "cs"}\n\n'
                    '{"task_id": "b", "answer": 0}\n{"task_id": "a", "answer": "yes"}\n')
    responses = read_responses(path, CategoryScheme(("no", "yes")))
    assert len(responses) == 4 and responses.lines.tolist() == [1, 2, 4, 5]
    tasks = ["a", "b", "c"]
    assert [a.tolist() for a in attach_responses(tasks, responses)] == [[2, 1], [1, 0], []]
    path.write_text('{"task_id": "a", "answer": 1}\n\n{"task_id": "ghost", "answer": 1}\n'
                    '{"task_id": "ghost2", "answer": 1}\n')
    with pytest.raises(InputError, match=re.escape(
            ":3: response references unknown task 'ghost'")):
        attach_responses(tasks, read_responses(path, CategoryScheme(("no", "yes"))))


def _attach_oracle(task_ids, pairs):
    """Per-response grouping: each task's answers in the order they come."""
    grouped = {tid: [] for tid in task_ids}
    for tid, answer in pairs:
        grouped[tid].append(answer)
    return [grouped[tid] for tid in task_ids]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 4)), max_size=60))))
def test_attach_responses_equals_per_response_grouping(case):
    n, pairs = case
    task_ids = [f"t{i}" for i in range(n)]
    got = attach_responses(task_ids, _responses([(f"t{i}", a) for i, a in pairs]))
    assert [a.tolist() for a in got] == _attach_oracle(task_ids, [
        (f"t{i}", a) for i, a in pairs])
    assert all(a.dtype == np.int64 for a in got)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                                       st.integers(0, k - 1)),
                                             max_size=60 if n else 0))))))
def test_count_matrix_equals_per_task_tally(case):
    k, (n, pairs) = case
    scheme = CategoryScheme(tuple(f"c{i}" for i in range(k - 1)))
    task_ids = [f"t{i}" for i in range(n)]
    responses = _responses([(f"t{i}", a) for i, a in pairs])
    got = count_matrix(task_ids, responses, k)
    want = np.array([tally(a, scheme) for a in attach_responses(task_ids, responses)],
                    dtype=np.int64).reshape(n, k)
    assert got.dtype == np.int64 and got.shape == (n, k)
    assert got.tobytes() == want.tobytes()


def test_count_matrix_reports_orphans_like_attach_responses():
    for pairs in ([("ghost", 0)], [("t1", 1), ("t0", 0), ("ghost", 2), ("ghost2", 1)]):
        responses = _responses(pairs)
        with pytest.raises(InputError) as want:
            attach_responses(["t0", "t1"], responses)
        with pytest.raises(InputError) as got:
            count_matrix(["t0", "t1"], responses, 3)
        assert str(got.value) == str(want.value)
        assert "response references unknown task 'ghost'" in str(got.value)
    with pytest.raises(InputError, match="category index out of range"):
        count_matrix(["t0"], _responses([("t0", 3)]), 3)


def _tally_oracle(answers, k):
    counts = np.zeros(k, dtype=np.int64)
    for a in answers:
        if not 0 <= a < k:
            raise InputError(f"invalid category index {a}")
        counts[a] += 1
    return counts


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(-2, k + 1), max_size=40))))
def test_tally_equals_counting_loop(case):
    k, answers = case
    scheme = CategoryScheme(tuple(f"c{i}" for i in range(k - 1)))
    try:
        want = _tally_oracle(answers, k)
    except InputError:
        for given_answers in (answers, np.array(answers, dtype=np.int64)):
            with pytest.raises(InputError, match="invalid category index"):
                tally(given_answers, scheme)
        return
    for given_answers in (answers, np.array(answers, dtype=np.int64)):
        got = tally(given_answers, scheme)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_tally_rejects_non_integer_answers():
    s = CategoryScheme(("no", "yes"))
    for bad in (np.array([1.0]), np.array([True]), ["yes"]):
        with pytest.raises(InputError, match="integer category indices"):
            tally(bad, s)


def _task_id_oracle(value) -> str:
    """A record's task_id as the readers take it: a string as it is, an
    integer as its decimal string; any other value is refused."""
    if type(value) is str:
        return value
    if type(value) is int:
        return str(value)
    raise TypeError(f"task_id must be a string or an integer, got {json.dumps(value)}")


def _read_responses_oracle(path, scheme):
    """The per-record responses reader, as (task_id, answer index) pairs."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                out.append((_task_id_oracle(rec["task_id"]), scheme.index_of(rec["answer"])))
            except (KeyError, ValueError, TypeError) as exc:
                raise InputError(f"{path}:{lineno}: bad response record: {exc}") from exc
    return out


def _responses_outcome(read, path, scheme):
    """The reader's error message, or its task ids and answers."""
    try:
        got = read(path, scheme)
    except InputError as exc:
        return f"InputError: {exc}"
    if isinstance(got, list):
        return [tid for tid, _ in got], [a for _, a in got]
    assert got.answers.dtype == np.int64 and len(got) == len(got.lines)
    return got.task_ids, got.answers.tolist()


def _response_line(kind, tid, answer, names):
    """One responses-file line of the given kind (no newline)."""
    good = json.dumps({"task_id": tid, "answer": names[answer]})
    return {
        "name": good,
        "index": json.dumps({"task_id": tid, "answer": answer}),
        "annotated": json.dumps({"task_id": tid, "answer": names[answer], "annotator_id": "a1"}),
        "int_id": json.dumps({"task_id": answer, "answer": answer}),
        "compact": json.dumps({"answer": names[answer], "task_id": tid}, separators=(",", ":")),
        "json_space": f" \t{good}\t \r",
        "blank": "",
        "spaces": "  \t ",
        "vt_blank": "\x0b \x0c",
        "nbsp_blank": "\xa0",
        "vt_pad": f"\x0b{good}",
        "vt_tail": f"{good}\x0b",
        "nbsp_pad": f"\xa0{good}",
        "bom": f"\ufeff{good}",
        "extra": good + ' {"x": 1}',
        "trailing_comma": good + ",",
        "bad_json": "{oops",
        "truncated": good[:-3],
        "array": json.dumps([tid, answer]),
        "scalar": "7",
        "null_record": "null",
        "no_task": json.dumps({"answer": names[answer]}),
        "no_answer": json.dumps({"task_id": tid}),
        "unknown": json.dumps({"task_id": tid, "answer": "maybe?"}),
        "range": json.dumps({"task_id": tid, "answer": len(names) + answer}),
        "negative": json.dumps({"task_id": tid, "answer": -1 - answer}),
        "bool": json.dumps({"task_id": tid, "answer": answer % 2 == 1}),
        "float": json.dumps({"task_id": tid, "answer": answer + 0.5}),
        "integral_float": json.dumps({"task_id": tid, "answer": float(answer)}),
        "nan": '{"task_id": "t", "answer": NaN}',
        "list_answer": json.dumps({"task_id": tid, "answer": [answer]}),
        "null_answer": json.dumps({"task_id": tid, "answer": None}),
        "null_id": json.dumps({"task_id": None, "answer": names[answer]}),
        "bool_id": json.dumps({"task_id": answer % 2 == 0, "answer": names[answer]}),
        "float_id": json.dumps({"task_id": answer + 0.5, "answer": names[answer]}),
        "list_id": json.dumps({"task_id": [tid], "answer": names[answer]}),
        "object_id": json.dumps({"task_id": {"id": tid}, "answer": names[answer]}),
        "null_id_no_answer": json.dumps({"task_id": None}),
    }[kind]


_GOOD_LINES = ["name", "index", "annotated", "int_id", "compact", "json_space", "blank",
               "spaces", "vt_blank", "nbsp_blank"]
_BAD_LINES = ["vt_pad", "vt_tail", "nbsp_pad", "bom", "extra", "trailing_comma", "bad_json",
              "truncated", "array", "scalar", "null_record", "no_task", "no_answer", "unknown",
              "range", "negative", "bool", "float", "integral_float", "nan", "list_answer",
              "null_answer", "null_id", "bool_id", "float_id", "list_id", "object_id",
              "null_id_no_answer"]


@st.composite
def _response_files(draw):
    k = draw(st.integers(2, 5))
    names = tuple(f"c{i}" for i in range(k - 1)) + ("cs",)
    kinds = st.sampled_from(_GOOD_LINES) | st.sampled_from(_BAD_LINES)
    good_only = draw(st.booleans())
    lines = draw(st.lists(
        st.tuples(st.sampled_from(_GOOD_LINES) if good_only else kinds,
                  st.sampled_from(["t0", "t1", "t2", 'q"\\ü']), st.integers(0, k - 1)),
        max_size=25))
    return names, [_response_line(kind, tid, a, names) for kind, tid, a in lines]


@settings(max_examples=400, deadline=None)
@given(_response_files())
def test_responses_reader_equals_per_record_oracle(tmp_path_factory, case):
    names, lines = case
    scheme = CategoryScheme(names[:-1], names[-1])
    path = tmp_path_factory.mktemp("responses") / "responses.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    want = _responses_outcome(_read_responses_oracle, path, scheme)
    assert _responses_outcome(read_responses, path, scheme) == want


def test_responses_reader_reports_each_fault_like_the_oracle(tmp_path):
    names = ("no", "yes", "cs")
    scheme = CategoryScheme(names[:-1])
    path = tmp_path / "responses.jsonl"
    for kind in _BAD_LINES:
        lines = [_response_line("name", "t0", 1, names), _response_line(kind, "t1", 1, names),
                 _response_line("bad_json", "t2", 0, names)]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        message = _responses_outcome(_read_responses_oracle, path, scheme)
        assert isinstance(message, str) and "responses.jsonl:2: bad response record" in message
        assert _responses_outcome(read_responses, path, scheme) == message, kind


# ---------------------------------------------------------------------------
# The block decoder of _scan against the per-line scanner
# ---------------------------------------------------------------------------

def _scan_oracle(path, pick, width, what):
    """The per-line scanner: each line decoded and picked on its own.  A line
    that is not UTF-8 is decoded on its own, for the decoder's message."""
    columns = [[] for _ in range(width)]
    lines = []
    stop = None
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip(" \t\n\r")
            try:
                value, end = core._scan_once(text, 0)
            except (StopIteration, ValueError):
                end = -1
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
                if end != len(text):
                    if not line.strip():
                        continue
                    value = json.loads(line)
                for column, values in zip(columns, pick([value])):
                    column.extend(values)
            except (KeyError, ValueError, TypeError) as exc:
                stop = (lineno, f"bad {what}: {exc}")
                break
            lines.append(lineno)
    return np.array(lines, dtype=np.int64), columns, stop


def _reader_outcomes(path, names):
    """What read_responses, read_tasks and read_alpha_records make of
    the file: an InputError's message, or the columns they return."""
    scheme = CategoryScheme(names[:-1], names[-1])
    readers = [
        lambda: read_responses(path, scheme),
        lambda: read_tasks(path),
        lambda: read_alpha_records(path, len(names)),
    ]
    out = []
    for read in readers:
        try:
            got = read()
        except InputError as exc:
            out.append(f"InputError: {exc}")
            continue
        columns = {k: v for k, v in vars(got).items() if k not in ("path", "_row")}
        out.append({k: (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
                    for k, v in columns.items()})
    return out


def _assert_blocks_read_like_lines(path, names, size):
    with mock.patch.object(core, "_scan", _scan_oracle):
        want = _reader_outcomes(path, names)
    with mock.patch.object(core, "_BLOCK_LINES", size):
        assert _reader_outcomes(path, names) == want


# Lines beyond the responses kinds: task and alpha records (with and without
# a "["), an answer that is an object, and a record merged from two lines
# (merge_a then merge_b), with and without a "[".
_OTHER_LINES = {
    "task": '{"task_id": "t5", "features": [0.5, -1.0], "true_q": [0.25, 0.75]}',
    "bare_task": '{"task_id": "t6"}',
    "null_id_task": '{"task_id": null, "features": [0.5, -1.0], "true_q": [2.0]}',
    "bool_id_alpha": '{"task_id": true, "alpha": [1.5, -2.0, 0.5]}',
    "alpha": '{"task_id": "t7", "alpha": [1.5, 2.0, 0.5], "n": 4}',
    "scalar_alpha": '{"task_id": "t8", "alpha": 3.0, "n": 1}',
    "object_answer": '{"task_id": "t0", "answer": {"c0": 1}}',
    "merge_a": '{"task_id": "t0", "answer": "c0", "x": {"y": 1',
    "merge_b": '"z": 2}}',
    "array_merge_a": '{"task_id": "t0", "answer": "c0", "x": [{"y": 1}',
    "array_merge_b": '{"z": 2}]}',
    "brace_merge_a": '{"task_id": "t0", "answer": "c0", "x": {"y": 1}',
    "brace_merge_b": '{"z": 2}}',
    "split": '{"task_id": "t1", "answer": "c1"}, {"task_id": "t2", "answer": 0}',
    # written as the byte 0xff, which no UTF-8 text holds
    "undecodable": '{"task_id": "t\udcff", "answer": "c0"}',
}


def _line(kind, tid, answer, names):
    if kind in _OTHER_LINES:
        return _OTHER_LINES[kind]
    return _response_line(kind, tid, answer, names)


def _write_lines(path, lines, ending="\n", final=True):
    text = ending.join(lines) + (ending if final and lines else "")
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


_NAMES = ("c0", "c1", "cs")


def test_decode_block_takes_only_one_object_per_line():
    decode = core._decode_block
    assert decode(['{"a": 1}\n', '{"b": "x"}\n', '{"c": {"d": null}}']) == [
        {"a": 1}, {"b": "x"}, {"c": {"d": None}}]
    assert decode(['{"a": 1} \t\n', '{"b": 2}\n']) == [{"a": 1}, {"b": 2}]
    for block in (['{"a": 1}\n', ' {"b": 2}\n'], ['\n', '{"a": 1}\n'],
                  ['{"a": [1]}\n', '{"b": 2}\n'], ['{"a": 1}\n', '{"b": "["}\n'],
                  ['{"a": {"b": 1\n', '"c": 2}}\n', '{"d": 1}, {"e": 2}\n'],
                  ['{"a": [{"b": 1}\n', '{"c": 2}]}\n', '{"d": 1}, {"e": 2}\n'],
                  ['{"a": 1}\n', '{"b": 2},\n'], ['{"a": 1}\x0b\n'], ['{oops\n'],
                  ['{"a": 1} {"b": 2}\n']):
        assert decode(block) is None, block


@pytest.mark.parametrize("kind", _GOOD_LINES + _BAD_LINES + list(_OTHER_LINES))
def test_block_reader_equals_per_line_oracle_at_block_edges(tmp_path, kind):
    """Each kind of line as the first or the last line of a block, in files
    whose other lines are good, so the blocks around it decode whole."""
    path = tmp_path / "responses.jsonl"
    for size in range(2, 6):
        for at in (0, size - 1, size, 2 * size - 1, 2 * size):
            lines = [_response_line("name", f"t{i % 3}", i % 3, _NAMES)
                     for i in range(2 * size + 1)]
            lines[at] = _line(kind, "t1", 1, _NAMES)
            for ending, final in (("\n", True), ("\r\n", True), ("\n", False)):
                _write_lines(path, lines, ending, final)
                _assert_blocks_read_like_lines(path, _NAMES, size)


def test_block_reader_refuses_merged_and_split_lines(tmp_path):
    """Two lines that join into one value and a line of two values: the
    block holds as many values as lines, and only the line rule refuses it."""
    path = tmp_path / "responses.jsonl"
    good = _response_line("name", "t0", 0, _NAMES)
    for a, b in (("merge_a", "merge_b"), ("array_merge_a", "array_merge_b"),
                 ("brace_merge_a", "brace_merge_b")):
        lines = [good, _OTHER_LINES[a], _OTHER_LINES[b], _OTHER_LINES["split"], good]
        _write_lines(path, lines)
        for size in (4, 5, 1024):
            _assert_blocks_read_like_lines(path, _NAMES, size)
        message = _reader_outcomes(path, _NAMES)[0]
        assert message.startswith(f"InputError: {path}:2: bad response record: ")


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 5), st.lists(st.tuples(
    st.sampled_from(_GOOD_LINES * 4 + _BAD_LINES + list(_OTHER_LINES)),
    st.sampled_from(["t0", "t1", "t2", 'q"\\ü']), st.integers(0, 2)), max_size=24),
    st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_block_reader_equals_per_line_oracle(tmp_path_factory, size, kinds, ending, final):
    path = tmp_path_factory.mktemp("blocks") / "records.jsonl"
    _write_lines(path, [_line(kind, tid, a, _NAMES) for kind, tid, a in kinds], ending, final)
    _assert_blocks_read_like_lines(path, _NAMES, size)


@pytest.mark.parametrize("fault", [None, 2400, 2600])
def test_undecodable_line_is_reported_at_its_line(tmp_path, fault):
    """A line that is not UTF-8 in the third block, alone or after or before
    a line that is not JSON: the earlier line is reported, with its line."""
    path = tmp_path / "responses.jsonl"
    lines = [_response_line("name", f"t{i % 3}", i % 3, _NAMES) for i in range(3000)]
    lines[2499] = _OTHER_LINES["undecodable"]
    if fault:
        lines[fault - 1] = "{oops"
    _write_lines(path, lines)
    _assert_blocks_read_like_lines(path, _NAMES, core._BLOCK_LINES)
    line = fault if fault == 2400 else 2500
    assert _reader_outcomes(path, _NAMES)[0].startswith(
        f"InputError: {path}:{line}: bad response record: ")


def test_reading_leaves_the_collector_as_it_was(tmp_path):
    path = tmp_path / "responses.jsonl"
    scheme = CategoryScheme(("no", "yes"))
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            for text in ('{"task_id": "t0", "answer": "yes"}\n', '{"task_id": "t0"}\n', None):
                if text is None:
                    path.unlink()   # open fails inside the pause
                else:
                    path.write_text(text)
                try:
                    read_responses(path, scheme)
                except (InputError, FileNotFoundError):
                    pass
                assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()


def test_response_ids_are_one_string_per_task(tmp_path):
    path = tmp_path / "responses.jsonl"
    ids = [f"t{i % 37}" for i in range(3 * core._BLOCK_LINES + 5)]
    lines = [json.dumps({"task_id": tid, "answer": "yes"}) for tid in ids]
    lines[core._BLOCK_LINES + 3] = " " + lines[core._BLOCK_LINES + 3]   # one block line by line
    path.write_text("".join(line + "\n" for line in lines))
    got = read_responses(path, CategoryScheme(("no", "yes"))).task_ids
    assert got == ids
    assert len({id(tid) for tid in got}) == len(set(got))


def _write_responses_oracle(path, task_answers, scheme):
    """The per-record responses writer: json.dumps of each record."""
    names = scheme.names
    with open(path, "w") as fh:
        for task_id, answers in task_answers:
            for a in answers:
                fh.write(json.dumps({"task_id": task_id, "answer": names[a]}) + "\n")


_awkward_text = st.text(st.sampled_from('ab"\\/\n\t\x00\x7fé€😀 ,:{}'), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(_awkward_text, min_size=2, max_size=5, unique=True).flatmap(
    lambda names: st.tuples(st.just(names), st.lists(st.tuples(
        _awkward_text, st.lists(st.integers(0, len(names) - 1), max_size=8)), max_size=6))))
def test_templated_writer_equals_per_record_writer(tmp_path_factory, case):
    names, task_answers = case
    scheme = CategoryScheme(tuple(names[:-1]), names[-1])
    ids = [tid for tid, _ in task_answers]
    rows = [np.array(answers, dtype=np.int64) for _, answers in task_answers]
    folder = tmp_path_factory.mktemp("writer")
    write_responses(folder / "got.jsonl", ids, rows, scheme)
    _write_responses_oracle(folder / "want.jsonl", task_answers, scheme)
    assert (folder / "got.jsonl").read_bytes() == (folder / "want.jsonl").read_bytes()
    back = read_responses(folder / "got.jsonl", scheme)
    assert back.task_ids == [tid for tid, answers in task_answers for _ in answers]
    assert back.answers.tolist() == [a for _, answers in task_answers for a in answers]


def test_writer_rejects_answers_outside_the_scheme(tmp_path):
    s = CategoryScheme(("no", "yes"))
    path = tmp_path / "responses.jsonl"
    for bad in (-1, 3, 7):
        rows = [np.array([0, 2]), np.array([1, bad, 0])]
        with pytest.raises(InputError, match=f"task 't1': invalid category index {bad}$"):
            write_responses(path, ["t0", "t1"], rows, s)
        with pytest.raises(InputError, match=f"task 't1': invalid category index {bad}$"):
            write_responses(path, ["t0", "t1"], np.array([[0, 2], [bad, 0]]), s)
    for bad in (np.array([1.0]), np.array([True])):
        with pytest.raises(InputError, match="task 't0': answers are (float64|bool), not integers"):
            write_responses(path, ["t0"], [bad], s)
    with pytest.raises(InputError, match="1 answer rows for 2 task ids"):
        write_responses(path, ["t0", "t1"], [np.array([0])], s)
    write_responses(path, ["t0"], [[]], s)
    assert path.read_text() == ""
    write_responses(path, ["t0", "t1"], np.zeros((2, 0), dtype=np.int64), s)
    assert path.read_text() == ""


def test_alpha_records_round_trip(tmp_path):
    path = tmp_path / "posteriors.jsonl"
    write_alpha_records(path, ["t1"], np.array([[1.0, 21.0, 1.0]]), np.array([20]))
    back = read_alpha_records(path, 3)
    assert back.task_ids == ["t1"] and len(back) == 1 and "t1" in back
    assert back.alpha.tolist() == [[1.0, 21.0, 1.0]]
    assert back.n.tolist() == [20]


def _write_alpha_records_oracle(path, records):
    """The per-record alpha writer: json.dumps of each record's dict."""
    with open(path, "w") as fh:
        for task_id, params, n in records:
            fh.write(json.dumps({"task_id": task_id, "alpha": params.alpha.tolist(), "n": n})
                     + "\n")


_alpha_components = (st.floats(5e-324, 1e308)
                     | st.sampled_from([5e-324, 1e-300, 0.1, 1.0, 2.0, 3e16, 1e308]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda k: st.tuples(st.just(k), st.lists(st.tuples(
    _awkward_text, st.lists(_alpha_components, min_size=k, max_size=k),
    st.integers(0, 2**63 - 1)), max_size=8, unique_by=lambda r: r[0]))))
def test_templated_alpha_writer_equals_per_record_writer(tmp_path_factory, case):
    k, rows = case
    records = [(tid, DirichletParams(alpha), n) for tid, alpha, n in rows]
    folder = tmp_path_factory.mktemp("alpha_writer")
    write_alpha_records(folder / "got.jsonl", [tid for tid, _, _ in rows],
                        np.array([alpha for _, alpha, _ in rows]).reshape(-1, k),
                        np.array([n for _, _, n in rows], dtype=np.int64))
    _write_alpha_records_oracle(folder / "want.jsonl", records)
    assert (folder / "got.jsonl").read_bytes() == (folder / "want.jsonl").read_bytes()
    back = read_alpha_records(folder / "got.jsonl", k)
    assert back.task_ids == [tid for tid, _, _ in rows]
    assert back.alpha.reshape(-1).tolist() == [a for _, alpha, _ in rows for a in alpha]
    assert back.n.tolist() == [n for _, _, n in rows]


def test_alpha_records_bad_line(tmp_path):
    path = tmp_path / "posteriors.jsonl"
    path.write_text('{"task_id": "t1", "alpha": [1.0, -1.0], "n": 0}\n')
    with pytest.raises(InputError, match=":1"):
        read_alpha_records(path, 2)
    path.write_text('{"task_id": "t1", "alpha": [1.0, 1.0], "n": 0}\n'
                    '{"task_id": "t2", "alpha": [1.0, 1.0, 1.0], "n": 0}\n')
    with pytest.raises(InputError, match=":2: 3 alpha components for a scheme of 2"):
        read_alpha_records(path, 2)


def test_alpha_records_reject_bad_n(tmp_path):
    path = tmp_path / "posteriors.jsonl"
    good = '{"task_id": "t1", "alpha": [2.0, 1.0], "n": 1}\n'
    for bad in ('"ten"', "-1", "true", "2.5", "null", "[3]"):
        path.write_text(good + f'{{"task_id": "t2", "alpha": [1.0, 1.0], "n": {bad}}}\n')
        want = f":2: bad record: n must be a non-negative integer, got {json.loads(bad)!r}"
        with pytest.raises(InputError, match=re.escape(want)):
            read_alpha_records(path, 2)
    path.write_text(good + '{"task_id": "t2", "alpha": [1.0, 1.0]}\n')
    with pytest.raises(InputError, match=":2: bad record: 'n'"):
        read_alpha_records(path, 2)
    path.write_text(good + '{"task_id": "t2", "alpha": [1.0, 1.0], "n": 0}\n')
    assert read_alpha_records(path, 2).n.tolist() == [1, 0]


# ---------------------------------------------------------------------------
# The columnar alpha reader against the per-record reader it replaced
# ---------------------------------------------------------------------------

def _read_alpha_records_oracle(path, num_categories):
    """Per-record reader: {task_id: (alpha, n)}, raising at the first bad line.

    It validates each record as a DirichletParams, then checks n, the id and
    the length, in that order."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                task_id = _task_id_oracle(rec["task_id"])
                alpha = rec["alpha"]
                # a flat list's first non-number item is refused by itself
                if isinstance(alpha, list) and not any(isinstance(v, list) for v in alpha):
                    for v in alpha:
                        if type(v) not in (int, float):
                            raise TypeError(f"alpha must hold numbers, got {json.dumps(v)}")
                record = (DirichletParams(np.asarray(alpha, dtype=float)), rec["n"])
            except (KeyError, ValueError, TypeError) as exc:
                raise InputError(f"{path}:{lineno}: bad record: {exc}") from exc
            n = record[1]
            if type(n) is not int or n < 0:
                raise InputError(
                    f"{path}:{lineno}: bad record: n must be a non-negative integer, got {n!r}"
                )
            if task_id in out:
                raise InputError(f"{path}:{lineno}: duplicate task_id {task_id!r}")
            if len(record[0]) != num_categories:
                raise InputError(
                    f"{path}:{lineno}: {len(record[0])} alpha components for a scheme "
                    f"of {num_categories} categories"
                )
            out[task_id] = (record[0].alpha, n)
    return out


def _outcome(read, path, k):
    """The reader's error message, or its ids, alpha bytes and n values."""
    try:
        got = read(path, k)
    except InputError as exc:
        return f"InputError: {exc}"
    if isinstance(got, dict):
        return list(got), [a.tobytes() for a, _ in got.values()], [n for _, n in got.values()]
    return got.task_ids, [a.tobytes() for a in got.alpha], got.n.tolist()


_alpha_values = st.floats(1e-6, 1e6) | st.sampled_from([1.0, 0.5, 2.0, 1e-300])


@st.composite
def _alpha_files(draw):
    k = draw(st.integers(2, 6))
    n_rec = draw(st.integers(0, 30))
    records = [
        {"task_id": f"t{i}", "alpha": draw(st.lists(_alpha_values, min_size=k, max_size=k)),
         "n": draw(st.integers(0, 300))}
        for i in range(n_rec)
    ]
    blanks = draw(st.sets(st.integers(0, n_rec)))
    return k, records, blanks


def _write_records(path, records, blanks=()):
    lines = [r if isinstance(r, str) else json.dumps(r) for r in records]
    for i in sorted(blanks, reverse=True):
        lines.insert(i, "  ")
    path.write_text("".join(line + "\n" for line in lines))


@settings(max_examples=150, deadline=None)
@given(_alpha_files())
def test_alpha_reader_equals_per_record_oracle(tmp_path_factory, case):
    k, records, blanks = case
    path = tmp_path_factory.mktemp("alpha") / "posteriors.jsonl"
    _write_records(path, records, blanks)
    got = read_alpha_records(path, k)
    want = _read_alpha_records_oracle(path, k)
    assert got.task_ids == list(want) and len(got) == len(want)
    if want:
        expected = np.stack([alpha for alpha, _ in want.values()])
        assert got.alpha.dtype == expected.dtype and got.alpha.tobytes() == expected.tobytes()
    assert got.n.tolist() == [n for _, n in want.values()]
    blank_lines = {i + j + 1 for j, i in enumerate(sorted(blanks))}
    assert got.lines.tolist() == [i for i in range(1, len(records) + len(blanks) + 1)
                                  if i not in blank_lines]


def _mutate(record, kind, records, i):
    """Record i of records with one fault of the given kind."""
    rec = json.loads(json.dumps(record))
    if kind == "value":
        rec["alpha"][0] = -1.0
    elif kind in ("nan", "inf"):
        rec["alpha"][0] = {"nan": math.nan, "inf": math.inf}[kind]
    elif kind == "string":
        rec["alpha"][-1] = "x"
    elif kind == "length":
        rec["alpha"].append(1.0)
    elif kind == "short":
        rec["alpha"] = rec["alpha"][:1]
    elif kind == "empty":
        rec["alpha"] = []
    elif kind == "duplicate":
        rec["task_id"] = records[i - 1 if i else 1]["task_id"]
    elif kind == "n":
        rec["n"] = "ten"
    elif kind == "bool_n":
        rec["n"] = True
    elif kind == "no_n":
        del rec["n"]
    elif kind == "scalar":
        rec["alpha"] = 3.0
    elif kind == "nested":
        rec["alpha"] = [rec["alpha"]]
    elif kind == "no_alpha":
        del rec["alpha"]
    elif kind == "json":
        return "{not json"
    elif kind == "null_id":
        rec["task_id"] = None
    elif kind == "bool_id":
        rec["task_id"] = True
    elif kind == "list_id":
        rec["task_id"] = [rec["task_id"]]
    return rec


_FAULTS = ["value", "nan", "inf", "string", "length", "short", "empty", "duplicate", "n",
           "bool_n", "no_n", "scalar", "nested", "no_alpha", "json", "null_id", "bool_id",
           "list_id"]


@pytest.mark.parametrize("first", ["value", "length", "duplicate", "n", "null_id"])
@pytest.mark.parametrize("second", [None, "value", "length", "duplicate", "n", "null_id"])
def test_alpha_reader_error_parity(tmp_path, first, second):
    """Each fault alone, and with a second one on an earlier line or on the same line."""
    records = [{"task_id": f"t{i}", "alpha": [1.0 + i, 2.0, 0.5], "n": i} for i in range(8)]
    layouts = ([[(first, 5)]] if second is None
               else [[(first, 5), (second, 3)], [(first, 5), (second, 5)]])
    for faults in layouts:
        bad = list(records)
        for kind, i in faults:
            bad[i] = _mutate(bad[i], kind, records, i)
        path = tmp_path / "predictions.jsonl"
        _write_records(path, bad)
        message = _outcome(_read_alpha_records_oracle, path, 3)
        assert isinstance(message, str) and message == _outcome(read_alpha_records, path, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12).flatmap(lambda size: st.tuples(
    st.just(size),
    st.lists(st.tuples(st.sampled_from(_FAULTS), st.integers(0, size - 1)),
             min_size=1, max_size=3))))
def test_alpha_reader_error_parity_on_random_faults(tmp_path_factory, case):
    size, faults = case
    records = [{"task_id": f"t{i}", "alpha": [1.0 + i, 2.0, 0.5], "n": i} for i in range(size)]
    bad = list(records)
    for i, kind in {i: kind for kind, i in faults}.items():
        bad[i] = _mutate(records[i], kind, records, i)
    path = tmp_path_factory.mktemp("faults") / "predictions.jsonl"
    _write_records(path, bad)
    assert _outcome(_read_alpha_records_oracle, path, 3) == _outcome(read_alpha_records, path, 3)


def test_task_table_columns(tmp_path):
    path = tmp_path / "tasks.jsonl"
    path.write_text(
        '{"task_id": "a", "features": [1.0, 2.0], "true_q": [0.25, 0.75]}\n\n'
        '{"task_id": "b"}\n'
        '{"task_id": 7, "features": [3.0, -4.0], "true_q": [1, 0]}\n'
    )
    table = read_tasks(path)
    assert table.task_ids == ["a", "b", "7"]
    assert table.features.tolist() == [[1.0, 2.0], [0.0, 0.0], [3.0, -4.0]]
    assert table.has_features.tolist() == [True, False, True]
    assert table.true_q.tolist() == [[0.25, 0.75], [0.0, 0.0], [1.0, 0.0]]
    assert table.has_true_q.tolist() == [True, False, True]


@pytest.mark.parametrize("lines, message", [
    (['{"task_id": "a", "true_q": [0.5, 0.5]}', '{"task_id": "b", "true_q": [0.2, 0.3, 0.5]}'],
     ":2: true_q dimension 3 differs from earlier records (2)"),
    (['{"task_id": "a", "features": 1.5}'], ":1: bad task record: features must be a vector"),
    (['{"task_id": "a", "true_q": [[0.5, 0.5]]}'], ":1: bad task record: true_q must be a vector"),
    (['{"task_id": "a", "features": [1.0]}', '{"task_id": "b", "features": ["x"]}'],
     ':2: bad task record: features must hold numbers, got "x"'),
    (['{"task_id": "a", "true_q": [0.5, 0.6]}'], ":1: bad task record: soft label does not sum"),
    (['{"task_id": "a", "features": [1.0]}', '{"task_id": "a", "features": [1.0, 2.0]}'],
     ":2: duplicate task_id 'a'"),
    (['{"task_id": "a", "features": [1.0]}', '{"task_id": "b", "features": [1.0, 2.0]}',
      '{"task_id": "c", "features": [NaN]}'],
     ":2: feature dimension 2 differs from earlier records (1)"),
    (['{"task_id": "a", "true_q": [-0.5, 1.5]}', "{oops"],
     ":1: bad task record: soft label has negative"),
    (['{"task_id": "a", "features": [1.0]}', '{"features": [1.0]}', '{"task_id": "c", "true_q": []}'],
     ":2: bad task record: 'task_id'"),
    (['{"task_id": "a", "features": []}', '{"task_id": "b", "features": []}'],
     ":1: bad task record: empty features in task 'a'"),
    (['{"task_id": "a", "features": [1.0]}', '{"task_id": "b"}', '{"task_id": "c", "features": []}'],
     ":3: bad task record: empty features in task 'c'"),
    (['{"task_id": "a"}', '{"task_id": null, "features": [NaN], "true_q": [2.0]}'],
     ":2: bad task record: task_id must be a string or an integer, got null"),
    (['{"task_id": "a", "features": [NaN]}', '{"task_id": true}'],
     ":1: bad task record: non-finite feature values in task 'a'"),
    (['{"task_id": "a"}', '{"task_id": 1.5}', '{"task_id": [1]}'],
     ":2: bad task record: task_id must be a string or an integer, got 1.5"),
    (['{"task_id": "a"}', '{"task_id": {}}'],
     ":2: bad task record: task_id must be a string or an integer, got {}"),
    (['{"task_id": "a", "true_q": [1e308, 1e308, 0]}'],
     ":1: bad task record: soft label does not sum to 1: [1.e+308 1.e+308 0.e+000] (sum inf)"),
    (['{"task_id": "a", "features": [1.0]}', '{"task_id": "b", "features": [[1.0], 2.0]}'],
     ":2: bad task record: features must be a vector"),
])
def test_task_table_reports_first_failing_line(tmp_path, lines, message):
    path = tmp_path / "tasks.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(InputError, match=re.escape(message)):
        read_tasks(path)


@pytest.mark.parametrize("item", ["true", "false", '"1.5"', "null", '"x"', "{}"])
def test_readers_refuse_non_numbers_at_the_first_failing_line(tmp_path, item):
    """numpy reads true as 1.0 and "1.5" as 1.5; the readers refuse both,
    and every other non-number item in the same words.  An earlier record's
    fault of a later kind is still reported first."""
    path = tmp_path / "records.jsonl"
    tasks = ['{"task_id": "a", "features": [1.0, 2.0], "true_q": [0.5, 0.5]}',
             '{"task_id": "b", "features": [ITEM, 2.0], "true_q": [0.5, 0.5]}',
             '{"task_id": "c", "features": [1.0, 2.0], "true_q": [ITEM, 0.5]}',
             '{"task_id": "a", "features": [1.0, 2.0]}']
    for lines, message in (
            (tasks, f":2: bad task record: features must hold numbers, got {item}"),
            (tasks[:1] + tasks[2:], f":2: bad task record: true_q must hold numbers, got {item}"),
            (['{"task_id": "a", "features": [NaN, 2.0]}'] + tasks[1:],
             ":1: bad task record: non-finite feature values in task 'a'")):
        path.write_text("".join(line.replace("ITEM", item) + "\n" for line in lines))
        with pytest.raises(InputError, match=re.escape(message)):
            read_tasks(path)
    alphas = ['{"task_id": "a", "alpha": [1.0, 2.0], "n": 1}',
              '{"task_id": "b", "alpha": [1.0, ITEM], "n": 1}',
              '{"task_id": "a", "alpha": [1.0], "n": 1}']
    for lines, message in ((alphas, f":2: bad record: alpha must hold numbers, got {item}"),
                           (['{"task_id": "a", "alpha": [1.0, 2.0]}'] + alphas[1:],
                            ":1: bad record: 'n'")):
        path.write_text("".join(line.replace("ITEM", item) + "\n" for line in lines))
        with pytest.raises(InputError, match=re.escape(message)):
            read_alpha_records(path, 2)


def test_readers_refuse_integers_too_large_for_a_float(tmp_path):
    path = tmp_path / "tasks.jsonl"
    path.write_text('{"task_id": "a", "features": [1.0]}\n'
                    '{"task_id": "b", "features": [1' + "0" * 400 + ']}\n')
    with pytest.raises(InputError, match=re.escape(":2: bad task record: int too large")):
        read_tasks(path)
