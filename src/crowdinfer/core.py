"""Domain types and dataset model for crowd-annotated categorical tasks.

Answer spaces consist of C proper categories plus a distinguished
"can't solve" category that is always stored at the last index.  All
vectors over the answer space follow the ordering (proper..., cs).
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import json
import itertools
import math
import operator
import reprlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

SIMPLEX_ATOL = 1e-9


class InputError(ValueError):
    """Rejected input: a bad record, schema violation, missing file, or an
    option value out of range."""


# a value as a message prints it on one short line: long numbers and strings
# cut in the middle, six items of a list at most, nested lists elided
brief = reprlib.Repr()
brief.maxlevel = 1


def brief_text(text: str) -> str:
    """text as it is, or cut in the middle to brief's string length."""
    return text if len(text) <= brief.maxstring else text[:13] + brief.fillvalue + text[-14:]


def positive_finite(x: np.ndarray) -> bool:
    """Whether every entry of a float array is positive and finite; a NaN fails both bounds."""
    return not x.size or bool(np.minimum.reduce(x, axis=None) > 0
                              and np.maximum.reduce(x, axis=None) < math.inf)


# ---------------------------------------------------------------------------
# Answer space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CategoryScheme:
    """C proper answer categories plus the trailing "can't solve" category."""

    proper_names: tuple
    cs_name: str = "cs"

    def __post_init__(self):
        names = tuple(self.proper_names)
        object.__setattr__(self, "proper_names", names)
        if len(names) < 1:
            raise InputError("scheme needs at least one proper category")
        all_names = names + (self.cs_name,)
        if not all(isinstance(name, str) for name in all_names):
            raise InputError(f"category names must be strings, got {all_names}")
        if len(set(all_names)) != len(all_names):
            raise InputError(f"category names not unique: {all_names}")

    @property
    def num_proper(self) -> int:
        return len(self.proper_names)

    @property
    def num_categories(self) -> int:
        """Total number of categories, C + 1."""
        return len(self.proper_names) + 1

    @property
    def names(self) -> tuple:
        return self.proper_names + (self.cs_name,)

    def index_of(self, answer) -> int:
        """Resolve an answer given by name or by integer index; a bool, a
        float or any other value is refused."""
        if isinstance(answer, str):
            try:
                return self.names.index(answer)
            except ValueError:
                raise InputError(f"unknown category name {brief.repr(answer)}") from None
        if not isinstance(answer, (int, np.integer)) or isinstance(answer, bool):
            raise InputError(f"answer must be a category name or an integer index, "
                             f"got {brief.repr(answer)}")
        idx = int(answer)
        if not 0 <= idx < self.num_categories:
            raise InputError(f"category index {brief.repr(idx)} out of range "
                             f"[0, {self.num_categories})")
        return idx


@dataclass(frozen=True)
class DirichletParams:
    """Strictly positive concentration vector."""

    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.ndim != 1 or alpha.size == 0:
            raise InputError("alpha must be a non-empty vector")
        # one short vector: Python's min over its floats costs less than two
        # numpy reductions, and isfinite first keeps a NaN out of the min
        values = alpha.tolist()
        if not (all(map(math.isfinite, values)) and min(values) > 0.0):
            raise InputError(f"alpha components must be positive and finite, got {alpha}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def alpha_sum(self) -> float:
        return float(self.alpha.sum())

    def __len__(self) -> int:
        return self.alpha.size


def check_soft_labels(q) -> np.ndarray:
    """q as floats, each vector along its last axis checked as a soft label:
    non-negative, summing to 1.  The first failing one raises InputError."""
    q = np.asarray(q, dtype=float)
    rows = q.reshape(-1, q.shape[-1]) if q.ndim > 1 else q.reshape(1, -1)
    with np.errstate(over="ignore"):   # a sum past the float range is inf, and refused
        sums = rows.sum(axis=1)
    if (rows >= 0).all() and (abs(sums - 1.0) <= SIMPLEX_ATOL).all():
        return q
    for row, total in zip(rows, sums.tolist()):
        if not (row >= 0).all():
            raise InputError(f"soft label has negative or NaN components: {row}")
        if abs(total - 1.0) > SIMPLEX_ATOL:
            raise InputError(f"soft label does not sum to 1: {row} (sum {total})")


@dataclass(frozen=True)
class SoftLabel:
    """Point on the probability simplex over the C+1 categories."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1 or q.size == 0:
            raise InputError(f"q must be a non-empty vector, got shape {q.shape}")
        object.__setattr__(self, "q", check_soft_labels(q))

    def argmax(self) -> int:
        """Majority category; ties break toward the lowest index, so cs
        loses ties against proper categories."""
        return int(np.argmax(self.q))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def tally(answers, scheme: CategoryScheme) -> np.ndarray:
    """Count answer indices (an integer array or sequence) per category: a
    (K,) int64 row, as count_matrix makes for each task."""
    answers = np.asarray(answers)
    k = scheme.num_categories
    if answers.ndim != 1:
        raise InputError(f"answers must be one vector of category indices, got shape "
                         f"{answers.shape}")
    if answers.size and answers.dtype.kind not in "iu":
        raise InputError(f"answers must be integer category indices, got {answers.dtype}")
    values = answers.tolist()   # one task's few answers: Python's min and max cost less
    if values and not 0 <= min(values) <= max(values) < k:
        invalid = (answers < 0) | (answers >= k)
        raise InputError(f"invalid category index {answers[invalid][0]} (expected < {k})")
    return np.bincount(answers.astype(np.int64, copy=False), minlength=k)


def empirical_soft_label(counts) -> SoftLabel:
    """Observed response frequencies (a row of counts) as a soft label."""
    counts = np.asarray(counts)
    outside = ~((counts >= 0) & (counts < math.inf))
    if outside.any():
        raise InputError(f"counts must be non-negative and finite, got {counts[outside][0]}")
    if counts.sum() == 0:
        raise ValueError("no responses to normalize")
    return SoftLabel(counts / counts.sum())


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx); its pool
# holds four 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _seed_states(entropy) -> np.ndarray:
    """``np.random.SeedSequence(row).generate_state(4, np.uint64)`` for each
    row of an (N, E) uint32 entropy matrix, as an (N, 4) uint64 array.

    numpy's algorithm on columns: each entropy word is hashed into a pool of
    four (zero words past E), every pool word is mixed into every other, the
    words past the fourth are mixed into each pool word, and the pool is
    hashed out to eight 32-bit words read as four little-endian 64-bit ones.
    The hash constant runs the same way for every row, so it is a Python
    integer; the wrapping arithmetic is all on uint32 arrays, which wrap
    silently where numpy scalars warn.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    n, e = entropy.shape
    const = _INIT_A

    def hashed(value, mult):
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value *= const
        value ^= value >> 16
        return value

    def mixed(x, y):
        x *= _MIX_MULT_L
        y *= _MIX_MULT_R
        x -= y
        x ^= x >> 16
        return x

    zero = np.zeros(n, np.uint32)
    pool = [hashed(entropy[:, i] if i < e else zero, _MULT_A) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mixed(pool[dst], hashed(pool[src], _MULT_A))
    for src in range(_POOL, e):
        for dst in range(_POOL):
            pool[dst] = mixed(pool[dst], hashed(entropy[:, src], _MULT_A))
    words = np.empty((n, 2 * _POOL), "<u4")
    const = _INIT_B
    for i in range(2 * _POOL):
        words[:, i] = hashed(pool[i % _POOL], _MULT_B)
    return words.view("<u8").astype(np.uint64)


class _State(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose output is already computed: PCG64 asks it once
    for ``generate_state(4, np.uint64)`` and gets ``state``."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _rngs(states: np.ndarray):
    """A generator for each row of an (N, 4) uint64 state matrix, each one
    built as it is drawn."""
    return (np.random.Generator(np.random.PCG64(_State(row))) for row in states)


def _task_digest(global_seed: int, task_id) -> bytes:
    # surrogatepass takes a lone surrogate (a JSON "\ud800" escape); other ids keep their bytes
    return hashlib.blake2b(
        f"{global_seed}\x1f{task_id}".encode("utf-8", "surrogatepass"), digest_size=16
    ).digest()


def task_rng(global_seed: int, task_id) -> np.random.Generator:
    """Deterministic per-task random stream.

    The same (seed, task_id) pair always yields the same stream; distinct
    task ids decorrelate through a stable byte-level hash, so streams do
    not depend on Python's per-process hash randomization.
    """
    # the digest as four little-endian 32-bit entropy words
    return np.random.default_rng(
        np.random.SeedSequence(np.frombuffer(_task_digest(global_seed, task_id), "<u4")))


def task_rngs(global_seed: int, task_ids):
    """``task_rng(global_seed, tid)``'s stream for each of ``task_ids``, in
    order, each generator built as it is drawn.  The seed states of all the
    ids are computed in one batch, 32 bytes each; the generators have no
    SeedSequence to spawn from."""
    digests = b"".join([_task_digest(global_seed, tid) for tid in task_ids])
    return _rngs(_seed_states(np.frombuffer(digests, "<u4").reshape(-1, 4)))


def spawn_rngs(seed: int, n: int):
    """The streams of ``np.random.SeedSequence(seed).spawn(n)``'s children,
    in order, each generator built as it is drawn from states computed in one
    batch (32 bytes each).  A child's entropy is the seed's little-endian
    32-bit words, padded with zero words to the pool size, then its index."""
    seed = operator.index(seed)
    words = max(_POOL, -(-seed.bit_length() // 32))
    entropy = np.empty((n, words + 1), np.uint32)
    entropy[:, :words] = np.frombuffer(seed.to_bytes(4 * words, "little"), "<u4")
    entropy[:, words] = np.arange(n)
    return _rngs(_seed_states(entropy))


def _quota(n_groups: int, ratios: Sequence[float]) -> list:
    # Largest-remainder apportionment; quotas sum to n_groups exactly.
    raw = [r * n_groups for r in ratios]
    base = [math.floor(x) for x in raw]
    short = n_groups - sum(base)
    order = sorted(range(len(raw)), key=lambda i: raw[i] - base[i], reverse=True)
    for i in order[:short]:
        base[i] += 1
    return base


def check_seed(seed: int) -> None:
    """Refuse a seed that numpy's generators cannot take: a negative one."""
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")


# most values one option may size (a simulated dataset, bootstrap resamples,
# calibration bins, replayed permutations); far past any dataset written as
# JSON lines, it refuses a mistyped size before anything is allocated
MAX_VALUES = 2**30


def check_size(name: str, value: int, per_unit: int, what: str) -> None:
    """Refuse the value of option ``name`` when ``what``, per_unit values per
    unit of it, would hold more than MAX_VALUES values."""
    if value * per_unit > MAX_VALUES:
        raise InputError(f"{name} = {brief.repr(value)}: {what} would hold more than "
                         f"the limit of {MAX_VALUES} values")


def split_dataset(
    task_ids: Sequence[str],
    ratios: Sequence[float] = (0.8, 0.1, 0.1),
    group_key: Optional[Callable[[str], str]] = None,
    seed: int = 0,
) -> np.ndarray:
    """Label each task id 0 (train), 1 (val) or 2 (test), by whole groups:
    an (N,) integer array aligned with ``task_ids``.

    Groups (e.g. image frames) are shuffled deterministically and assigned
    greedily until each split's group quota is met, so no group straddles
    two splits.  Without a ``group_key`` every task is its own group.
    """
    if len(ratios) != 3:
        raise InputError("expected three split ratios")
    if any(not r > 0 for r in ratios) or abs(sum(ratios) - 1.0) > SIMPLEX_ATOL:
        raise InputError(f"ratios must be positive and sum to 1, got {ratios}")
    check_seed(seed)

    keys = task_ids if group_key is None else map(group_key, task_ids)
    groups: dict = {}   # group name -> its index, in order of first appearance
    member = np.array([groups.setdefault(key, len(groups)) for key in keys], dtype=np.intp)
    if len(groups) < 3:
        raise InputError(f"need at least 3 groups to split, got {len(groups)}")

    # the shuffle permutes the groups in Python string order (np.unique would
    # merge names that differ only by trailing NUL characters)
    by_name = np.array([groups[name] for name in sorted(groups)], dtype=np.intp)
    order = np.random.default_rng(seed).permutation(len(groups))
    label = np.empty(len(groups), dtype=np.intp)
    label[by_name[order]] = np.repeat(np.arange(3), _quota(len(groups), ratios))
    return label[member]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def round_sig(value: float, digits: int = 9) -> float:
    """Round to a fixed number of significant digits for diffable reports."""
    if value == 0 or not math.isfinite(value):
        return value
    return float(f"{value:.{digits}g}")


def json_ready(obj):
    """Recursively convert report values to JSON types, rounding floats to
    9 significant digits and mapping non-finite values to null."""
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return round_sig(v) if math.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _csv_cell(v) -> str:
    if v is None or (isinstance(v, float) and not math.isfinite(v)):
        return ""
    if isinstance(v, float):
        return repr(round_sig(v))
    return str(v)


def write_csv(path, header, rows, provenance: Optional[dict] = None) -> None:
    """Provenance-commented CSV; floats at 9 significant digits, None and
    non-finite values as empty cells."""
    with open(path, "w", newline="") as fh:
        if provenance:
            items = " ".join(f"{k}={v}" for k, v in sorted(provenance.items()))
            fh.write(f"# {items}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def write_scheme(path, scheme: CategoryScheme) -> None:
    with open(path, "w") as fh:
        json.dump({"proper": list(scheme.proper_names), "cs": scheme.cs_name}, fh)
        fh.write("\n")


_FLOAT_OVERFLOW = 2**1024 - 2**970   # the least integer that float() refuses


def is_numbers(value, depth: int = 0) -> bool:
    """Whether a decoded JSON value is a number (not a bool, nor an integer
    too large for a float), or lists of them ``depth`` deep."""
    if depth:
        return isinstance(value, list) and all(is_numbers(v, depth - 1) for v in value)
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value) < _FLOAT_OVERFLOW
    return isinstance(value, float)


def read_json_object(path, what: str, keys: Optional[dict] = None) -> dict:
    """The JSON object of ``what`` a file holds.  ``keys`` maps each key it
    must hold to (what its value must be, a test of the value).  Anything
    else raises InputError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:   # RecursionError: nested too deep
            raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object of {what}")
    for key, (kind, test) in (keys or {}).items():
        if key not in data:
            raise InputError(f"{path}: missing key {key!r}")
        if not test(data[key]):
            raise InputError(f"{path}: key {key!r} must be {kind}, got {brief.repr(data[key])}")
    return data


def read_scheme(path) -> CategoryScheme:
    data = read_json_object(path, "category names",
                            {"proper": ("a list of category names", lambda v: isinstance(v, list))})
    try:
        return CategoryScheme(tuple(data["proper"]), data.get("cs", "cs"))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


_ABSENT = object()   # marks an optional key missing from a record
_INT64_MAX = np.iinfo(np.int64).max
_scan_once = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"   # str.strip() would also take \x0b, \xa0, ...
_BLOCK_LINES = 1024   # lines _scan decodes with one json.loads
_PROBE_LINES = 64     # leading lines of a block that must repeat for _pick_distinct


def _task_ids(values: list) -> list:
    """Decoded task ids as strings, an integer as its decimal string; any
    other value (a bool, null, a float, a list or an object) raises
    TypeError, as the first fault of its record."""
    kinds = set(map(type, values))
    if kinds <= {str}:
        return values
    if kinds <= {str, int}:
        return list(map(str, values))
    bad = next(v for v in values if type(v) not in (str, int))
    raise TypeError(f"task_id must be a string or an integer, got {brief_text(json.dumps(bad))}")


def _decode_block(block: list) -> Optional[list]:
    """The values of a block of lines, one per line, from one json.loads of
    the lines joined as an array; None where that may differ from decoding
    each line on its own.

    Every line must start with ``{`` and hold no ``[``.  Then no value can
    span a joined comma: a line ends in a newline, which no string may hold,
    and after a comma inside an object the parser needs a key, not ``{``.
    Each line starts a value, so the values map one to a line exactly when
    there are as many as lines.  The same holds for a block's distinct
    lines in order of first appearance (see _pick_distinct): the one line
    that may lack its newline, a file's last, differs from every line that
    has one and so stays last.
    """
    # the first line is tested before the join, so that files whose lines
    # hold arrays (tasks, alpha records) pay almost nothing here
    if block[0][:1] != "{" or "[" in block[0]:
        return None
    text = ",".join(block)
    # only the last line can lack its newline, so "\n,{" marks each later
    # line that starts with "{"
    if "[" in text or text.count("\n,{") != len(block) - 1:
        return None
    try:
        values = json.loads("[" + text + "]")
    except (ValueError, RecursionError):
        return None
    return values if len(values) == len(block) else None


def _pick_distinct(block: list, pick) -> Optional[list]:
    """``pick``'s columns for a block whose lines repeat, from one
    _decode_block and one ``pick`` of its distinct lines, each value given
    to every line of the same text (one take of an array column, one list
    of a list column); None where no line repeats, or where _decode_block
    or ``pick`` refuses the distinct lines, and the block is read whole
    instead.

    A line's text fixes its value, and ``pick`` maps each record on its
    own, so the columns are those of the whole block, one value per line.
    """
    # the first-line test of _decode_block, so that files whose lines hold
    # arrays skip the dict too
    if block[0][:1] != "{" or "[" in block[0]:
        return None
    # a line repeats only among its task's responses, which write_responses
    # (and most exports) list together, so a block whose first lines are
    # distinct is read whole without hashing the rest (str caches its hash:
    # the probe's lines are not hashed again below)
    head = block[:_PROBE_LINES]
    if len(dict.fromkeys(head)) == len(head):
        return None
    distinct = dict.fromkeys(block)
    records = _decode_block(list(distinct))
    if records is None:
        return None
    try:
        picked = pick(records)
    except (KeyError, TypeError):
        return None
    row = dict(zip(distinct, range(len(distinct))))
    rows = np.fromiter(map(row.__getitem__, block), dtype=np.intp, count=len(block))
    return [values[rows] if isinstance(values, np.ndarray)
            else list(map(values.__getitem__, rows.tolist())) for values in picked]


def _decode_lines(block: list, start: int, what: str):
    """The values of a block's non-blank lines decoded one at a time, their
    line numbers (an int64 array), and the (line, message) of the first line
    that is not JSON, where decoding stops, or None.

    A line is decoded by the json scanner when it consumes the line whole
    (JSON whitespace aside); any other line goes to json.loads, so a line
    is refused exactly as json.loads refuses it, with its message.
    """
    values, numbers = [], []
    for lineno, line in enumerate(block, start=start):
        text = line.strip(_JSON_SPACE)
        try:
            value, end = _scan_once(text, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(text):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except (ValueError, RecursionError) as exc:   # RecursionError: nested too deep
                return values, np.array(numbers, dtype=np.int64), (lineno, f"bad {what}: {exc}")
        values.append(value)
        numbers.append(lineno)
    return values, np.array(numbers, dtype=np.int64), None


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for a whole reader.  Decoded JSON
    holds no reference cycles, so passes over the reader's per-record lists,
    while it reads or after it if the pause ended earlier, free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _scan(path, pick, width: int, what: str):
    """Line numbers (an int64 array) and value columns of a JSONL file's
    records (its non-blank lines) in file order.

    ``pick`` maps a list of records to ``width`` columns of one value per
    record, each a list or a 1-d array; it raises KeyError or TypeError (a
    missing key, a record that is not an object) for a list exactly when it
    raises for one of its records alone.  A column comes back as one array
    where ``pick`` gives arrays and as one list where it gives lists.  Lines
    are read _BLOCK_LINES at a time.  A block whose lines repeat is decoded
    and picked once per distinct line by _pick_distinct, which gives each
    line the values of its text; any other block, and one whose distinct
    lines hold a fault, is decoded whole by _decode_block or else by
    _decode_lines, and picked.  Reading stops at the first line that does
    not decode as UTF-8, is not JSON or holds a record ``pick`` refuses.
    Its (line, message) comes back as ``stop``, so a fault on an earlier
    record can still be reported first.
    """
    parts: list = [[] for _ in range(width)]   # each column's values, a block at a time
    lines = [np.zeros(0, dtype=np.int64)]
    stop = None
    start = 1   # line number of the block's first line
    with open(path, encoding="utf-8") as fh:
        while stop is None:
            try:
                block = list(itertools.islice(fh, _BLOCK_LINES))
            except UnicodeDecodeError:
                block, stop = _lines_before_undecodable(path, start, what)
            if not block:
                break
            numbers = np.arange(start, start + len(block), dtype=np.int64)
            picked = _pick_distinct(block, pick)
            if picked is None:
                records = _decode_block(block)
                if records is None:
                    records, numbers, not_json = _decode_lines(block, start, what)
                    stop = not_json or stop
                try:
                    picked = pick(records)
                except (KeyError, TypeError):
                    i, exc = _first_refused(pick, records)
                    stop = (int(numbers[i]), f"bad {what}: {exc}")
                    records, numbers = records[:i], numbers[:i]
                    picked = pick(records)
            for column, values in zip(parts, picked):
                column.append(values)
            lines.append(numbers)
            start += len(block)
    return np.concatenate(lines), [_joined(column) for column in parts], stop


def _joined(parts: list):
    """One column from its blocks' values: one array where they are arrays,
    else one list."""
    if parts and isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    return list(itertools.chain.from_iterable(parts))


def _lines_before_undecodable(path, start: int, what: str):
    """The lines of a file from line ``start`` up to the first line that does
    not decode as UTF-8, and that line's (line, message).

    The file is read again with undecodable bytes escaped, so that it splits
    into the same lines, and each line's bytes are decoded on their own.
    """
    block = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(itertools.islice(fh, start - 1, None), start=start):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                return block, (lineno, f"bad {what}: {exc}")
            block.append(line)
    raise AssertionError(f"{path} decodes from line {start} on")


def _first_refused(pick, records: list):
    """The index of the first record that ``pick`` refuses on its own, and
    the exception it raises."""
    for i, record in enumerate(records):
        try:
            pick([record])
        except (KeyError, TypeError) as exc:
            return i, exc
    raise AssertionError("pick refused the records but none alone")


def _only_numbers(values: list) -> bool:
    """Whether every item of every value is a JSON number, not a bool or a
    string, in one pass over all items; a value that holds none fails."""
    try:
        return set(map(type, itertools.chain.from_iterable(values))) <= {int, float}
    except TypeError:
        return False


class _Column:
    """The present values of field ``name`` as float vectors.

    They are rows of one matrix (zero rows where a value is absent) when they
    are lists of numbers that stack into one.  Otherwise ``matrix`` is None
    and each value is checked on its own, its type before its conversion:
    one that is not a list or that holds a list is refused for its shape,
    one that holds another non-number for that item.  ``sizes`` holds each
    vector's length (-1 where absent or faulty) and ``faults`` the reason
    each faulty value was refused.
    """

    def __init__(self, values: list, present: np.ndarray, name: str, shape: str = "a vector"):
        self.present = present
        self.faults: dict = {}
        rows = np.flatnonzero(present)
        picked = [values[i] for i in rows]
        stacked = None
        if _only_numbers(picked):
            try:
                stacked = np.array(picked, dtype=float)
            except (ValueError, TypeError, OverflowError):
                pass
        if stacked is not None and (stacked.ndim == 2 or not rows.size):
            width = stacked.shape[1] if rows.size else 0
            self.matrix = np.zeros((len(values), width))
            self.matrix[rows] = stacked
            self.sizes = np.where(present, width, -1)
        else:
            self.matrix, self.vectors = None, {}
            self.sizes = np.full(len(values), -1)
            for i in rows:
                value = values[i]
                if type(value) is not list or list in map(type, value):
                    self.faults[i] = f"{name} must be {shape}"
                elif not _only_numbers([value]):
                    item = next(v for v in value if type(v) not in (int, float))
                    self.faults[i] = f"{name} must hold numbers, got {brief_text(json.dumps(item))}"
                else:
                    try:
                        self.vectors[i] = np.array(value, dtype=float)
                        self.sizes[i] = len(value)
                    except OverflowError as exc:   # an integer past the float range
                        self.faults[i] = str(exc)
        self.faulty = np.zeros(len(values), dtype=bool)
        self.faulty[list(self.faults)] = True

    def row(self, i: int) -> np.ndarray:
        return self.matrix[i] if self.matrix is not None else self.vectors[i]

    def failing(self, check) -> np.ndarray:
        """Rows whose vector fails ``check``, a row-wise test over the last axis."""
        if self.matrix is not None:
            return check(self.matrix) & self.present
        out = np.zeros(self.present.size, dtype=bool)
        for i, vector in self.vectors.items():
            out[i] = check(vector)
        return out

    @property
    def first_size(self) -> int:
        sized = self.sizes[self.sizes >= 0]
        return int(sized[0]) if sized.size else -1

    def mismatched(self) -> np.ndarray:
        """Rows whose vector differs in length from the first vector."""
        return (self.sizes >= 0) & (self.sizes != self.first_size)


def _repeated(ids: list) -> np.ndarray:
    """Rows whose id already appeared on an earlier row."""
    rows = np.zeros(len(ids), dtype=bool)
    if len(set(ids)) < len(ids):
        seen: set = set()
        for i, tid in enumerate(ids):
            rows[i] = tid in seen
            seen.add(tid)
    return rows


def _raise_first(path, lines: list, stop, checks: list) -> None:
    """Raise InputError with ``file:line`` for the first failing record.

    ``checks`` holds (failing rows, message for row i) pairs in the order a
    record is checked, so a record reports its first failing check.  A
    failing record comes before the ``stop`` line of _scan, which is
    reported when no record fails.
    """
    failing = np.zeros(len(lines), dtype=bool)
    for rows, _ in checks:
        failing |= rows
    if failing.any():
        i = int(failing.argmax())
        message = next(message for rows, message in checks if rows[i])
        raise InputError(f"{path}:{lines[i]}: {message(i)}")
    if stop is not None:
        raise InputError(f"{path}:{stop[0]}: {stop[1]}")


@dataclass(frozen=True, eq=False)
class TaskTable:
    """A tasks file as columns in file order.  ``features`` and ``true_q``
    hold one row per task; rows where ``has_features``/``has_true_q`` is
    False are zero."""

    task_ids: list
    features: np.ndarray
    has_features: np.ndarray
    true_q: np.ndarray
    has_true_q: np.ndarray

    def __len__(self) -> int:
        return len(self.task_ids)


@_collector_paused()
def read_tasks(path) -> TaskTable:
    """Read a tasks file as columns, checking features and true_q as matrices.

    The first failing record exits as ``file:line``: a bad JSON line, a
    missing task_id or one that is not a string or an integer (an integer
    becomes its decimal string), a features or true_q item that is not a
    number, a true_q that is not a soft label, empty or non-finite features,
    a repeated task_id, or a features or true_q length that differs from the
    first record's.
    """
    lines, (ids, features, true_q), stop = _scan(
        path,
        lambda recs: (_task_ids([rec["task_id"] for rec in recs]),
                      [rec.get("features") for rec in recs],
                      [rec.get("true_q", _ABSENT) for rec in recs]),
        3, "task record",
    )
    q = _Column(true_q, np.array([v is not _ABSENT for v in true_q], dtype=bool), "true_q")
    f = _Column(features, np.array([v is not None for v in features], dtype=bool), "features")
    # a true_q such as [1e308, 1e308] sums to inf: refused, with no overflow warning
    with np.errstate(over="ignore"):
        _raise_first(path, lines, stop, [
            (q.faulty, lambda i: f"bad task record: {q.faults[i]}"),
            (q.failing(lambda a: ~(a >= 0).all(axis=-1)),
             lambda i: f"bad task record: soft label has negative or NaN components: {q.row(i)}"),
            (q.failing(lambda a: np.abs(a.sum(axis=-1) - 1.0) > SIMPLEX_ATOL),
             lambda i: f"bad task record: soft label does not sum to 1: {q.row(i)} "
                       f"(sum {float(q.row(i).sum())})"),
            (f.faulty, lambda i: f"bad task record: {f.faults[i]}"),
            (f.sizes == 0,
             lambda i: f"bad task record: empty features in task {brief.repr(ids[i])}"),
            (f.failing(lambda a: ~np.isfinite(a).all(axis=-1)),
             lambda i: f"bad task record: non-finite feature values in task {brief.repr(ids[i])}"),
            (_repeated(ids), lambda i: f"duplicate task_id {brief.repr(ids[i])}"),
            (f.mismatched(), lambda i: f"feature dimension {f.sizes[i]} differs from earlier "
                                       f"records ({f.first_size})"),
            (q.mismatched(), lambda i: f"true_q dimension {q.sizes[i]} differs from earlier "
                                       f"records ({q.first_size})"),
        ])
    return TaskTable(ids, f.matrix, f.present, q.matrix, q.present)


def write_tasks(path, table: TaskTable) -> None:
    """Write a TaskTable as read_tasks reads it: one JSON line per task,
    with features and true_q where the table has them."""
    with open(path, "w") as fh:
        for tid, x, has_x, q, has_q in zip(
            table.task_ids, table.features.tolist(), table.has_features.tolist(),
            table.true_q.tolist(), table.has_true_q.tolist(),
        ):
            rec: dict = {"task_id": tid}
            if has_x:
                rec["features"] = x
            if has_q:
                rec["true_q"] = q
            fh.write(json.dumps(rec) + "\n")


def write_responses(path, task_ids: Sequence[str], answers, scheme: CategoryScheme) -> None:
    """Write each task's row of ``answers`` (an (N, R) matrix or N integer
    arrays) in order, one JSON line per answer, from a per-task prefix and
    per-category suffixes keyed by index, so that an answer outside [0, K),
    a negative one too, exits naming its task."""
    if len(answers) != len(task_ids):
        raise InputError(f"{len(answers)} answer rows for {len(task_ids)} task ids")
    suffixes = [json.dumps(name) + "}\n" for name in scheme.names]
    with open(path, "w") as fh:
        for task_id, row in zip(task_ids, answers):
            row = np.asarray(row)
            if row.size and row.dtype.kind not in "iu":
                raise InputError(f"task {brief.repr(task_id)}: answers are {row.dtype}, "
                                 f"not integers")
            prefix = '{"task_id": ' + json.dumps(task_id) + ', "answer": '
            lines = {i: prefix + suffix for i, suffix in enumerate(suffixes)}
            try:
                fh.write("".join([lines[a] for a in row.tolist()]))
            except KeyError as exc:
                raise InputError(f"task {brief.repr(task_id)}: invalid category "
                                 f"index {exc}") from None


@dataclass(frozen=True, eq=False)
class Responses:
    """A responses file as integer columns in file order.  ``ids`` holds
    each task id once (read_responses lists them in order of first
    appearance); ``codes`` gives each response's task as an index into
    ``ids``, ``lines`` its file line and ``answers`` its category index,
    int64 arrays of one entry per response."""

    path: object
    ids: list
    codes: np.ndarray
    lines: np.ndarray
    answers: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def task_ids(self) -> list:
        """Each response's task id, built from ``codes`` on each access."""
        return list(map(self.ids.__getitem__, self.codes.tolist()))


@_collector_paused()
def read_responses(path, scheme: CategoryScheme) -> Responses:
    """Read a responses file as integer columns.

    An answer is a category name or an integer index; an ``annotator_id``
    is accepted and ignored.  Task ids are coded and answers resolved once
    per distinct line of a block (see _scan), so the file's responses take
    no Python pass of their own.  The first failing record exits as
    ``file:line``: a bad JSON line, a missing task_id or answer, a task_id
    that is not a string or an integer, or an answer the scheme does not
    resolve (an unknown name, an index out of range, a bool, a float or any
    other value).
    """
    k = scheme.num_categories
    # names and in-range integer indices; a bool or a float equal to a key
    # is kept out by its type below, before the lookup
    index = {name: i for i, name in enumerate(scheme.names)} | {i: i for i in range(k)}
    code: dict = {}     # task id -> its code, in order of first appearance
    faults: dict = {}   # the message of an answer coded -1 - j -> j

    def pick(recs):
        ids = _task_ids([rec["task_id"] for rec in recs])
        answers = [rec["answer"] for rec in recs]
        new = [tid for tid in dict.fromkeys(ids) if tid not in code]
        code.update(zip(new, range(len(code), len(code) + len(new))))
        keys = answers if set(map(type, answers)) <= {str, int} else [
            a if type(a) in (str, int) else None for a in answers]
        resolved = np.fromiter(map(index.get, keys, itertools.repeat(-1)),
                               dtype=np.int64, count=len(keys))
        # an unknown name or an integer out of range, of any size, goes to
        # index_of for its message: no int64 conversion comes before its check
        for i in np.flatnonzero(resolved < 0).tolist():
            try:
                resolved[i] = scheme.index_of(answers[i])
            except InputError as exc:
                resolved[i] = -1 - faults.setdefault(str(exc), len(faults))
        return np.fromiter(map(code.__getitem__, ids), dtype=np.int64, count=len(ids)), resolved

    lines, columns, stop = _scan(path, pick, 2, "response record")
    codes, answers = (np.asarray(column, dtype=np.int64) for column in columns)
    messages = list(faults)
    _raise_first(path, lines, stop, [
        (answers < 0, lambda i: f"bad response record: {messages[-1 - answers[i]]}")])
    return Responses(path, list(code), codes, lines, answers)


def _response_rows(task_ids: Sequence[str], responses: Responses) -> np.ndarray:
    """Row in task_ids of each response's task, from one lookup per distinct
    id; the first response of an unknown task exits as ``file:line``."""
    row = {tid: i for i, tid in enumerate(task_ids)}
    rows = np.fromiter(map(row.get, responses.ids, itertools.repeat(-1)),
                       dtype=np.int64, count=len(responses.ids))
    owner = rows[responses.codes]
    orphans = np.flatnonzero(owner < 0)
    if orphans.size:
        i = orphans[0]
        raise InputError(f"{responses.path}:{responses.lines[i]}: response references "
                         f"unknown task {brief.repr(responses.ids[responses.codes[i]])}")
    return owner


def count_matrix(task_ids: Sequence[str], responses: Responses, num_categories: int) -> np.ndarray:
    """(N, K) int64 response counts per category, one row per task id, from
    one bincount; the first response of an unknown task exits as ``file:line``."""
    k = num_categories
    owner = _response_rows(task_ids, responses)
    answers = responses.answers
    if answers.size and not 0 <= answers.min() <= answers.max() < k:
        raise InputError(f"{responses.path}: category index out of range [0, {k})")
    return np.bincount(owner * k + answers, minlength=len(task_ids) * k).reshape(-1, k)


def attach_responses(task_ids: Sequence[str], responses: Responses) -> list:
    """Each task id's answers, an int64 array in file order, grouped with one
    stable sort; the first response of an unknown task exits as ``file:line``."""
    owner = _response_rows(task_ids, responses)
    grouped = responses.answers[np.argsort(owner, kind="stable")]
    ends = np.cumsum(np.bincount(owner, minlength=len(task_ids))).tolist()
    return [grouped[start:end] for start, end in zip([0] + ends, ends)]


def write_alpha_records(path, task_ids: Sequence[str], alpha: np.ndarray, n: np.ndarray) -> None:
    """Write one JSON line per task id: its row of the (N, K) matrix alpha
    (positive and finite) and its count in the (N,) integer array n.

    Shared format for posterior and prediction files.  Each line is filled
    into a template with the bytes json.dumps writes for the record's dict:
    the id through json.dumps, alpha and n through their reprs.
    """
    with open(path, "w") as fh:
        fh.writelines([
            '{"task_id": ' + json.dumps(task_id) + ', "alpha": ['
            + ", ".join(map(float.__repr__, row))
            + '], "n": ' + int.__repr__(count) + "}\n"
            for task_id, row, count in zip(task_ids, alpha.tolist(), n.tolist(), strict=True)
        ])


@dataclass(frozen=True, eq=False)
class AlphaRecords:
    """A posterior or prediction file as columns in file order: task ids,
    their file lines, the (N, K) concentration matrix and response counts."""

    path: object
    task_ids: list
    lines: np.ndarray
    alpha: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_row", {tid: i for i, tid in enumerate(self.task_ids)})

    def __len__(self) -> int:
        return len(self.task_ids)

    def rows(self, task_ids) -> np.ndarray:
        """Row index of each of the task ids, which must all have a record."""
        missing = [tid for tid in task_ids if tid not in self._row]
        if missing:
            raise InputError(f"{self.path}: no record of {len(missing)} of the tasks to score "
                             f"(first: {brief.repr(missing[0])})")
        return np.array([self._row[tid] for tid in task_ids], dtype=np.intp)


@_collector_paused()
def read_alpha_records(path, num_categories: int) -> AlphaRecords:
    """Read a posterior/prediction file as columns, checked as a whole.

    The first failing record exits as ``file:line``: a bad JSON line, a
    missing task_id or alpha, a task_id that is not a string or an integer,
    an alpha that is not a non-empty list of positive finite numbers with a
    finite sum (a bool or a string is not a number), an ``n`` that is missing
    or not a non-negative integer, a repeated task_id, or an alpha whose
    length is not num_categories, the scheme's K.
    """
    lines, (ids, alphas, ns), stop = _scan(
        path,
        lambda recs: (_task_ids([rec["task_id"] for rec in recs]),
                      [rec["alpha"] for rec in recs],
                      [rec.get("n", _ABSENT) for rec in recs]),
        3, "record",
    )
    shape_fault = "alpha must be a non-empty vector"
    alpha = _Column(alphas, np.ones(len(ids), dtype=bool), "alpha", "a non-empty vector")
    bad_n = np.array([not (type(v) is int and 0 <= v <= _INT64_MAX) for v in ns], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):   # a sum past the float range, inf - inf
        infinite_sum = alpha.failing(lambda a: ~np.isfinite(a.sum(axis=-1)))
    _raise_first(path, lines, stop, [
        (alpha.faulty | (alpha.sizes == 0),
         lambda i: f"bad record: {alpha.faults.get(i, shape_fault)}"),
        (alpha.failing(lambda a: ~(np.isfinite(a) & (a > 0)).all(axis=-1)),
         lambda i: f"bad record: alpha components must be positive and finite, "
                   f"got {alpha.row(i)}"),
        (infinite_sum,
         lambda i: f"bad record: alpha components must have a finite sum, got {alpha.row(i)}"),
        (bad_n, lambda i: "bad record: 'n'" if ns[i] is _ABSENT
         else f"bad record: n must be a non-negative integer, got {brief.repr(ns[i])}"),
        (_repeated(ids), lambda i: f"duplicate task_id {brief.repr(ids[i])}"),
        (alpha.sizes != num_categories,
         lambda i: f"{alpha.sizes[i]} alpha components for a scheme of "
                   f"{num_categories} categories"),
    ])
    return AlphaRecords(path, ids, lines, alpha.matrix,
                        np.array(ns, dtype=np.int64))
