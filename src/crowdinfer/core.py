"""Domain types and dataset model for crowd-annotated categorical tasks.

Answer spaces consist of C proper categories plus a distinguished
"can't solve" category that is always stored at the last index.  All
vectors over the answer space follow the ordering (proper..., cs).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

SIMPLEX_ATOL = 1e-9


class InputError(ValueError):
    """Rejected input data (bad record, schema violation, missing file)."""


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
    def cs_index(self) -> int:
        return len(self.proper_names)

    @property
    def names(self) -> tuple:
        return self.proper_names + (self.cs_name,)

    def index_of(self, answer) -> int:
        """Resolve an answer given by name or by integer index."""
        if isinstance(answer, str):
            try:
                return self.names.index(answer)
            except ValueError:
                raise InputError(f"unknown category name {answer!r}") from None
        idx = int(answer)
        if not 0 <= idx < self.num_categories:
            raise InputError(f"category index {idx} out of range [0, {self.num_categories})")
        return idx


@dataclass(frozen=True)
class ResponseRecord:
    """One discrete answer to one task; annotator identity is carried but
    never used by inference."""

    task_id: str
    answer: int
    annotator_id: Optional[str] = None


@dataclass(frozen=True)
class CountVector:
    """Per-category response frequencies for a single task."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if (counts < 0).any():
            raise InputError(f"negative count in {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class DirichletParams:
    """Strictly positive concentration vector."""

    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.ndim != 1 or alpha.size == 0:
            raise InputError("alpha must be a non-empty vector")
        if not np.isfinite(alpha).all() or (alpha <= 0).any():
            raise InputError(f"alpha components must be positive and finite, got {alpha}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def alpha_sum(self) -> float:
        return float(self.alpha.sum())

    def __len__(self) -> int:
        return self.alpha.size


@dataclass(frozen=True)
class SoftLabel:
    """Point on the probability simplex over the C+1 categories."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if not (q >= 0).all():
            raise InputError(f"soft label has negative or NaN components: {q}")
        if abs(q.sum() - 1.0) > SIMPLEX_ATOL:
            raise InputError(f"soft label does not sum to 1: {q} (sum {q.sum()!r})")
        object.__setattr__(self, "q", q)

    @property
    def solvability(self) -> float:
        """Probability mass on the proper categories, 1 - q_cs."""
        return float(1.0 - self.q[-1])

    @property
    def conditional(self) -> np.ndarray:
        """Soft label renormalized over proper categories."""
        pi = self.solvability
        if pi <= 0.0:
            raise ValueError("conditional probabilities undefined: all mass on cs")
        return self.q[:-1] / pi

    def argmax(self) -> int:
        """Majority category; ties break toward the lowest index, so cs
        loses ties against proper categories."""
        return int(np.argmax(self.q))

    def __len__(self) -> int:
        return self.q.size


@dataclass
class TaskRecord:
    """A task together with its surrogate features, optional simulator
    ground truth, and observed responses."""

    task_id: str
    features: Optional[np.ndarray] = None
    true_q: Optional[SoftLabel] = None
    responses: list = field(default_factory=list)

    def __post_init__(self):
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=float)
            if not np.isfinite(self.features).all():
                raise InputError(f"non-finite feature values in task {self.task_id!r}")

    @property
    def n_responses(self) -> int:
        return len(self.responses)


@dataclass(frozen=True)
class DatasetSplit:
    train: frozenset
    val: frozenset
    test: frozenset

    def __post_init__(self):
        object.__setattr__(self, "train", frozenset(self.train))
        object.__setattr__(self, "val", frozenset(self.val))
        object.__setattr__(self, "test", frozenset(self.test))
        sets = [self.train, self.val, self.test]
        total = sum(len(s) for s in sets)
        if len(self.train | self.val | self.test) != total:
            raise InputError("splits are not pairwise disjoint")

    def of(self, name: str) -> frozenset:
        return {"train": self.train, "val": self.val, "test": self.test}[name]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def tally(responses: Iterable[ResponseRecord], scheme: CategoryScheme) -> CountVector:
    """Count responses per category."""
    counts = np.zeros(scheme.num_categories, dtype=np.int64)
    for rec in responses:
        if not 0 <= rec.answer < scheme.num_categories:
            raise InputError(
                f"response for task {rec.task_id!r} has invalid category index "
                f"{rec.answer} (expected < {scheme.num_categories})"
            )
        counts[rec.answer] += 1
    return CountVector(counts)


def empirical_soft_label(counts: CountVector) -> SoftLabel:
    """Observed response frequencies as a soft label."""
    if counts.total == 0:
        raise ValueError("no responses to normalize")
    return SoftLabel(counts.counts / counts.total)


def task_rng(global_seed: int, task_id) -> np.random.Generator:
    """Deterministic per-task random stream.

    The same (seed, task_id) pair always yields the same stream; distinct
    task ids decorrelate through a stable byte-level hash, so streams do
    not depend on Python's per-process hash randomization.
    """
    digest = hashlib.blake2b(
        f"{global_seed}\x1f{task_id}".encode(), digest_size=16
    ).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence(words))


def _quota(n_groups: int, ratios: Sequence[float]) -> list:
    # Largest-remainder apportionment; quotas sum to n_groups exactly.
    raw = [r * n_groups for r in ratios]
    base = [math.floor(x) for x in raw]
    short = n_groups - sum(base)
    order = sorted(range(len(raw)), key=lambda i: raw[i] - base[i], reverse=True)
    for i in order[:short]:
        base[i] += 1
    return base


def split_dataset(
    tasks: Sequence[TaskRecord],
    ratios: Sequence[float] = (0.8, 0.1, 0.1),
    group_key: Optional[Callable[[TaskRecord], str]] = None,
    seed: int = 0,
) -> DatasetSplit:
    """Partition tasks into train/val/test by whole groups.

    Groups (e.g. image frames) are shuffled deterministically and assigned
    greedily until each split's group quota is met, so no group straddles
    two splits.  Without a ``group_key`` every task is its own group.
    """
    if len(ratios) != 3:
        raise InputError("expected three split ratios")
    if any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > SIMPLEX_ATOL:
        raise InputError(f"ratios must be positive and sum to 1, got {ratios}")

    groups: dict = {}
    for t in tasks:
        key = group_key(t) if group_key is not None else t.task_id
        groups.setdefault(key, []).append(t.task_id)
    group_names = sorted(groups)
    if len(group_names) < 3:
        raise InputError(f"need at least 3 groups to split, got {len(group_names)}")

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(group_names))
    quotas = _quota(len(group_names), ratios)

    assigned: list = [[], [], []]
    cursor = 0
    for split_idx, quota in enumerate(quotas):
        for _ in range(quota):
            assigned[split_idx].extend(groups[group_names[order[cursor]]])
            cursor += 1
    return DatasetSplit(*(frozenset(ids) for ids in assigned))


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
    if isinstance(obj, np.ndarray):
        return [json_ready(v) for v in obj.tolist()]
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


def read_scheme(path) -> CategoryScheme:
    with open(path) as fh:
        data = json.load(fh)
    return CategoryScheme(tuple(data["proper"]), data.get("cs", "cs"))


def write_tasks(path, tasks: Iterable[TaskRecord]) -> None:
    with open(path, "w") as fh:
        for t in tasks:
            rec: dict = {"task_id": t.task_id}
            if t.features is not None:
                rec["features"] = t.features.tolist()
            if t.true_q is not None:
                rec["true_q"] = t.true_q.q.tolist()
            fh.write(json.dumps(rec) + "\n")


def read_tasks(path) -> list:
    tasks = []
    feature_dim = None
    seen = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                task = TaskRecord(
                    task_id=str(rec["task_id"]),
                    features=rec.get("features"),
                    true_q=SoftLabel(np.asarray(rec["true_q"])) if "true_q" in rec else None,
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise InputError(f"{path}:{lineno}: bad task record: {exc}") from exc
            if task.task_id in seen:
                raise InputError(f"{path}:{lineno}: duplicate task_id {task.task_id!r}")
            seen.add(task.task_id)
            if task.features is not None:
                if feature_dim is None:
                    feature_dim = task.features.size
                elif task.features.size != feature_dim:
                    raise InputError(
                        f"{path}:{lineno}: feature dimension {task.features.size} "
                        f"differs from earlier records ({feature_dim})"
                    )
            tasks.append(task)
    return tasks


def write_responses(path, responses: Iterable[ResponseRecord], scheme: CategoryScheme) -> None:
    names = scheme.names
    with open(path, "w") as fh:
        for r in responses:
            rec: dict = {"task_id": r.task_id, "answer": names[r.answer]}
            if r.annotator_id is not None:
                rec["annotator_id"] = r.annotator_id
            fh.write(json.dumps(rec) + "\n")


def read_responses(path, scheme: CategoryScheme) -> list:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                out.append(
                    ResponseRecord(
                        task_id=str(rec["task_id"]),
                        answer=scheme.index_of(rec["answer"]),
                        annotator_id=rec.get("annotator_id"),
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise InputError(f"{path}:{lineno}: bad response record: {exc}") from exc
    return out


def attach_responses(tasks: Sequence[TaskRecord], responses: Iterable[ResponseRecord]) -> None:
    """Group responses onto their tasks, rejecting orphans."""
    by_id = {t.task_id: t for t in tasks}
    for r in responses:
        task = by_id.get(r.task_id)
        if task is None:
            raise InputError(f"response references unknown task {r.task_id!r}")
        task.responses.append(r)


def write_alpha_records(path, records: Iterable[tuple]) -> None:
    """Write (task_id, DirichletParams, n) triples as JSON lines.

    Shared format for posterior and prediction files.
    """
    with open(path, "w") as fh:
        for task_id, params, n in records:
            fh.write(
                json.dumps({"task_id": task_id, "alpha": params.alpha.tolist(), "n": n})
                + "\n"
            )


def read_alpha_records(path, num_categories: int) -> dict:
    """Read a posterior/prediction file back as {task_id: (params, n)}.

    Every record must carry num_categories components, the scheme's K.
    """
    out: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                task_id = str(rec["task_id"])
                record = (DirichletParams(np.asarray(rec["alpha"], dtype=float)), rec["n"])
            except (KeyError, ValueError, TypeError) as exc:
                raise InputError(f"{path}:{lineno}: bad record: {exc}") from exc
            if task_id in out:
                raise InputError(f"{path}:{lineno}: duplicate task_id {task_id!r}")
            if len(record[0]) != num_categories:
                raise InputError(
                    f"{path}:{lineno}: {len(record[0])} alpha components for a scheme "
                    f"of {num_categories} categories"
                )
            out[task_id] = record
    return out
