"""End-to-end benchmark of the crowdinfer CLI pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 30 --trace 0

The runner imports ``crowdinfer`` from ``src/`` of the checkout and drives
``crowdinfer.cli.main`` in-process, one stage after another, in a scratch
directory under ``.bench_work/``.  A run sets the workload up several times,
then repeats rounds of the timed stages until ``--seconds`` have passed, and
reports medians over the set-ups and rounds of stage times normalized by a
reference loop (see ``reference_loop``).  After the rounds it checks the
artifacts (exit codes, record counts, Dirichlet sums, byte-identical rounds,
an independent recomputation of the calibration, frozen quality values).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates untraced
and traced rounds and prints the per-layer metrics of ``perfbench/tracer.py``
plus the tracing overhead.  ``--scale smoke`` runs both workloads at a few
hundred tasks, for the smoke test in ``perfbench/test_smoke.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment, per-stage samples and the failed checks.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

SETUP_REPS = 3
MIN_ROUNDS = 3          # so that a stage median has an outlier to reject
REFERENCE_S = 0.004     # nominal duration of reference_loop(); see README
SAMPLE_EVERY_S = 0.2    # period of reference_loop() while a stage runs
BRACKET = 3             # reference_loop() runs just before and just after a stage
QUALITY_RTOL = 1e-8     # quality values are written to 9 significant digits
ALPHA_SUM_ATOL = 1e-9
SCORE_STAGES = ("eval", "curve", "calibrate")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    scale: str               # "full", or "smoke" for a few hundred tasks
    num_tasks: int
    repeats: int
    categories: int
    ratios: tuple            # train, val, test
    bootstrap: int
    target: float            # calibrate --target-accuracy
    setup: list              # [(stage, argv)], repeated SETUP_REPS times
    stages: list             # [(stage, argv)], timed, once per round
    setup_is_sample: bool    # set-up runs at full size: its stages are samples too
    eval_split: str

    @property
    def replays(self) -> bool:
        return any(stage == "repeats" for stage, _ in self.stages)


def _pipeline(scale: str) -> Workload:
    """ROADMAP Baseline configuration, all eight stages plus the model prior."""
    n, epochs, boot, perms = (5000, 100, 1024, 6) if scale == "full" else (300, 40, 64, 2)

    def stages(num_tasks, epochs, boot, perms):
        return [
            ("simulate", ["simulate", "--num-tasks", str(num_tasks), "--categories", "2",
                          "--repeats", "20", "--feature-noise", "0.1"]),
            ("infer", ["infer"]),
            ("train", ["train", "--epochs", str(epochs)]),
            ("predict", ["predict"]),
            ("infer_model", ["infer", "--prior", "model", "--posteriors", "posteriors_model.jsonl"]),
            ("eval", ["eval", "--split", "test"]),
            ("curve", ["curve", "--split", "val", "--bootstrap", str(boot)]),
            ("calibrate", ["calibrate", "--target-accuracy", "0.99", "--bootstrap", str(boot)]),
            # every test task, so the replay's size does not depend on how many
            # tasks the seed's calibration automates (6 x 500 replays; seed 0's
            # calibrated run makes 16 x 184)
            ("repeats", ["repeats", "--split", "test", "--permutations", str(perms),
                         "--deployment-threshold", "inf"]),
        ]

    return Workload(
        name="pipeline", scale=scale, num_tasks=n, repeats=20, categories=2, ratios=(0.8, 0.1, 0.1),
        bootstrap=boot, target=0.99,
        # warm-up: the same stages on a small dataset, so lazy set-up is paid before timing
        setup=stages(500, 2, 64, 2),
        stages=stages(n, epochs, boot, perms),
        setup_is_sample=False,
        eval_split="test",
    )


def _rescore(scale: str) -> Workload:
    """A wide dataset re-scored with an existing model: no training or replay timed."""
    n, epochs, boot = (10000, 20, 1024) if scale == "full" else (400, 20, 64)
    r = ["--ratios", "0.5,0.25,0.25"]
    return Workload(
        name="rescore", scale=scale, num_tasks=n, repeats=10, categories=4, ratios=(0.5, 0.25, 0.25),
        bootstrap=boot, target=0.95,
        setup=[
            ("simulate", ["simulate", "--num-tasks", str(n), "--repeats", "10", "--categories", "4"]),
            ("train", ["train", "--epochs", str(epochs)] + r),
        ],
        stages=[
            ("infer", ["infer"]),
            ("infer_model", ["infer", "--prior", "model", "--posteriors", "posteriors_model.jsonl"]),
            ("predict", ["predict"]),
            ("eval", ["eval", "--split", "all"] + r),
            ("curve", ["curve", "--split", "val", "--bootstrap", str(boot)] + r),
            ("calibrate", ["calibrate", "--target-accuracy", "0.95", "--bootstrap", str(boot)] + r),
        ],
        setup_is_sample=True,
        eval_split="all",
    )


WORKLOADS = {"pipeline": _pipeline, "rescore": _rescore}


# ---------------------------------------------------------------------------
# Program under test
# ---------------------------------------------------------------------------

def import_program():
    """Import crowdinfer from src/ of this checkout, never from elsewhere."""
    if not (SRC / "crowdinfer" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'crowdinfer'} not found; run from a crowdinfer checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import crowdinfer.cli as cli
    elapsed = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != (SRC / "crowdinfer").resolve():
        sys.exit(f"error: imported crowdinfer from {cli.__file__}, not from {SRC}")
    return cli, elapsed


def _reference_records():
    rng = random.Random(0)
    return [json.dumps({"task_id": f"t{i:06d}", "answer": rng.choice("abc"),
                        "alpha": [rng.random() for _ in range(3)]}) for i in range(600)]


_REFERENCE_RECORDS = _reference_records()


def reference_loop() -> float:
    """Time a fixed piece of work of the kind the stages do (JSON lines to
    objects and back, small numpy vectors); it never calls crowdinfer.

    On the 2-core Xeon VM these numbers come from, everything runs up to 2x
    slower for stretches of seconds to minutes.  Each stage time is divided by the
    reference loop's mean time around and during the stage, so the slowdown
    cancels out.
    """
    start = time.perf_counter()
    by_id = {}
    for line in _REFERENCE_RECORDS:
        rec = json.loads(line)
        by_id[rec["task_id"]] = (rec["answer"], np.asarray(rec["alpha"]))
    for _, alpha in list(by_id.values())[::10]:
        float(np.maximum(alpha - 0.5, 0.0).sum())
    for key, (_, alpha) in list(by_id.items())[::3]:
        json.dumps({"task_id": key, "alpha": alpha.tolist()})
    return time.perf_counter() - start


class HostSpeed:
    """Times reference_loop() every SAMPLE_EVERY_S from a SIGALRM handler
    while a stage runs.  `spent` is the handlers' own wall time, which the
    caller takes off the stage's time."""

    def __init__(self):
        self.times = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.times.append(reference_loop())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class Runner:
    """Runs stages in one work directory and keeps what each invocation did."""

    def __init__(self, cli, workdir: Path, seed: int):
        self.cli = cli
        self.workdir = workdir
        self.seed = seed
        self.attempted = 0      # stage invocations plus output checks
        self.failures = []      # "<label>: <reason>", one per failed invocation or check
        self.raw = {}           # stage -> [(wall seconds, mean reference loop seconds)]

    def run(self, label, argv, tracer=None) -> float:
        """Run one stage; returns its normalized time, or nan if it failed.

        The normalized time is the wall time times REFERENCE_S over the mean
        reference loop time just before, during and just after the stage.
        Traced stages are not sampled during the run, so that spans hold only
        program time.
        """
        self.attempted += 1
        full = argv + ["--outdir", str(self.workdir), "--seed", str(self.seed)]
        out = io.StringIO()
        ctx = tracer.stage(label) if tracer is not None else contextlib.nullcontext()
        speed = HostSpeed()
        sampling = speed if tracer is None else contextlib.nullcontext()
        references = [reference_loop() for _ in range(BRACKET)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), ctx, sampling:
                rc = self.cli.main(full)
        except Exception:  # a crash is a failed invocation; keep measuring the rest
            rc = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        elapsed = time.perf_counter() - start - speed.spent
        references += speed.times + [reference_loop() for _ in range(BRACKET)]
        reference = statistics.fmean(references)
        self.raw.setdefault(label, []).append((elapsed, reference))
        if rc != 0:
            self.failures.append(f"{label}: exit {rc}")
            return math.nan
        return elapsed * REFERENCE_S / reference

    def check(self, label, ok, reason) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {reason}")

    def digests(self) -> dict:
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(self.workdir.iterdir()) if p.is_file()
        }

    def check_repeatable(self, label, first):
        """Artifacts must be byte-identical to the first round's."""
        now = self.digests()
        if first is None:
            return now
        differ = sorted(k for k in now if now[k] != first.get(k))
        self.check(label, not differ, f"artifacts differ from the first run: {differ}")
        return first


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _jsonl(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _mode(alpha):
    shifted = np.maximum(alpha - 1.0, 0.0)
    total = shifted.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        mode = shifted / total
    mean = alpha / alpha.sum(axis=1, keepdims=True)
    return np.where(total > 0.0, mode, mean)


def _split(ids, ratios, seed):
    """Task ids per split, as the CLI's split_dataset assigns them."""
    names = sorted(ids)
    order = np.random.default_rng(seed).permutation(len(names))
    raw = [r * len(names) for r in ratios]
    quota = [math.floor(x) for x in raw]
    for i in sorted(range(3), key=lambda i: raw[i] - quota[i], reverse=True)[: len(names) - sum(quota)]:
        quota[i] += 1
    bounds = [0, quota[0], quota[0] + quota[1], len(names)]
    return [sorted(names[j] for j in order[bounds[s]:bounds[s + 1]]) for s in range(3)]


def _first_threshold(conf, corr, target):
    """Smallest threshold on the grid of observed confidences (plus 0) whose
    retained accuracy meets the target; inf when none does."""
    grid = np.unique(conf)
    if grid[0] > 0.0:
        grid = np.concatenate(([0.0], grid))
    sorted_conf = np.sort(conf)
    hits = np.concatenate((np.cumsum(corr[np.argsort(conf)][::-1])[::-1], [0]))
    pos = np.searchsorted(sorted_conf, grid, side="left")
    retained = conf.size - pos
    acc = hits[pos] / np.maximum(retained, 1)
    ok = np.flatnonzero((retained > 0) & (acc >= target))
    return float(grid[ok[0]]) if ok.size else math.inf


def calibration_oracle(wl: Workload, workdir: Path, seed: int) -> dict:
    """Recompute automation_ci and accuracy_ci from the prediction and
    posterior files with the benchmark's own vectorized code."""
    preds = {r["task_id"]: r["alpha"] for r in _jsonl(workdir / "predictions.jsonl")}
    posts = {r["task_id"]: r["alpha"] for r in _jsonl(workdir / "posteriors.jsonl")}
    _, val, test = _split(preds, wl.ratios, seed)

    def conf_correct(ids):
        q_hat = _mode(np.array([preds[t] for t in ids], dtype=float))
        q_ref = _mode(np.array([posts[t] for t in ids], dtype=float))
        k = q_hat.shape[1]
        conf = (k * q_hat.max(axis=1) - 1.0) / (k - 1)
        return conf, q_hat.argmax(axis=1) == q_ref.argmax(axis=1)

    vconf, vcorr = conf_correct(val)
    tconf, tcorr = conf_correct(test)
    thresholds = []
    for ss in np.random.SeedSequence(seed).spawn(wl.bootstrap):
        idx = np.random.default_rng(ss).integers(0, vconf.size, size=vconf.size)
        thresholds.append(_first_threshold(vconf[idx], vcorr[idx], wl.target))
    thresholds = np.array(thresholds)
    order = np.argsort(tconf)
    pos = np.searchsorted(tconf[order], thresholds, side="left")
    hits = np.concatenate((np.cumsum(tcorr[order][::-1])[::-1], [0]))
    retained = tconf.size - pos
    automation = retained / tconf.size
    accuracy = hits[pos][retained > 0] / retained[retained > 0]
    return {
        "automation_ci": np.quantile(automation, (0.025, 0.975)).tolist(),
        "accuracy_ci": (np.quantile(accuracy, (0.025, 0.975)).tolist() if accuracy.size
                        else [None, None]),
    }


def _close(a, b, rtol=QUALITY_RTOL) -> bool:
    return a is not None and b is not None and abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def quality(workdir: Path) -> dict:
    cal = json.loads((workdir / "calibration.json").read_text())
    out = {"automation_lb": cal["automation_ci"][0], "accuracy_lb": cal["accuracy_ci"][0]}
    repeats = workdir / "repeats.csv"
    if repeats.exists():
        rows = [line.split(",") for line in repeats.read_text().splitlines()
                if line and not line.startswith("#")]
        step1 = {r[0]: float(r[4]) for r in rows[1:] if r[1] == "1"}
        out["prior_gain_step1"] = step1["uniform"] - step1["informed"]
    return out


def check_outputs(runner: Runner, wl: Workload) -> None:
    """Check the artifacts of the last round (all rounds are byte-identical)."""
    workdir, seed = runner.workdir, runner.seed
    n, k = wl.num_tasks, wl.categories + 1

    tasks = _jsonl(workdir / "tasks.jsonl")
    runner.check("simulate", len(tasks) == n, f"{len(tasks)} task records, expected {n}")
    with open(workdir / "responses.jsonl") as fh:
        n_resp = sum(1 for line in fh if line.strip())
    runner.check("simulate", n_resp == n * wl.repeats,
                 f"{n_resp} responses, expected {n * wl.repeats}")

    alpha0 = json.loads((workdir / "model.json").read_text())["alpha0_sum"]
    runner.check("train", alpha0 == k, f"model alpha0_sum {alpha0}, expected {k}")

    ids = sorted(t["task_id"] for t in tasks)
    for stage, fname, base in (("infer", "posteriors.jsonl", k),
                               ("infer_model", "posteriors_model.jsonl", k),
                               ("predict", "predictions.jsonl", alpha0)):
        recs = _jsonl(workdir / fname)
        runner.check(stage, sorted(r["task_id"] for r in recs) == ids,
                     f"{fname}: {len(recs)} records do not cover the {n} tasks")
        off = [r["task_id"] for r in recs
               if r["n"] != wl.repeats or len(r["alpha"]) != k or min(r["alpha"]) <= 0.0
               or abs(math.fsum(r["alpha"]) - (base + r["n"])) > ALPHA_SUM_ATOL]
        runner.check(stage, not off, f"{fname}: {len(off)} records do not sum to "
                                     f"alpha0_sum + n (first {off[:1]})")

    report = json.loads((workdir / "report.json").read_text())
    split_n = n if wl.eval_split == "all" else round(wl.ratios[2] * n)
    runner.check("eval", report["n_tasks"] == split_n,
                 f"report n_tasks {report['n_tasks']}, expected {split_n}")

    curve = [line.split(",") for line in (workdir / "curve.csv").read_text().splitlines()
             if line and not line.startswith("#")][1:]
    autom = [float(r[1]) for r in curve]
    runner.check("curve", bool(autom) and autom[0] == 1.0
                 and all(a >= b for a, b in zip(autom, autom[1:])),
                 "curve.csv automation is not nonincreasing from 1")

    cal = json.loads((workdir / "calibration.json").read_text())
    runner.check("calibrate", cal["n_realizations"] == wl.bootstrap,
                 f"{cal['n_realizations']} realizations, expected {wl.bootstrap}")
    oracle = calibration_oracle(wl, workdir, seed)
    for key in ("automation_ci", "accuracy_ci"):
        got, want = cal[key], oracle[key]
        same = all(g == w or _close(g, w) for g, w in zip(got, want))
        runner.check("calibrate", same,
                     f"{key} {got} differs from recomputed {want}")

    if wl.replays:
        rows = [line for line in (workdir / "repeats.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        runner.check("repeats", len(rows) == 2 * wl.repeats,
                     f"repeats.csv has {len(rows)} rows, expected {2 * wl.repeats}")

    frozen = json.loads((BENCH / "reference.json").read_text())[wl.name].get(str(seed), {})
    if wl.scale != "full":
        frozen = {}
    got = quality(workdir)
    for key, want in frozen.items():
        runner.check(f"frozen {key}", got.get(key) == want or _close(got.get(key), want),
                     f"{got.get(key)} differs from the frozen {want}")


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Threads OpenBLAS uses, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return None


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else None
    return ref


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    digest = hashlib.sha256()
    for p in sorted((SRC / "crowdinfer").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _median(xs):
    xs = [x for x in xs if not math.isnan(x)]
    return statistics.median(xs) if xs else math.nan


def _traced(trace):
    return trace.installed() if trace is not None else contextlib.nullcontext()


def run_setup(runner: Runner, wl: Workload, trace) -> list:
    """SETUP_REPS set-ups, each a {stage: seconds}; the last one is traced
    when the set-up runs at full size."""
    reps, first = [], None
    for rep in range(SETUP_REPS):
        tr = trace if wl.setup_is_sample and rep == SETUP_REPS - 1 else None
        with _traced(tr):
            reps.append({stage: runner.run(stage, argv, tr) for stage, argv in wl.setup})
        if wl.setup_is_sample:
            first = runner.check_repeatable(f"set-up {rep + 1}", first)
    return reps


def run_rounds(runner: Runner, wl: Workload, seconds: float, trace):
    """Rounds of the timed stages until `seconds` have passed and at least
    MIN_ROUNDS were run; with a tracer, each untraced round is followed by a
    traced one, and one such pair is enough.

    Returns (untraced rounds, traced rounds), each round a {stage: seconds}.
    """
    plain, traced, first = [], [], None
    start = time.perf_counter()
    min_rounds = 1 if trace is not None else MIN_ROUNDS
    while len(plain) < min_rounds or time.perf_counter() - start < seconds:
        plain.append({stage: runner.run(stage, argv) for stage, argv in wl.stages})
        first = runner.check_repeatable(f"round {len(plain)}", first)
        if trace is not None:
            with _traced(trace):
                traced.append({stage: runner.run(stage, argv, trace) for stage, argv in wl.stages})
            first = runner.check_repeatable(f"traced round {len(traced)}", first)
    return plain, traced


def end_to_end(wl: Workload, setups, rounds) -> tuple:
    """End-to-end metric values, and the per-stage samples behind them."""
    samples = {}
    for rnd in (setups if wl.setup_is_sample else []) + rounds:
        for stage, t in rnd.items():
            samples.setdefault(stage, []).append(t)
    med = {stage: _median(ts) for stage, ts in samples.items()}
    values = {
        "pipeline_s": sum(med[stage] for stage in rounds[0]),
        "setup_s": _median([sum(r.values()) for r in setups]),
        "score_s": sum(med[stage] for stage in SCORE_STAGES),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for stage in ("simulate", "infer", "infer_model", "train", "predict", "repeats"):
        values[f"{stage}_s"] = med.get(stage, math.nan)
    return values, samples


def per_layer(trace, plain, traced) -> dict:
    """Per-layer values per traced round; a traced set-up counts once."""
    timed = set(traced[0])
    spans = {}
    for (stage, name), row in trace.stats.items():
        scale = len(traced) if stage in timed else 1
        key = f"cli.{stage}" if name == "cli" else name
        acc = spans.setdefault(key, [0.0, 0.0, 0, 0])
        for i, v in enumerate(row):
            acc[i] += v / scale
    out = {}
    for key, (s, self_s, calls, records) in spans.items():
        out.update({f"{key}.s": s, f"{key}.self_s": self_s,
                    f"{key}.calls": round(calls), f"{key}.records": round(records)})
    for cls in ("core.DirichletParams", "core.SoftLabel"):
        out[f"{cls}.constructed"] = out.get(f"{cls}.calls", 0)
    epochs = out.get("head.train_head.records", 0)
    out["head.epoch_s"] = out["head.train_head.s"] / epochs if epochs else 0.0
    out["priors.replay_steps"] = out.get("priors.repeats_run.records", 0)
    out["trace.overhead_s"] = (_median([sum(r.values()) for r in traced])
                               - _median([sum(r.values()) for r in plain]))
    return out


def check_trace(runner: Runner, wl: Workload, trace, n_traced: int) -> None:
    """Stage spans balance, and spans reached every name the CLI calls through."""
    for stage in trace.stage_names():
        total, parts = trace.balance(stage)
        runner.check(f"trace {stage}", abs(total - parts) <= 1e-9 * max(total, 1.0),
                     f"layer self times plus cli self time sum to {parts}, stage span {total}")
    n = wl.num_tasks
    expected = [("infer", "core.tally", n), ("infer", "bayes.posterior", n),
                ("infer_model", "priors.blend_prior", n),
                ("infer_model", "head.head_forward", n),   # through cli's `predict` alias
                ("predict", "head.head_forward", n), ("predict", "core.read_tasks", 1)]
    if wl.replays:   # priors imports posterior_mode from bayes
        expected.append(("repeats", "bayes.posterior_mode", None))
    for stage, name, want in expected:
        got = trace.stats[(stage, name)][2] / n_traced if (stage, name) in trace.stats else 0
        runner.check(f"trace {stage}", got > 0 if want is None else got == want,
                     f"{name} traced {got} calls per round, expected {want or 'some'}")


def _finite(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    cli, import_s = import_program()
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload](args.scale)
    trace = Tracer() if args.trace else None
    workdir = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = Runner(cli, workdir, args.seed)
    try:
        setups = run_setup(runner, wl, trace)
        plain, traced = run_rounds(runner, wl, args.seconds, trace)
        if not runner.failures:
            check_outputs(runner, wl)
        if trace is not None:
            check_trace(runner, wl, trace, len(traced))
        q = quality(workdir) if not runner.failures else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    e2e, samples = end_to_end(wl, setups, plain)
    values, wanted = e2e, spec["end_to_end"]
    if trace is not None:
        values, wanted = per_layer(trace, plain, traced), spec["per_layer"]
    metrics = {m["name"]: {"value": _finite(values.get(m["name"], 0)), "unit": m["unit"]}
               for m in wanted}

    failed = len(runner.failures)
    print(json.dumps({
        "workload": wl.name, "scale": args.scale, "env": environment(args.seed),
        "import_s": import_s, "setups": len(setups), "rounds": len(plain),
        "traced_rounds": len(traced), "samples": samples, "raw": runner.raw, "quality": q,
        "repeats_s": _finite(e2e["repeats_s"]),
        "error_rate": failed / runner.attempted, "failures": runner.failures,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
