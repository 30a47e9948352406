"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so a plain
pytest run yields a per-criterion checklist, then asserts.  The expensive
end-to-end pipeline is shared by criteria 8-11 through module fixtures and
is executed twice so the determinism criterion can compare bytes.
"""

import hashlib
import json
import math
import sys
import time

import numpy as np
import pytest
from scipy import integrate, special

from crowdinfer.autothresh import ambiguity_calibration, write_bins_csv
from crowdinfer.bayes import (
    point_estimates,
    posterior,
    posterior_mean,
    posterior_mode,
    uniform_prior,
)
from crowdinfer import cli
from crowdinfer.cli import main
from crowdinfer.core import (
    CategoryScheme,
    DirichletParams,
    read_alpha_records,
    task_rng,
)
from crowdinfer.head import _chernoff, chernoff, chernoff_grad, head_forward, init_model
from crowdinfer.metrics import AmbiguityConfig, ambiguity, confidence, soft_distance
from crowdinfer.priors import repeats_run, repeats_summary, write_repeats_csv
from crowdinfer.sim import SimConfig, simulate_dataset, synthetic_predictor


@pytest.fixture
def check(request):
    """Emit one PASS/FAIL line per criterion through the live terminal."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def check(num: int, name: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        line = f"criterion {num:02d} {name}: {status}{suffix}"
        if reporter is not None:
            reporter.write_line("")
            reporter.write_line(line)
        else:
            sys.__stdout__.write(line + "\n")
        assert ok, line

    return check


# ---------------------------------------------------------------------------
# 1. conjugate posterior vs brute-force grid quadrature
# ---------------------------------------------------------------------------


def _simplex_grid(step=1e-3):
    # midpoint grid under the stick-breaking map q = (u, (1-u)v, (1-u)(1-v)),
    # area element (1-u) du dv: covers the simplex without boundary slivers
    u = np.arange(step / 2, 1.0, step)
    ug, vg = np.meshgrid(u, u, indexing="ij")
    ug, vg = ug.ravel(), vg.ravel()
    q = np.stack([ug, (1.0 - ug) * vg, (1.0 - ug) * (1.0 - vg)])
    return q, np.log(q), np.log1p(-ug)


def test_criterion_01_conjugacy_grid_oracle(check):
    start = time.monotonic()
    rng = np.random.default_rng(0)
    grid_q, grid_logq, grid_jac = _simplex_grid(1e-3)
    worst = 0.0
    for _ in range(50):
        # prior components >= 1: below that the density kernel is singular at
        # the simplex boundary and the grid tests quadrature, not conjugacy
        prior = DirichletParams(rng.uniform(1.0, 4.0, size=3))
        n = int(rng.integers(0, 7))
        counts = rng.multinomial(n, (0.3, 0.5, 0.2))
        analytic = posterior_mean(posterior(prior, counts)).q
        expo = prior.alpha + counts - 1.0
        logw = expo @ grid_logq + grid_jac
        w = np.exp(logw - logw.max())
        brute = grid_q @ (w / w.sum())
        worst = max(worst, float(np.max(np.abs(analytic - brute) / brute)))
    elapsed = time.monotonic() - start
    check(
        1,
        "conjugacy vs grid oracle",
        worst <= 1e-3 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. closed-form Chernoff vs numerical integration
# ---------------------------------------------------------------------------


def _quad_bhattacharyya_beta(a, b):
    def integrand(x):
        la = (a[0] - 1) * math.log(x) + (a[1] - 1) * math.log1p(-x) - special.betaln(*a)
        lb = (b[0] - 1) * math.log(x) + (b[1] - 1) * math.log1p(-x) - special.betaln(*b)
        return math.exp(0.5 * la + 0.5 * lb)

    val, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
    return -math.log(val)


def test_criterion_02_chernoff_vs_quadrature(check):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.5, 10.0, size=2)
        b = rng.uniform(0.5, 10.0, size=2)
        got = chernoff(DirichletParams(a), DirichletParams(b), 0.5)
        ref = _quad_bhattacharyya_beta(a, b)
        worst = max(worst, abs(got - ref))
    anchor = chernoff(DirichletParams([1.0, 1.0]), DirichletParams([2.0, 1.0]), 0.5)
    ok = worst <= 1e-4 and abs(anchor - 0.05889) <= 1e-4
    check(2, "chernoff vs quadrature", ok, f"max |err| {worst:.2e}, anchor {anchor:.7f}")


# ---------------------------------------------------------------------------
# 3. analytic gradient vs central finite differences
# ---------------------------------------------------------------------------


def test_criterion_03_gradient_finite_differences(check):
    # relative error is norm-wise per instance: the difference quotient at
    # h=1e-5 carries a noise floor of eps * |log-gamma terms| / 2h, which
    # dominates any individual component whose gradient is ~1e-4 of the rest
    rng = np.random.default_rng(2)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        a = rng.uniform(0.5, 50.0, size=k)
        b = rng.uniform(0.5, 50.0, size=k)
        tau = float(rng.uniform(0.1, 0.9))
        grad = np.asarray(chernoff_grad(DirichletParams(a), DirichletParams(b), tau))
        fd = np.empty(k)
        for j in range(k):
            ap, am = a.copy(), a.copy()
            ap[j] += h
            am[j] -= h
            fd[j] = (_chernoff(ap, b, tau) - _chernoff(am, b, tau)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(grad - fd)) / np.max(np.abs(fd))))
    check(3, "gradient vs finite differences", worst < 1e-5, f"max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. head output parameter-sum invariant
# ---------------------------------------------------------------------------


def test_criterion_04_head_sum_invariant(check):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 12))
        k = int(rng.integers(2, 6))
        alpha0_sum = float(rng.uniform(1.0, 10.0))
        model = init_model(d, k, alpha0_sum, rng)
        for _ in range(1000):
            x = rng.normal(size=d) * 3.0
            n = int(rng.integers(0, 200))
            alpha = head_forward(model, x, n)
            worst = max(worst, abs(alpha.alpha_sum - (alpha0_sum + n)))
    check(4, "head parameter-sum invariant", worst <= 1e-9, f"max |err| {worst:.2e} over 1e4 draws")


# ---------------------------------------------------------------------------
# 5. posterior mode identity under the uniform prior
# ---------------------------------------------------------------------------


def test_criterion_05_mode_identity(check):
    rng = np.random.default_rng(4)
    scheme = CategoryScheme(("a", "b"))
    prior = uniform_prior(scheme)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        counts = rng.multinomial(n, (0.2, 0.5, 0.3))
        mode = posterior_mode(posterior(prior, counts)).q
        worst = max(worst, float(np.max(np.abs(mode - counts / n))))
    check(5, "posterior mode identity", worst <= 1e-12, f"max |err| {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. metric anchors
# ---------------------------------------------------------------------------


def test_criterion_06_metric_anchors(check):
    d = soft_distance([0.03, 0.9, 0.07], [0.0, 1.0, 0.0])
    cfg = AmbiguityConfig()
    checks = {
        "distance worked example": abs(d - 0.1) < 1e-15,
        "confidence one-hot": confidence([0.0, 1.0, 0.0]) == 1.0,
        "confidence uniform": confidence([1 / 3, 1 / 3, 1 / 3]) == 0.0,
        "ambiguity all-cs": ambiguity([0.0, 0.0, 1.0], cfg) == 1.0,
        "ambiguity unanimous": ambiguity([0.0, 1.0, 0.0], cfg) == 0.0,
        "penalty anchor": abs(math.exp(0.2 * cfg.gamma) - 0.4) < 1e-12,
    }
    failed = [name for name, ok in checks.items() if not ok]
    check(6, "metric anchors", not failed, "all six" if not failed else "; ".join(failed))


# ---------------------------------------------------------------------------
# 7. repeats replay exactness (plus artifacts for criterion 11)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def repeats500(tmp_path_factory):
    out = tmp_path_factory.mktemp("repeats500")
    cfg = SimConfig(num_tasks=500, num_proper=2, repeats=5, seed=0)
    _, table, answers = simulate_dataset(cfg)
    prior = np.ones(3)
    start = time.monotonic()
    finals = []
    for task_id, row in zip(table.task_ids, answers):
        rng = task_rng(cfg.seed, f"repeats:{task_id}")
        finals.append(repeats_run(row, prior, 16, rng)[-1])
    elapsed = time.monotonic() - start
    paths = (out / "repeats_a.csv", out / "repeats_b.csv")
    for p in paths:
        summary = repeats_summary(table.task_ids, answers, np.ones((len(table), 3)),
                                  permutations=16, seed=cfg.seed, variant="uniform")
        write_repeats_csv(p, [summary], provenance={"seed": cfg.seed})
    return {"finals": np.array(finals), "elapsed": elapsed, "paths": paths}


def test_criterion_07_repeats_final_step_zero(check, repeats500):
    finals = repeats500["finals"]
    elapsed = repeats500["elapsed"]
    ok = bool((finals == 0.0).all()) and elapsed < 30.0
    check(
        7,
        "uniform replay ends at zero",
        ok,
        f"max final {finals.max():.1e} over {finals.size} tasks, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8-9-11. end-to-end pipeline, run twice for byte comparison
# ---------------------------------------------------------------------------


def _run_pipeline(outdir) -> float:
    """Full CLI pass on the acceptance-scale dataset; returns train seconds."""
    out = str(outdir)

    def run(*argv):
        assert main([argv[0], "--outdir", out, *argv[1:]]) == 0, argv

    run("simulate", "--num-tasks", "5000", "--categories", "2",
        "--repeats", "20", "--feature-noise", "0.1", "--seed", "0")
    run("infer")
    t0 = time.monotonic()
    run("train", "--epochs", "400")
    train_seconds = time.monotonic() - t0
    run("predict")
    run("eval", "--split", "test")
    run("curve", "--split", "val", "--bootstrap", "1024")
    run("calibrate", "--target-accuracy", "0.99", "--bootstrap", "1024")
    run("repeats", "--split", "test", "--permutations", "16")
    return train_seconds


@pytest.fixture(scope="module")
def pipeline_pair(tmp_path_factory):
    a = tmp_path_factory.mktemp("pipe_a")
    b = tmp_path_factory.mktemp("pipe_b")
    train_seconds = _run_pipeline(a)
    _run_pipeline(b)
    return {"a": a, "b": b, "train_seconds": train_seconds}


def test_criterion_08_end_to_end_automation(check, pipeline_pair):
    cal = json.loads((pipeline_pair["a"] / "calibration.json").read_text())
    acc_lo, acc_hi = cal["accuracy_ci"]
    auto_lo, _ = cal["automation_ci"]
    overlaps = acc_lo <= 1.0 and acc_hi >= 0.985
    train_seconds = pipeline_pair["train_seconds"]
    ok = overlaps and auto_lo > 0.3 and train_seconds <= 600.0
    check(
        8,
        "end-to-end threshold calibration",
        ok,
        f"acc CI [{acc_lo:.4f}, {acc_hi:.4f}], automation LB {auto_lo:.3f}, "
        f"train {train_seconds:.0f}s",
    )


def _step1_medians(path):
    medians = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("variant"):
            continue
        cells = line.split(",")
        if cells[1] == "1":
            medians[cells[0]] = float(cells[4])
    return medians


def test_criterion_09_informed_prior_starts_closer(check, pipeline_pair):
    medians = _step1_medians(pipeline_pair["a"] / "repeats.csv")
    ok = medians["informed"] < medians["uniform"]
    check(
        9,
        "informed prior beats uniform at step 1",
        ok,
        f"informed {medians['informed']:.4f} < uniform {medians['uniform']:.4f}",
    )


# ---------------------------------------------------------------------------
# 10. ambiguity calibration of the synthetic predictor
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_bins(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthbins")
    cfg = SimConfig(num_tasks=3000, num_proper=2, repeats=0,
                    predictor_noise=0.5, seed=0)
    _, table, _ = simulate_dataset(cfg)
    amb_cfg = AmbiguityConfig()
    pred, act = [], []
    for task_id, q in zip(table.task_ids, table.true_q):
        rng = task_rng(cfg.seed, f"pred:{task_id}")
        alpha = synthetic_predictor(q, 20, cfg, rng)
        pred.append(ambiguity(posterior_mode(alpha).q, amb_cfg))
        act.append(ambiguity(q, amb_cfg))
    bins_ = ambiguity_calibration(pred, act, bins=10)
    xs = [b.mean_predicted for b in bins_ if b.count]
    ys = [b.mean_actual for b in bins_ if b.count]
    paths = (out / "bins_a.csv", out / "bins_b.csv")
    for p in paths:
        write_bins_csv(p, bins_, provenance={"seed": cfg.seed})
    return {"xs": xs, "ys": ys, "paths": paths}


def test_criterion_10_ambiguity_tracks_linearly(check, synthetic_bins):
    xs, ys = synthetic_bins["xs"], synthetic_bins["ys"]
    r = float(np.corrcoef(xs, ys)[0, 1])
    check(10, "binned ambiguity correlation", r > 0.9, f"Pearson {r:.4f} over {len(xs)} bins")


# ---------------------------------------------------------------------------
# 11. byte-identical reruns of criteria 7-10 artifacts
# ---------------------------------------------------------------------------


def test_criterion_11_deterministic_reports(check, repeats500, pipeline_pair, synthetic_bins):
    mismatched = []
    p7a, p7b = repeats500["paths"]
    if p7a.read_bytes() != p7b.read_bytes():
        mismatched.append("repeats500.csv")
    for name in ("report.json", "bins.csv", "curve.csv", "calibration.json", "repeats.csv"):
        if (pipeline_pair["a"] / name).read_bytes() != (pipeline_pair["b"] / name).read_bytes():
            mismatched.append(name)
    p10a, p10b = synthetic_bins["paths"]
    if p10a.read_bytes() != p10b.read_bytes():
        mismatched.append("synthetic bins.csv")
    check(
        11,
        "byte-identical reruns",
        not mismatched,
        "7 report files" if not mismatched else "differs: " + ", ".join(mismatched),
    )


# ---------------------------------------------------------------------------
# frozen artifact digests
# ---------------------------------------------------------------------------

FROZEN_SHA256 = {
    "bins.csv": "137dc63a9de494cd0051769cc132bf6a5f47ae5404bb56d342e27b1405063ba6",
    "calibration.json": "8a80c840e71bbfda3ab636650f42e75d4f2dbce8509a93401df41c7898fbdf62",
    "curve.csv": "4ae28ad1dd2a00aaf3ed7342a066f7a657ae4ad2458e14ee14464582e0e943ff",
    "model.json": "a368edb8968fd0c8e423f7af835d095bbcbd74d919da3e580250baf50f7e44cb",
    "posteriors.jsonl": "087be81ee4988848ba95833fdb85117769a23f98b1892cc6a95f4ee5d37d83b1",
    "predictions.jsonl": "6669e0673450450fed0fbeabbe10e68ba95dc286fb459d8380838d8e3e1f844b",
    "repeats.csv": "5e581f9ae78297f00ad0a4dc81dd159ad39406c3a124551ac78db9e780b0c1fb",
    "repeats500.csv": "3c1d4cfbf2d7c7a4cac0b1760d0d8247989d50b29b99cf6e2eaa1cb49745520b",
    "report.json": "ff52251e5e997c187064cd7e9a012450e124d5f31495b97aac1fc4469ea6fda9",
    "responses.jsonl": "a54d15dea657059c8a22a7d3f1f32a1a6fffc38b1d7b156da16e016b9124b25c",
    "scheme.json": "831f9c0c16c7fce4643c977dd04c30be78e9b4840851c9b10a75bc4d3ab5b71f",
    "tasks.jsonl": "9ee1e053bfeda4e9d3f32b14a7206225c5e6925e34a01bffb0b7831ea21713cf",
}


def test_artifact_digests_frozen(repeats500, pipeline_pair):
    """Every seed-0 acceptance artifact keeps its bytes across refactors.

    Criterion 11 compares two runs of the same code; these digests pin the
    bytes themselves.  Frozen with Python 3.11, numpy 2.4.6 and OpenBLAS
    0.3.31 (scipy-openblas build): model.json and the files derived from it
    carry full-precision floats from BLAS matrix products, so another numpy
    or BLAS build may legitimately move them by an ULP.
    """
    paths = {p.name: p for p in pipeline_pair["a"].iterdir()}
    paths["repeats500.csv"] = repeats500["paths"][0]
    got = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}
    changed = sorted(name for name in got.keys() | FROZEN_SHA256.keys()
                     if got.get(name) != FROZEN_SHA256.get(name))
    assert not changed, f"artifact bytes changed: {changed}"


def test_wide_model_digest_frozen(tmp_path, monkeypatch):
    """model.json and the per-epoch losses of a small K = 5 run keep their bytes.

    The acceptance pipeline trains a K = 3 head with model selection; this run
    covers a wider head, several minibatches per epoch, a validation set and
    select=last, so every Adam step reaches the file.  Same build caveat as
    above.
    """
    history = []
    train_head = cli.train_head

    def recording(*args, callback, **kwargs):
        def record(epoch, train_loss, val_loss):
            history.append(f"{epoch} {train_loss.hex()} {val_loss.hex()}")
            callback(epoch, train_loss, val_loss)

        return train_head(*args, callback=record, **kwargs)

    monkeypatch.setattr(cli, "train_head", recording)
    out = str(tmp_path)
    assert main(["simulate", "--outdir", out, "--num-tasks", "300", "--categories", "4",
                 "--repeats", "12", "--seed", "3"]) == 0
    assert main(["infer", "--outdir", out]) == 0
    assert main(["train", "--outdir", out, "--epochs", "40", "--batch-size", "64",
                 "--learning-rate", "0.01", "--select", "last", "--seed", "3"]) == 0
    assert len(history) == 40
    model = hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest()
    losses = hashlib.sha256("\n".join(history).encode()).hexdigest()
    assert model == "886be3871f5ca5b81a04252ce481831f6b57a91558e765d2c32f4586c2ad6eaf"
    assert losses == "796bd62dba141beba0514cfe59776093c722773fe6f4bba3a8d011f6d8491870"


def test_wide_eval_digest_frozen(tmp_path):
    """report.json and bins.csv of a K = 12 eval keep their bytes.

    The digests above pin eval's artifacts at K = 3 only.  Here most reference
    rows have eight or more supported components, where a row-wise cross
    entropy can add its terms in another order than a per-task sum, and the
    mode estimates leave some reference-supported components at zero (infinite
    cross entropy).  Both point estimates are scored.  Same build caveat as
    above.
    """
    out = str(tmp_path)
    for argv in (["simulate", "--num-tasks", "400", "--categories", "11",
                  "--repeats", "30", "--seed", "5"],
                 ["infer"],
                 ["train", "--epochs", "10", "--batch-size", "64", "--learning-rate", "0.01",
                  "--seed", "5"],
                 ["predict"],
                 ["eval", "--split", "all"],
                 ["eval", "--split", "all", "--point-estimate", "mean",
                  "--report", "report_mean.json", "--bins-csv", "bins_mean.csv"]):
        assert main([argv[0], "--outdir", out, *argv[1:]]) == 0, argv
    posts = read_alpha_records(tmp_path / "posteriors.jsonl", 12)
    supported = (point_estimates(posts.alpha) > 0.0).sum(axis=1)
    assert (supported >= 8).sum() > 100
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ("report.json", "bins.csv", "report_mean.json", "bins_mean.csv")}
    assert got == {
        "report.json": "6598aa8dc60b8b7ab4ace8cf78c437fcb0da121bb80c91f6b872d5bcbe78ef3f",
        "bins.csv": "9858f46eea75ce0835a681ad81383fe6aa39c263b86f51876973f3c621bc3cce",
        "report_mean.json": "888240a7579d709cbf22c401a643cc609f6e5f14e98813d9ff68b0b699922623",
        "bins_mean.csv": "5776daafcb9d3a0d204151269fd6d874e894a7a2045fa2c614cfe1f962f6bfe5",
    }
