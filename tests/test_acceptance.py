"""Release gate: one test and one printed verdict line per criterion.

Fast numerical criteria run first; the desk-scale pipeline (synthesize,
train three seeds per machine at two reversal strengths, evaluate) backs
the training-dynamics criteria and is shared by them through a module
fixture.  Each test records its verdict line as a `verdict` user property;
tests/conftest.py prints them in the terminal summary, where pytest's
output capture does not hide them.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from grhd import autodiff as ad
from grhd.autodiff.gradcheck import grl_twin_check, run_suite
from grhd.cli import main as cli_main
from grhd.metrics import auc, harmonic_mean, pauc
from grhd.model import lambda_schedule, model_gradcheck

REPO_ROOT = Path(__file__).resolve().parent.parent
MACHINES = ("toycar", "fan")
SEEDS = (1, 2, 3)


def verdict(record_property, criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    record_property("verdict", f"{status} criterion {criterion}: {detail}")
    return ok


# ------------------------------------------------------- fast criteria ------

def test_criterion_1_grl_twin_rule(record_property):
    start = time.monotonic()
    worst = max(grl_twin_check(seed=s) for s in range(20))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 10.0
    assert verdict(record_property, 1, ok,
                   f"reversal twin rule, 20 seeds: max_rel_err={worst:.3e} "
                   f"(tol 1e-09) in {elapsed:.1f}s (limit 10s)")


def test_criterion_2_finite_difference_gate(record_property):
    start = time.monotonic()
    report = run_suite(seed=0)
    suite_worst = max(c.max_rel_err for c in report.checks)
    net_worst = model_gradcheck(seed=0)
    elapsed = time.monotonic() - start
    worst = max(suite_worst, net_worst)
    ok = report.passed and worst < 1e-6 and elapsed < 60.0
    assert verdict(record_property, 2, ok,
                   f"finite differences, op suite + assembled network: "
                   f"max_rel_err={worst:.3e} (tol 1e-06) in {elapsed:.1f}s "
                   f"(limit 60s)")


def test_criterion_3_focal_zero_equals_ce(record_property):
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        z = rng.standard_normal((16, 6))
        labels = rng.integers(0, 6, size=16)
        a = ad.Tensor(z.copy(), requires_grad=True)
        b = ad.Tensor(z.copy(), requires_grad=True)
        loss_ce = ad.cross_entropy(a, labels)
        loss_fl = ad.focal_loss(b, labels, gamma_f=0.0)
        loss_ce.backward()
        loss_fl.backward()
        if loss_ce.item() != loss_fl.item() or \
                not np.array_equal(a.grad, b.grad):
            ok = False
            break
    assert verdict(record_property, 3, ok,
                   "focal loss with focusing parameter 0 is bitwise "
                   "identical to cross-entropy over 100 batches "
                   "(values and gradients)")


def test_criterion_4_ranking_metrics_vs_brute_force(record_property):
    def brute_auc(normals, anomalies):
        wins = 0.0
        for a in anomalies:
            for n in normals:
                wins += 1.0 if a > n else (0.5 if a == n else 0.0)
        return wins / (len(normals) * len(anomalies))

    rng = np.random.default_rng(42)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 31))
        m = int(rng.integers(1, 31))
        normals = np.round(rng.uniform(0, 1, n), 1).tolist()
        anomalies = np.round(rng.uniform(0, 1, m), 1).tolist()
        if auc(normals, anomalies) != brute_auc(normals, anomalies):
            ok = False
            break
        if pauc(normals, anomalies, p=1.0) != auc(normals, anomalies):
            ok = False
            break
    assert verdict(record_property, 4, ok,
                   "auc matches the exhaustive pair-counting oracle "
                   "on 200 tie-heavy score sets and pauc(p=1) "
                   "equals auc exactly")


def test_criterion_5_harmonic_mean_reference_totals(record_property):
    first = harmonic_mean([84.64, 72.43, 68.82])
    second = harmonic_mean([77.46, 61.68, 61.06])
    ok = abs(first - 74.72) <= 0.01 and abs(second - 65.93) <= 0.01
    assert verdict(record_property, 5, ok,
                   f"harmonic totals {first:.2f} (want 74.72 +/- 0.01) and "
                   f"{second:.2f} (want 65.93 +/- 0.01)")


def test_criterion_6_schedule_identities(record_property):
    anneal_ok = all(ad.cosine_anneal(lr0, 0.0, 0, total) == lr0
                    for lr0 in (0.001, 0.01, 0.5)
                    for total in (1, 10, 150))
    ramp_zero = lambda_schedule(0.0) == 0.0
    grid = np.linspace(0.0, 1.0, 1000)
    values = [lambda_schedule(float(p)) for p in grid]
    monotone = all(b > a for a, b in zip(values, values[1:]))
    ok = anneal_ok and ramp_zero and monotone
    assert verdict(record_property, 6, ok,
                   "cosine_anneal returns lr0 exactly at epoch 0, "
                   "lambda_schedule(0) = 0 and the ramp is strictly "
                   "increasing on a 1000-point grid")


def test_criterion_10_readme_scale_statement(record_property):
    readme = (REPO_ROOT / "README.md").read_text().lower()
    ok = "not reproducible" in readme and "dcase" in readme
    assert verdict(record_property, 10, ok,
                   "README states that published DCASE-scale "
                   "results are not reproducible at desk scale")


# --------------------------------------------------- desk-scale pipeline ----

def _loss_totals(log_path):
    rows = log_path.read_text().splitlines()[1:]
    return [float(r.split(",")[6]) for r in rows]


def _report_totals(report_path):
    totals = {}
    for row in report_path.read_text().splitlines()[1:]:
        cells = row.split(",")
        if cells[:3] == ["ALL", "ALL", "ALL"]:
            totals[cells[3]] = float(cells[4]) / 100.0
    return totals


def _run_training(data, out, machine, seed, alpha):
    args = ["train", "--data", str(data), "--machine", machine,
            "--out", str(out), "--seed", str(seed), "--epochs", "30"]
    if alpha is not None:
        args += ["--alpha", str(alpha)]
    assert cli_main(args) == 0


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("gate")
    data = root / "data"
    cfg = root / "synth.cfg"
    cfg.write_text(
        "machines = toycar, fan\n"
        "sections_per_machine = 2\n"
        "attr_groups = 3\n"
        "source_count = 200\n"
        "target_count = 10\n"
        "test_normal_count = 10\n"
        "test_anomaly_count = 10\n"
        "duration = 1.0\n"
        "seed = 1\n")

    start = time.monotonic()
    assert cli_main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    runs = {}
    for machine in MACHINES:
        for seed in SEEDS:
            ckpt = root / f"{machine}_s{seed}_a1.ckpt"
            _run_training(data, ckpt, machine, seed, alpha=None)
            report = ckpt.with_suffix(".report.csv")
            assert cli_main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                             "--out", str(report)]) == 0
            runs[(machine, seed, 1.0)] = {
                "ckpt": ckpt,
                "losses": _loss_totals(ckpt.with_suffix(".loss.csv")),
                "totals": _report_totals(report),
                "report": report,
            }
    elapsed = time.monotonic() - start

    for machine in MACHINES:
        for seed in SEEDS:
            ckpt = root / f"{machine}_s{seed}_a0.ckpt"
            _run_training(data, ckpt, machine, seed, alpha=0.0)
            report = ckpt.with_suffix(".report.csv")
            assert cli_main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                             "--out", str(report)]) == 0
            runs[(machine, seed, 0.0)] = {
                "ckpt": ckpt,
                "losses": _loss_totals(ckpt.with_suffix(".loss.csv")),
                "totals": _report_totals(report),
                "report": report,
            }
    return {"root": root, "data": data, "runs": runs, "elapsed": elapsed}


def test_criterion_7_training_convergence_and_detection(pipeline,
                                                        record_property):
    runs = pipeline["runs"]
    ratios = []
    for machine in MACHINES:
        for seed in SEEDS:
            losses = runs[(machine, seed, 1.0)]["losses"]
            ratios.append(losses[29] / losses[0])
    converged = all(r <= 0.5 for r in ratios)

    means = {}
    for machine in MACHINES:
        totals = [runs[(machine, seed, 1.0)]["totals"] for seed in SEEDS]
        means[machine] = {
            "auc_s": float(np.mean([t["auc_s"] for t in totals])),
            "auc_t": float(np.mean([t["auc_t"] for t in totals])),
        }
    detects = all(m["auc_s"] >= 0.90 and m["auc_t"] >= 0.80
                  for m in means.values())
    in_budget = pipeline["elapsed"] < 900.0

    detail = (f"loss ratio epoch30/epoch1 max={max(ratios):.3f} "
              f"(limit 0.5); 3-seed mean AUC " +
              " ".join(f"{m}: s={v['auc_s']:.3f} t={v['auc_t']:.3f}"
                       for m, v in means.items()) +
              f" (limits 0.90/0.80); pipeline {pipeline['elapsed']:.0f}s "
              f"(limit 900s)")
    assert verdict(record_property, "7",
                   converged and detects and in_budget, detail)


def test_criterion_8_reversal_helps_target_domain(pipeline, record_property):
    runs = pipeline["runs"]

    def mean_target(alpha):
        return float(np.mean([runs[(m, s, alpha)]["totals"]["auc_t"]
                              for m in MACHINES for s in SEEDS]))

    with_grl = mean_target(1.0)
    without = mean_target(0.0)
    ok = with_grl >= without
    assert verdict(record_property, 8, ok,
                   f"3-seed mean target AUC with reversal {with_grl:.3f} >= "
                   f"without {without:.3f}")


def test_criterion_9_bitwise_determinism(pipeline, record_property):
    data = pipeline["data"]
    root = pipeline["root"]
    first = pipeline["runs"][("toycar", 1, 1.0)]
    again = root / "toycar_s1_a1_again.ckpt"
    _run_training(data, again, "toycar", 1, alpha=None)
    report_again = again.with_suffix(".report.csv")
    assert cli_main(["eval", "--ckpt", str(again), "--data", str(data),
                     "--out", str(report_again)]) == 0

    ckpt_same = first["ckpt"].read_bytes() == again.read_bytes()
    log_same = first["ckpt"].with_suffix(".loss.csv").read_bytes() == \
        again.with_suffix(".loss.csv").read_bytes()
    report_same = first["report"].read_bytes() == report_again.read_bytes()
    ok = ckpt_same and log_same and report_same
    assert verdict(record_property, 9, ok,
                   f"repeat run byte-identical: checkpoint={ckpt_same} "
                   f"loss_log={log_same} report={report_same}")
