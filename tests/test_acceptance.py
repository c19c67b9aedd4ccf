"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with `pytest -s` or `-rA` to
see them); a failure prints FAIL before the assertion fires. Criteria 7-9
share two full pipeline runs per domain at default settings (seed 42), done
once in a module fixture.
"""

import hashlib
import math
import os

import numpy as np
import pytest

from conftest import finite_difference_check, relative_deviation, segment_offsets
from threatbench.evalx import ConfusionMatrix, report_from_confusion, roc_auc
from threatbench.forest import average_path_length, fit_isolation_forest, iforest_score
from threatbench.linear import LogisticModel, logistic_gradient, logistic_loss
from threatbench.neural import (
    calibrate_threshold,
    dense_loss_and_grads,
    detect_anomalies,
    init_dense_autoencoder,
    init_lstm_autoencoder,
    lstm_loss,
    lstm_loss_and_grads,
)
from threatbench.pipeline import LeakageAudit, default_config, emit_report, run_domain
from threatbench.preprocess import smote_oversample
from threatbench.tabular import RngStream


def verdict(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} - {criterion}")
    assert ok, criterion


# -- criterion 1: metric-formula reproduction (exact) ---------------------------------


def test_criterion_1_metric_formulas():
    cases = [(37, 55, 0.44), (39, 61, 0.48), (80, 49, 0.61), (87, 57, 0.69), (54, 100, 0.70)]
    ok = True
    for p_pct, r_pct, expected_f1 in cases:
        tp = p_pct * r_pct
        fp = r_pct * (100 - p_pct)
        fn = p_pct * (100 - r_pct)
        rep = report_from_confusion(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=1000))
        threat = rep.per_class["1"]
        ok &= abs(threat["precision"] - p_pct / 100) < 1e-12
        ok &= abs(threat["recall"] - r_pct / 100) < 1e-12
        ok &= round(threat["f1"], 2) == expected_f1
    verdict("1: classification_report reproduces all five reported precision/recall->F1 triples", ok)


# -- criterion 2: AUC oracle equivalence ----------------------------------------------


def test_criterion_2_auc_oracle():
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(200):
        n = int(rng.integers(4, 51))
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
        ok &= roc_auc(scores, labels) == brute / (len(pos) * len(neg))
    verdict("2: rank-based AUC equals brute-force pair counting on 200 randomized sets", ok)


# -- criterion 3: gradient checks ------------------------------------------------------


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(303)
    # logistic
    X = rng.normal(size=(5, 3))
    y = rng.integers(0, 2, size=5).astype(float)
    sw = rng.uniform(0.5, 2.0, size=5)
    model = LogisticModel(weights=rng.normal(size=3), bias=0.1, l2=0.05)
    grad_w, grad_b = logistic_gradient(model, X, y, sw)
    eps = 1e-5
    worst = 0.0
    for j in range(3):
        model.weights[j] += eps
        up = logistic_loss(model, X, y, sw)
        model.weights[j] -= 2 * eps
        down = logistic_loss(model, X, y, sw)
        model.weights[j] += eps
        worst = max(worst, relative_deviation(grad_w[j], (up - down) / (2 * eps)))
    model.bias += eps
    up = logistic_loss(model, X, y, sw)
    model.bias -= 2 * eps
    down = logistic_loss(model, X, y, sw)
    model.bias += eps
    worst = max(worst, relative_deviation(grad_b, (up - down) / (2 * eps)))

    # dense autoencoder 4 -> 2 -> 1 -> 2 -> 4 on 3 rows
    Xd = rng.normal(size=(3, 4))
    dense = init_dense_autoencoder([4, 2, 1, 2, 4], 0.0, RngStream(31, "acc"))
    _, grads = dense_loss_and_grads(dense, Xd)
    worst = max(worst, finite_difference_check(lambda: dense_loss_and_grads(dense, Xd)[0], dense.params, grads))

    # LSTM autoencoder: 3 sessions, 4 steps, hidden 3, latent 2
    data = rng.normal(size=(3, 4, 2))
    lengths = np.array([4, 2, 3])
    for s in range(3):
        data[s, lengths[s]:, :] = 0.0
    lstm = init_lstm_autoencoder(2, 3, 2, RngStream(32, "acc"))
    _, lgrads = lstm_loss_and_grads(lstm, data, lengths)
    worst = max(worst, finite_difference_check(lambda: lstm_loss(lstm, data, lengths), lstm.params, lgrads))

    verdict(f"3: analytic gradients within 1e-4 of central differences (worst {worst:.2e})", worst <= 1e-4)


# -- criterion 4: SMOTE geometry -------------------------------------------------------


def test_criterion_4_smote_geometry():
    rng = np.random.default_rng(404)
    X = rng.normal(size=(50, 4))
    synth = smote_oversample(X, k=5, n_synthetic=1000, rng=RngStream(44, "acc"))
    worst = float(segment_offsets(synth, X).max())
    verdict(f"4: 1000 SMOTE samples on parent-neighbor segments (worst offset {worst:.2e})", worst <= 1e-9)


# -- criterion 5: threshold calibration -------------------------------------------------


def test_criterion_5_threshold_calibration():
    thr = calibrate_threshold(np.arange(1.0, 101.0), 95)
    ok = thr.value == 95.0
    rng = np.random.default_rng(505)
    for _ in range(20):
        n = int(rng.integers(3, 300))
        errors = rng.permutation(n).astype(float) + rng.random()  # distinct values
        p = float(rng.uniform(1, 99))
        t = calibrate_threshold(errors, p)
        ok &= int(detect_anomalies(errors, t).sum()) == n - math.ceil(p / 100.0 * n)
    verdict("5: nearest-rank p95 of 1..100 is 95; flag count = n - ceil(p/100*n) on distinct sets", ok)


# -- criterion 6: isolation forest sanity ------------------------------------------------


def test_criterion_6_isolation_forest_sanity():
    ok = average_path_length(2) == 1.0
    rng = np.random.default_rng(606)
    hits = 0
    for trial in range(100):
        X = np.vstack([rng.normal(size=(500, 2)), [[10.0, 10.0]]])
        model = fit_isolation_forest(X, 100, 256, RngStream(6000 + trial, "acc"))
        hits += int(np.argmax(iforest_score(model, X)) == 500)
    ok &= hits >= 95
    verdict(f"6: planted 10-sigma outlier ranked top in {hits}/100 trials; c(2) = 1 exactly", ok)


# -- criteria 7-9: pipelines at defaults (seed 42), determinism, leakage -----------------


DOMAINS = ("intrusion", "malware", "phishing", "ueba")


def _acceptance_config(domain):
    cfg = default_config(domain, seed=42)
    if domain == "ueba":
        cfg.threshold_percentile = 90.0  # recall band is stated at percentile 90
    return cfg


def _digest_tree(root):
    tree = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return tree


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """Two full runs per domain: reports, output-tree digests, leakage audits."""
    import time

    runs = {}
    for domain in DOMAINS:
        out1 = tmp_path_factory.mktemp(f"{domain}-r1")
        out2 = tmp_path_factory.mktemp(f"{domain}-r2")
        audit = LeakageAudit()
        started = time.monotonic()
        report1 = run_domain(_acceptance_config(domain), out_dir=str(out1), audit=audit)
        elapsed = time.monotonic() - started
        emit_report(report1, str(out1))
        report2 = run_domain(_acceptance_config(domain), out_dir=str(out2))
        emit_report(report2, str(out2))
        runs[domain] = {
            "report": report1,
            "digests": (_digest_tree(out1), _digest_tree(out2)),
            "audit": audit,
            "seconds": elapsed,
        }
    return runs


def test_criterion_7_pipeline_bands(default_runs):
    checks = []
    ph = default_runs["phishing"]["report"].models
    for name in ("logistic_regression", "random_forest", "gradient_boosting"):
        checks.append((f"phishing/{name} F1 >= 0.95", ph[name]["per_class"]["1"]["f1"] >= 0.95))
        checks.append((f"phishing/{name} AUC >= 0.99", ph[name]["roc_auc"] >= 0.99))
    mw = default_runs["malware"]["report"].models
    for name in ("random_forest", "gradient_boosting"):
        checks.append((f"malware/{name} accuracy >= 0.90", mw[name]["accuracy"] >= 0.90))
        checks.append((f"malware/{name} threat F1 >= 0.50", mw[name]["per_class"]["1"]["f1"] >= 0.50))
    it = default_runs["intrusion"]["report"].models
    for name in ("isolation_forest", "dense_autoencoder"):
        checks.append((f"intrusion/{name} AUC >= 0.80", it[name]["roc_auc"] >= 0.80))
    ub = default_runs["ueba"]["report"].models["lstm_autoencoder"]
    checks.append(("ueba/lstm_autoencoder threat recall >= 0.90 at percentile 90",
                   ub["per_class"]["1"]["recall"] >= 0.90))
    # default phishing split is 10,000 rows at 0.3: the test set must hold 3,000
    cm = ph["logistic_regression"]["confusion"]
    checks.append(("phishing default test partition has 3000 rows",
                   cm["tp"] + cm["fp"] + cm["fn"] + cm["tn"] == 3000))
    for domain in DOMAINS:
        checks.append((f"{domain} pipeline under 2 minutes", default_runs[domain]["seconds"] < 120.0))
    ok = all(passed for _, passed in checks)
    detail = "; ".join(name for name, passed in checks if not passed) or "all bands met"
    verdict(f"7: pipeline bands on default generators, seed 42 ({detail})", ok)


def test_criterion_8_determinism(default_runs):
    ok = True
    for domain in DOMAINS:
        d1, d2 = default_runs[domain]["digests"]
        ok &= d1 == d2 and len(d1) > 0
    verdict("8: identical configs give byte-identical datasets, model files, and reports", ok)


def test_criterion_9_no_leakage(default_runs):
    ok = True
    for domain in DOMAINS:
        audit = default_runs[domain]["audit"]
        ok &= bool(audit.test_rows)
        ok &= audit.leaked() == {}
    verdict("9: zero test-partition rows consumed by any fit/calibration stage", ok)
