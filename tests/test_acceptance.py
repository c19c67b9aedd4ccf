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
from threatbench.evalx import classification_report, roc_auc
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
        y_true = np.repeat([1, 0, 1, 0], [tp, fp, fn, 1000])
        y_pred = np.repeat([1, 1, 0, 0], [tp, fp, fn, 1000])
        threat = classification_report(y_true, y_pred)["per_class"]["1"]
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


@pytest.mark.slow
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


@pytest.mark.slow
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


@pytest.mark.slow
def test_criterion_8_determinism(default_runs):
    ok = True
    for domain in DOMAINS:
        d1, d2 = default_runs[domain]["digests"]
        ok &= d1 == d2 and len(d1) > 0
    verdict("8: identical configs give byte-identical datasets, model files, and reports", ok)


@pytest.mark.slow
def test_criterion_9_no_leakage(default_runs):
    ok = True
    for domain in DOMAINS:
        audit = default_runs[domain]["audit"]
        ok &= audit.test_rows.size > 0
        ok &= audit.leaked() == {}
    verdict("9: zero test-partition rows consumed by any fit/calibration stage", ok)


# sha256 of every file the first default run of each domain writes (the
# configs above, seed 42). They pin default-size output byte for byte; update
# them only together with a CHANGES.md entry that says why the output changed.
DEFAULT_DIGESTS = {
    "intrusion": {
        "data/intrusion.csv": "2f747cdfb1ae8c3dfb76853d9896fcbdc007ca5d994c047546010032ecb83018",
        "histograms/anomaly_label.csv": "66e1611203c747d8362fac2b031441408bd9200487385a8a8fd73086a00bf68a",
        "histograms/bytes.csv": "75dc959c03533a6c3d5248fc003e84f8e1b67955c54dd61fdef8ab4b7433f45d",
        "histograms/dst_port.csv": "7a32142a740aa229700ec0b552d0c86e975b029c8b8d99838f23ccf2817f96be",
        "histograms/duration.csv": "21a5ceed4d946a874a62052436d3dc500053868ffd9bf6b656063184ef86bb26",
        "histograms/is_internal.csv": "80ebff9b512145306c6565851bcb73b31886612e7f0c493ea8d395446da4754d",
        "histograms/packet_count.csv": "e07ffd3c52d8594ce54387ac99fcd77d3268bd8e66384483289e8337b7dbcae7",
        "histograms/protocol.csv": "97a539683e305fdf2d6e6fd23ab40ec0390fbfb7a2a8b2e917b4a68736b2e9e8",
        "histograms/src_port.csv": "3194c3f9899f8eda04dee90cffc9e36391b80f66bac8bc9510d413ac48de3015",
        "models/dense_autoencoder.json": "c33a2c9aa5b618397895534620edb1d502aaaed61d5d705e3f1ed2fd46d87b41",
        "models/isolation_forest.json": "7fd28c5dc6e7f4ba12448f5bccb9386a6aa4ce1fbd8350e8761380c6dd07fb2e",
        "report.json": "1be637597a4bd6725bf4d7e4abfe199aa6038010038b2d2009f78644ced5b6e3",
        "report.txt": "95d87f7e0f4b461a3730b8a209815849c10920fe1b974b2067262cbf99070ea7",
    },
    "malware": {
        "data/malware.csv": "3629ec19fa628e41c47b658faef33bde00b6ea845abae466766da271cbfa635e",
        "histograms/entropy.csv": "7c985e6e376a6a9be9a90478357363f82dd67e63e5200d89de329d0af71d0556",
        "histograms/file_size.csv": "035a85b2619e331ad6b61bffa5a5baff5921d621283c7955c33bcdf87fdb776c",
        "histograms/file_type.csv": "156540c1b65a3e6cdbd7bb5c92931686767aaaa93eb9fb0483d90eb326ae19db",
        "histograms/has_digital_signature.csv": "70ee70a01c784d1b915ab5ee773a2d6f54bd4f00cfb64f094ac135f9d9c673da",
        "histograms/is_packed.csv": "5ff8fd56dd4298b8bf522a616af80efe100ff44c33f1185590ede4d3def140c1",
        "histograms/label.csv": "62571fdb84570f138b594df8da8aacca377c6511a4be93afef43b0882b0b3101",
        "histograms/num_imports.csv": "c18942be405dc8c7c95d42b45853cbc503031e9edd94030fe3c55be923dd326c",
        "histograms/num_strings.csv": "708e2a86081f9eb783feea7f2c16981f2d5f603e6104d766ecc37b9e412f453d",
        "histograms/opcode_JMP_ratio.csv": "63ad355a5be216c8596906e1ee27ff47aa51030a9aa76ed68a07a573b6bbbf4b",
        "histograms/opcode_NOP_ratio.csv": "fff7f58f98a6d55c943e4116244b0aad8d95d5242d249236fa196112a48da030",
        "histograms/packer_entropy_ratio.csv": "4e937b98200c15319e3a8ab73f17442f10c14ab4e19d4ed81e4b39745fc3da36",
        "histograms/section_count.csv": "b133b559618cfd588e3f7793af12ec7e713b38fb523386eed52ce0719f46cbec",
        "models/boosting_calibrator.json": "73af37026b472b845ab9303dbfebf44dfcec1461fce3deda40b93ae4a1146471",
        "models/gradient_boosting.json": "5b6aa46de5305f4eac1dc46711bbac5ead6b8cab68a3113a3f1db163b126f0eb",
        "models/random_forest.json": "698a92d08e5802d3de3be4b799dedf0ae64805f17c94e09ef318bfb69b7859ab",
        "report.json": "75d74a172628f2a92a75ec15685a55ba0c8167975686839601edb36e49ba51d4",
        "report.txt": "e595761c03636f962feae2975049a4054f83e0653bf6d7f95b12b8a6459155c2",
    },
    "phishing": {
        "data/phishing.csv": "e56217d6abe7149ccdc975398c34b7485d79adee20f741f1fe07bd5cef15faff",
        "histograms/attachment_type.csv": "b5d6d9e241069a5840c5b9f3a55cd30c51dcc2511a6d1b5d9f7b85acddff8f07",
        "histograms/has_html.csv": "77ee34d97e64166a2df15ceab14df7f81209e9529d5b867feba4e2054aac9169",
        "histograms/has_login_form.csv": "a4cf9af5d974b15eec2ed7c96900bf5b0a59a11ed8cd788c637430b4782181df",
        "histograms/has_spf_fail.csv": "242c8331556902802807f308f9182fb4fa1c35791c3626df507133fec881ceb6",
        "histograms/hour_sent.csv": "2d5efae95ede19ffefec40028263d4153a83d1c152b33a4d075af22c60c318af",
        "histograms/is_from_internal.csv": "074327c657329617de69639ee126b34d31b5967475cd6d02a7469b584eeb0a1d",
        "histograms/label.csv": "208d447a7faaaaccf07873efe4c806ab1ce464c386e1deaa6846b13278689b0c",
        "histograms/num_domains.csv": "095c3e660706d61054a31fccf6b2022e63d755d5463ea15e248ddeb61ba293f1",
        "histograms/num_links.csv": "590afa8f4002318650042f2539b6d78b06f5b99c102db2584730990d97a3b7b8",
        "histograms/num_suspicious_words.csv": "50b5f482efec14c7fe72af2ab3e6f16558ad5d5c408af22e81a2eb12d0b109f5",
        "histograms/sender_reputation_score.csv": "1048b94f3fb50272b23b2b726b630afd62b057fa7bbacc1db34371175b50a39b",
        "models/boosting_calibrator.json": "52ff68fbafdfcfd482ae8282f54545947874340eb5b74b2a4c8d76b1b3f78945",
        "models/gradient_boosting.json": "fc2dd626432c927b091cbb24f32ef50187b9daeb4df7567fee9e1abc7d205c10",
        "models/logistic_regression.json": "409d027abba23081f621789065cae445bf9850fa7c196cc6c91ae7fd2a54eec0",
        "models/random_forest.json": "48d2733912a89dd5cd9b697e28a7ad49b7c020f7616bc32f0113f3a55b7d23a8",
        "report.json": "b9a0250e23ad250915d8c8c5023d3eab7c75a1fe49083cac5df38ae666781e9a",
        "report.txt": "054a7a4517d999259071382fafaefb13fb3764ebe62d1debf4d7a092b0fe3679",
    },
    "ueba": {
        "data/events.jsonl": "651049269096d76c0afa284b76f78ce198415db7181d83b3163c01b90266b8d2",
        "data/ueba.csv": "197a2b758a7a32d41cbe93ccd774297eacddc255759223058698b23ad53f6a2d",
        "histograms/accessed_sensitive_file.csv": "9dc419b3ce3555448677202204a9a68b555189faefdabc04092503961399de69",
        "histograms/activity_type.csv": "c25f751c2d716745c92927af8ace87b30d6219f7d7dfbf09ca6230338cd1512e",
        "histograms/anomaly_label.csv": "27d300978af980d23eb9ea058fa39aa43c8285c16e8ceafdef37ab1e1d920a4a",
        "histograms/command_count.csv": "65250650ba38cc57a1c98df3194ca415b282822f6fb4627ccb1138f89fc4310f",
        "histograms/day.csv": "904c8a53faa03dcf3bd1dcb79e4432846f6875361383b27a436d0104d5bbc942",
        "histograms/failed_login_attempts.csv": "3ff1551ceb8d1fb6489e5084255c1ad476d840c4955c592ae844f2b750235d8f",
        "histograms/hour.csv": "db915c5177c2ba0aa71a801fe5651b8b00e8666ad182ad124f886f62a7526dea",
        "histograms/is_admin_action.csv": "11f0e5f14ac59ba7be40e740ef7441ac38dcec10735ecaeca667882b0c5a14e0",
        "histograms/user_id.csv": "bb327a39990302c85e949ed4ae8da3d84b29caaced5bc8382ba86a7c5450dc3f",
        "histograms/weekday.csv": "0f520103ef4f5c002e4bb7595e07b4df656014a90aa3a721552f6b0a517f245c",
        "models/lstm_autoencoder.json": "241a847af7b22298c41dda6f7cd35134b793b89839db252c48bb4e1c84e3b945",
        "report.json": "e51c271a83e51256ef9e4e5ad3b07ddfd3abb8dbb8f315ce30151a17d7940dbf",
        "report.txt": "4332f57b22374767a35239ef5977a6414b0124681e0565ffbd0db15b74c42ae5",
    },
}


@pytest.mark.slow
def test_default_output_digests(default_runs):
    for domain in DOMAINS:
        assert default_runs[domain]["digests"][0] == DEFAULT_DIGESTS[domain], domain
