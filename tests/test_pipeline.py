import copy
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    apply_one_hot,
    apply_scaler,
    edge_dataset,
    load_dataset,
    matrix,
    per_event_sessionize,
    positions,
    select_rows,
    traced_peak,
)
from threatbench import pipeline
from threatbench.errors import ConfigError, DataError, NumericError
from threatbench.evalx import classification_report, permutation_importance
from threatbench.forest import _RememberedWalk, fit_gradient_boosting
from threatbench.modelio import save_model
from threatbench.neural import fit_lstm_autoencoder, score_sessions
from threatbench.pipeline import (
    LeakageAudit,
    PipelineConfig,
    default_config,
    emit_report,
    parse_report,
    render_summary,
    report_to_json,
    run_domain,
)
from threatbench.cli import main
from threatbench.preprocess import downsample_majority, fit_one_hot, fit_scaler, one_hot_codes, sessionize, smote_oversample
from threatbench.synthgen import GENERATOR_PARAMS, MIXES, PARAM_RANGES, GeneratorConfig
from threatbench.tabular import Dataset, RngStream, stratified_indices, writing

# Small, fast configs used by every structural test in this module.
SMALL = {
    "intrusion": dict(
        generator={"n": 600, "anomaly_rate": 0.05},
        models={"dense_ae": {"epochs": 4}, "iforest": {"n_trees": 30, "psi": 128}, "importance_repeats": 2},
    ),
    "malware": dict(
        generator={"n": 500, "anomaly_rate": 0.1},
        models={"forest": {"n_trees": 15}, "boosting": {"n_rounds": 20}, "importance_repeats": 2},
    ),
    "phishing": dict(
        generator={"n": 500, "anomaly_rate": 0.2},
        models={"forest": {"n_trees": 15}, "boosting": {"n_rounds": 20}, "logistic": {"epochs": 100}, "importance_repeats": 2},
    ),
    "ueba": dict(
        generator={"anomaly_rate": 0.04, "overrides": {"users": 10, "days": 6, "events_per_day_mean": 12.0}},
        preprocess={"time_steps": 16},
        models={"lstm_ae": {"hidden": 8, "latent": 4, "epochs": 3}, "importance_repeats": 2},
    ),
}


# `SMALL["phishing"]` and `SMALL["ueba"]` as `threatbench run` overrides.
PHISHING_OVERRIDES = [
    "--override", "generator.n=500", "--override", "models.forest.n_trees=15", "--override", "models.boosting.n_rounds=20",
    "--override", "models.logistic.epochs=100", "--override", "models.importance_repeats=2",
]
UEBA_OVERRIDES = [
    "--override", "generator.anomaly_rate=0.04",
    "--override", 'generator.overrides={"users": 10, "days": 6, "events_per_day_mean": 12.0}',
    "--override", "preprocess.time_steps=16", "--override", 'models.lstm_ae={"hidden": 8, "latent": 4, "epochs": 3}',
    "--override", "models.importance_repeats=2",
]


def small_config(domain, seed=42):
    cfg = default_config(domain, seed=seed)
    spec = SMALL[domain]
    cfg.generator.update(spec.get("generator", {}))
    cfg.preprocess.update(spec.get("preprocess", {}))
    for key, value in spec.get("models", {}).items():
        if isinstance(value, dict):
            cfg.models[key] = {**cfg.models[key], **value}
        else:
            cfg.models[key] = value
    return cfg


@pytest.fixture(scope="module")
def small_reports():
    out = {}
    for domain in ("intrusion", "malware", "phishing", "ueba"):
        audit = LeakageAudit()
        out[domain] = (run_domain(small_config(domain), audit=audit), audit)
    return out


class TestStructure:
    def test_intrusion_two_model_blocks_with_auc(self, small_reports):
        report, _ = small_reports["intrusion"]
        assert sorted(report.models) == ["dense_autoencoder", "isolation_forest"]
        for m in report.models.values():
            assert m["roc_auc"] is not None

    def test_phishing_three_model_blocks(self, small_reports):
        report, _ = small_reports["phishing"]
        assert sorted(report.models) == ["gradient_boosting", "logistic_regression", "random_forest"]

    def test_malware_classwise_metrics_reported(self, small_reports):
        report, _ = small_reports["malware"]
        for m in report.models.values():
            assert set(m["per_class"]) == {"0", "1"}
            for cls in ("0", "1"):
                assert {"precision", "recall", "f1"} <= set(m["per_class"][cls])

    def test_ueba_metrics_and_flag_identity(self, small_reports):
        report, _ = small_reports["ueba"]
        m = report.models["lstm_autoencoder"]
        assert m["per_class"]["1"]["recall"] is not None
        assert m["per_class"]["1"]["precision"] is not None
        assert m["macro_f1"] is not None
        cm = m["confusion"]
        assert len(report.flags["lstm_autoencoder"]) == cm["tp"] + cm["fp"]

    def test_intrusion_flag_identity(self, small_reports):
        report, _ = small_reports["intrusion"]
        for name in ("isolation_forest", "dense_autoencoder"):
            cm = report.models[name]["confusion"]
            assert len(report.flags[name]) == cm["tp"] + cm["fp"]

    def test_stage_manifests(self, small_reports):
        expects = {
            "intrusion": ["generate", "split", "fit_one_hot", "fit_scaler", "fit_isolation_forest",
                          "fit_dense_autoencoder", "calibrate_thresholds", "evaluate"],
            "malware": ["generate", "split", "fit_one_hot", "carve_validation", "smote_oversample",
                        "fit_random_forest", "fit_gradient_boosting", "calibrate_boosting", "evaluate"],
            "phishing": ["generate", "split", "downsample_majority", "fit_one_hot", "fit_scaler",
                         "carve_validation", "fit_logistic", "fit_random_forest", "fit_gradient_boosting",
                         "calibrate_boosting", "evaluate"],
            "ueba": ["generate", "session_split", "fit_one_hot", "fit_scaler", "sessionize",
                     "fit_lstm_autoencoder", "calibrate_threshold", "evaluate"],
        }
        for domain, stages in expects.items():
            report, _ = small_reports[domain]
            assert report.stages == stages

    def test_config_echo_and_version(self, small_reports):
        for domain, (report, _) in small_reports.items():
            assert report.config["domain"] == domain
            assert report.config["seed"] == 42
            assert report.toolkit_version
            assert "out_dir" not in report.config

    def test_importances_present_for_every_model(self, small_reports):
        for report, _ in small_reports.values():
            for model_name in report.models:
                assert model_name in report.importances
                assert 1 <= len(report.importances[model_name]) <= 10


@pytest.mark.usefixtures("one_cpu")
@pytest.mark.parametrize("domain, expected", [
    ("malware", {"fit_random_forest": 1, "fit_gradient_boosting": 1, "smote_oversample": 1, "permutation_importance": 2}),
    ("phishing", {"fit_logistic": 1}),
    ("intrusion", {"fit_isolation_forest": 1, "fit_dense_autoencoder": 1}),
    ("ueba", {"fit_lstm_autoencoder": 1}),
])
def test_kernels_called_through_module_globals(domain, expected, monkeypatch):
    """A run reaches each kernel through `threatbench.pipeline` globals at call
    time, so wrappers set on those globals (as the tracer sets them) see every call."""
    calls = dict.fromkeys(expected, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in expected:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    run_domain(small_config(domain))
    assert calls == expected


@pytest.mark.usefixtures("one_cpu")
@pytest.mark.parametrize("domain, scorers", [("phishing", 2), ("intrusion", 1)])
def test_no_remembered_walk_outlives_its_importance_call(domain, scorers, monkeypatch, tmp_path):
    """A tree model's scorer is gone by the next model's importance call and
    before the models are saved."""
    refs = []

    def importance(score, *args, **kwargs):
        assert all(ref() is None for ref in refs)
        if isinstance(score, _RememberedWalk):
            refs.append(weakref.ref(score))
        return permutation_importance(score, *args, **kwargs)

    def save(*args, **kwargs):
        assert all(ref() is None for ref in refs)
        return save_model(*args, **kwargs)

    monkeypatch.setattr(pipeline, "permutation_importance", importance)
    monkeypatch.setattr(pipeline, "save_model", save)
    run_domain(small_config(domain), out_dir=str(tmp_path))
    assert len(refs) == scorers


def test_ueba_partitions_hold_their_own_sessions_events(monkeypatch):
    """The clean tensor holds no event of a test session and the test tensor
    holds every one of them. The clean sessions' events are train events,
    and train and test events together are every event once."""
    parts = []

    def prepare(*args, **kwargs):
        features, prepared, extra = prepare_sessions(*args, **kwargs)
        parts.append({name: part.X.event_row_ids for name, part in prepared.items()})
        return features, prepared, extra

    prepare_sessions = pipeline._prepare_sessions
    monkeypatch.setattr(pipeline, "_prepare_sessions", prepare)
    audit = LeakageAudit()
    run_domain(small_config("ueba"), audit=audit)
    clean, test = parts[0]["clean"], parts[0]["test"]
    train = audit.consumed["fit_one_hot"]
    assert not np.isin(clean, audit.test_rows).any()
    assert np.array_equal(np.sort(test), audit.test_rows)
    assert np.isin(clean, train).all()
    ids = np.concatenate([train, test])
    assert np.array_equal(np.sort(ids), np.arange(len(ids)))


@pytest.mark.parametrize("domain", pipeline.DOMAINS)
def test_run_copies_no_table(domain, monkeypatch):
    """Every domain's preparation works on row indices of the generated
    table and fills its matrices or tensors straight from it: once the table
    is generated, no run builds another `Dataset` (a row selection, or an
    encoded or scaled copy)."""
    generated = []

    def generate(*args, **kwargs):
        table = generators[domain](*args, **kwargs)
        generated.append(table)
        return table

    def init(self, *args, **kwargs):
        assert not generated, "a Dataset was built after the generated table"
        dataset_init(self, *args, **kwargs)

    generators, dataset_init = dict(pipeline.GENERATORS), Dataset.__init__
    monkeypatch.setitem(pipeline.GENERATORS, domain, generate)
    monkeypatch.setattr(Dataset, "__init__", init)
    run_domain(small_config(domain))
    assert len(generated) == 1


def test_ueba_builds_only_the_tensors_it_reads(monkeypatch):
    """The LSTM trains on the clean partition, the train sessions labelled 0,
    which is filled straight from the log like the test one; no train tensor
    is built, so none is alive at the fit."""
    built = []

    def spy(*args, **kwargs):
        tensors = sessionize(*args, **kwargs)
        built.extend(weakref.ref(t) for t in tensors)
        return tensors

    def fit(sessions, *args, **kwargs):
        assert [ref() is not None for ref in built] == [True, True]
        assert not sessions.labels.any()
        return fit_lstm_autoencoder(sessions, *args, **kwargs)

    monkeypatch.setattr(pipeline, "sessionize", spy)
    monkeypatch.setattr(pipeline, "fit_lstm_autoencoder", fit)
    run_domain(small_config("ueba"))
    assert len(built) == 2


@pytest.mark.usefixtures("one_cpu")
@pytest.mark.parametrize("domain, kernel", [
    ("ueba", "fit_lstm_autoencoder"), ("malware", "fit_random_forest"), ("phishing", "fit_logistic"),
])
def test_generated_table_is_gone_once_split(domain, kernel, monkeypatch, tmp_path):
    """`data/`, the dataset block and the histograms are taken from the
    generated table before it is split; the table is freed by the time the
    first model fits."""
    refs, freed = [], []

    def generate(*args, **kwargs):
        table = generators[domain](*args, **kwargs)
        refs.append(weakref.ref(table))
        return table

    def spy(*args, **kwargs):
        freed.append(refs[0]() is None)
        return call(*args, **kwargs)

    generators, call = dict(pipeline.GENERATORS), getattr(pipeline, kernel)
    monkeypatch.setitem(pipeline.GENERATORS, domain, generate)
    monkeypatch.setattr(pipeline, kernel, spy)
    run_domain(small_config(domain), out_dir=str(tmp_path))
    assert freed[0] is True and (tmp_path / "data" / f"{domain}.csv").exists()


@pytest.mark.usefixtures("one_cpu")
def test_ueba_scores_the_test_tensor_once_outside_importance(monkeypatch):
    """`score_sessions` runs once on the clean partition (the threshold), once
    on the test tensor, and once per permuted feature and repeat: the test
    scores are the importance baseline, not a second scan."""
    widths = []  # the feature width of each scored tensor

    def spy(model, tensor):
        widths.append(tensor.data.shape[-1])
        return score_sessions(model, tensor)

    monkeypatch.setattr(pipeline, "score_sessions", spy)
    config = small_config("ueba")
    run_domain(config)
    assert len(widths) == 2 + config.models["importance_repeats"] * widths[0]


def two_copy_prepare(events, pp, rng, label="anomaly_label"):
    """The former ueba preparation, kept as the oracle of the one-pass one:
    number sessions with `np.unique`, split them, copy the train and the test
    sessions' events out of the log, fit and apply one-hot encoding and
    z-scores on the copies, and sessionize each copy. Returns the train,
    clean (the train sessions labelled 0) and test tensors, and the session
    labels."""
    keys = np.column_stack([events.column("user_id"), events.column("day")]).astype(np.float64)
    session_keys, event_session = np.unique(keys, axis=0, return_inverse=True)
    event_session = event_session.ravel()
    session_labels = np.zeros(len(session_keys), dtype=np.int64)
    np.maximum.at(session_labels, event_session, np.asarray(events.column(label), dtype=np.int64))
    train_sessions, _ = stratified_indices(session_labels, pp["test_fraction"], rng.child("split"))
    in_train = np.isin(event_session, train_sessions)
    train, test = select_rows(events, np.flatnonzero(in_train)), select_rows(events, np.flatnonzero(~in_train))
    encoder = fit_one_hot(train, ["activity_type"])
    train, test = apply_one_hot(encoder, train), apply_one_hot(encoder, test)
    scaler = fit_scaler(train, [n for n in train.names_of_kind("numeric") if n not in ("user_id", "day")])
    train, test = apply_scaler(scaler, train), apply_scaler(scaler, test)
    clean = select_rows(train, np.flatnonzero(session_labels[event_session[in_train]] == 0))
    tensors = {name: per_event_sessionize(part, pp["time_steps"]) for name, part in
               (("train", train), ("clean", clean), ("test", test))}
    return tensors, session_labels


def one_pass_prepare(events, pp, rows=None, audit=None):
    """`_prepare_sessions` on `events` for ueba, or for ueba with its LSTM
    training on the partitions named in `rows`."""
    spec = pipeline.DOMAIN_SPECS["ueba"]
    if rows:
        spec = spec._replace(models=(spec.models[0]._replace(rows=rows),))
    rng = RngStream(42, "pipeline/ueba")
    return pipeline._prepare_sessions(spec, [events], pp, rng, audit or LeakageAudit())


ACTIVITIES = ("cmd", "login", "mail")


def event_log(sessions, seed=0):
    """A hand-built ueba event log with its rows shuffled. `sessions` holds a
    (user, day spellings, labels) triple per session, with one day spelling
    and one label per event. Activities cycle through ACTIVITIES within each
    session; `weekday` is constant, so it z-scores to zeros."""
    rng = np.random.default_rng(seed)
    rows = [
        (user, day, float(rng.integers(0, 24)), 3.0, ACTIVITIES[k % 3], float(rng.poisson(2.0)), int(rng.integers(0, 2)), flag)
        for user, days, flags in sessions
        for k, (day, flag) in enumerate(zip(days, flags))
    ]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    columns = [("user_id", "numeric"), ("day", "numeric"), ("hour", "numeric"), ("weekday", "numeric"),
               ("activity_type", "categorical"), ("command_count", "numeric"), ("is_admin_action", "binary"),
               ("anomaly_label", "label")]
    return Dataset(columns, {name: [row[j] for row in rows] for j, (name, _) in enumerate(columns)})


# A session of 6 events whose only threat event is its last, its day spelt
# -0.0 and 0.0 alike; single-event sessions, clean and threat; sessions of 2
# to 9 events; and one session whose user is spelt 0.0 and -0.0.
HAND_SESSIONS = [
    (1.0, [-0.0, 0.0, -0.0, 0.0, 0.0, -0.0], [0, 0, 0, 0, 0, 1]),
    (1.0, [1.0], [0]),
    (2.0, [-0.0, 0.0, -0.0], [0, 1, 0]),
    (2.0, [3.0], [1]),
    (2.0, [2.0], [0]),
    (3.0, [0.0] * 5, [0, 0, 0, 0, 0]),
    (3.0, [1.0] * 2, [0, 0]),
    (3.0, [2.0] * 7, [0, 0, 0, 0, 0, 1, 0]),
    (4.0, [5.0] * 9, [0, 0, 0, 0, 0, 0, 0, 0, 1]),
    (4.0, [1.0] * 4, [0, 0, 0, 0]),
    (0.0, [4.0] * 3, [0, 0, 0]),
    (-0.0, [4.0, 4.0], [1, 0]),
]


class TestOnePassSessions:
    """`_prepare_sessions` against the two-copy oracle: the same tensor bytes,
    lengths, labels, keys (signs included), event positions and bounds, session
    counts and leakage-audit ids."""

    @staticmethod
    def check(make_log, pp):
        want, session_labels = two_copy_prepare(make_log(), pp, RngStream(42, "pipeline/ueba"))
        audit = LeakageAudit()
        features, parts, extra = one_pass_prepare(make_log(), pp, rows=("train", "clean"), audit=audit)
        assert set(parts) == set(want)
        for name, tensor in want.items():
            got = parts[name].X
            for field in ("data", "lengths", "labels", "event_row_ids", "event_bounds"):
                a, b = getattr(got, field), getattr(tensor, field)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (name, field)
            assert got.feature_names == tensor.feature_names == features
            assert repr(got.keys) == repr(tensor.keys), name  # repr tells -0.0 from 0.0
        counts = {str(c): int((session_labels == c).sum()) for c in (0, 1)}
        assert extra == {"n_sessions": len(session_labels), "session_label_counts": counts}
        assert np.array_equal(audit.test_rows, np.sort(want["test"].event_row_ids))
        for stage in ("fit_one_hot", "fit_scaler"):
            assert np.array_equal(audit.consumed[stage], np.sort(want["train"].event_row_ids)), stage
        _, ueba_parts, _ = one_pass_prepare(make_log(), pp)
        assert set(ueba_parts) == {"clean", "test"}
        for name, part in ueba_parts.items():
            assert part.X.data.tobytes() == parts[name].X.data.tobytes(), name
        return parts

    def test_small_config(self):
        checked = small_config("ueba").validate()
        config = GeneratorConfig(**checked["generator"], seed=42)
        parts = self.check(lambda: pipeline.GENERATORS["ueba"](config), checked["preprocess"])
        assert parts["train"].X.lengths.max() == checked["preprocess"]["time_steps"]  # some sessions truncated

    @pytest.mark.parametrize("time_steps", [1, 4, 50])
    def test_hand_built_log(self, time_steps):
        parts = self.check(lambda: event_log(HAND_SESSIONS), {"test_fraction": 0.5, "time_steps": time_steps})
        assert len(parts["train"].X.lengths) + len(parts["test"].X.lengths) == 11  # -0.0 and 0.0 are one key

    def test_truncated_threat_event_labels_its_session(self):
        parts = self.check(lambda: event_log(HAND_SESSIONS), {"test_fraction": 0.5, "time_steps": 4})
        tensor = next(parts[name].X for name in ("train", "test") if (1.0, -0.0) in parts[name].X.keys)
        s = tensor.keys.index((1.0, -0.0))
        assert tensor.lengths[s] == 4 and tensor.labels[s] == 1

    def test_category_seen_only_in_test_sessions_is_rejected(self, monkeypatch, tmp_path, capsys):
        """The error names the value and its row in the test partition, as a
        test copy of the log numbers it, from the fit_one_hot stage; the run
        exits 3."""
        pp = {"test_fraction": 0.5, "time_steps": 4}
        audit = LeakageAudit()
        one_pass_prepare(event_log(HAND_SESSIONS), pp, audit=audit)
        row = int(audit.test_rows[len(audit.test_rows) // 2])

        def make_log(config=None):
            log = event_log(HAND_SESSIONS)
            log.column("activity_type")[row] = "rare"
            return log

        with pytest.raises(DataError) as want:
            two_copy_prepare(make_log(), pp, RngStream(42, "pipeline/ueba"))
        assert f"'rare' in column 'activity_type' (row {len(audit.test_rows) // 2})" in str(want.value)
        with pytest.raises(DataError) as got:
            one_pass_prepare(make_log(), pp)
        assert str(got.value) == f"stage 'fit_one_hot': {want.value}"
        monkeypatch.setitem(pipeline.GENERATORS, "ueba", make_log)
        args = ["run", "ueba", "--out", str(tmp_path)]
        for key, value in pp.items():
            args += ["--override", f"preprocess.{key}={value}"]
        assert main(args) == 3
        assert str(got.value) in capsys.readouterr().err

    def test_traced_peak_is_the_tensors_and_less_than_a_table(self):
        """Beyond the tensors it returns, `_prepare_sessions` allocates less
        than the event table it is handed: 0.54x the table's bytes for the
        small config. The two-copy path read 1.57x."""
        checked = small_config("ueba").validate()
        config = GeneratorConfig(**checked["generator"], seed=42)
        logs = [pipeline.GENERATORS["ueba"](config) for _ in range(3)]
        table_bytes = sum(
            8 * logs[0].n if kind == "categorical" else logs[0].column(name).nbytes for name, kind in logs[0].columns
        )
        _, parts, _ = one_pass_prepare(logs.pop(), checked["preprocess"])
        tensor_bytes = sum(part.X.data.nbytes for part in parts.values())
        peak = traced_peak(lambda: one_pass_prepare(logs.pop(), checked["preprocess"]))
        assert peak <= table_bytes + tensor_bytes + table_bytes // 5


def two_copy_tabular(spec, table, pp, rng):
    """The former tabular preparation, kept as the oracle of the row-index
    one: copy the train and test rows out of the table, downsample the train
    copy, fit and apply one-hot encoding and z-scores on the copies, take
    their matrices, take the clean rows, carve validation and SMOTE the fit
    rows. Returns the features and {partition: (X, y, positions)}, for every
    partition a model may read."""
    label = table.label_column()
    labels = np.asarray(table.column(label))
    train_idx, test_idx = stratified_indices(labels, pp["test_fraction"], rng.child("split"))
    train, test = select_rows(table, train_idx), select_rows(table, test_idx)
    if spec.resample == "downsample":
        keep = downsample_majority(train.column(label), pp["downsample_ratio"], rng.child("downsample"))
        train = select_rows(train, keep)
    encoder = fit_one_hot(train, train.names_of_kind("categorical"))
    train, test = apply_one_hot(encoder, train), apply_one_hot(encoder, test)
    if spec.scale:
        scaler = fit_scaler(train, train.names_of_kind("numeric"))
        train, test = apply_scaler(scaler, train), apply_scaler(scaler, test)
    features = train.names_of_kind("numeric", "binary")
    parts = {name: (matrix(part, features), np.asarray(part.column(label)), positions(part))
             for name, part in (("train", train), ("test", test))}
    parts["clean"] = tuple(a[parts["train"][1] == 0] for a in parts["train"])
    if "fit" in spec.partitions:
        fit_idx, val_idx = stratified_indices(train.column(label), pp["validation_fraction"], rng.child("val"))
        parts["fit"], parts["val"] = (tuple(a[idx] for a in parts["train"]) for idx in (fit_idx, val_idx))
    if spec.resample == "smote":
        X, y, ids = parts["fit"]
        minority = X[y == 1]
        synthetic = smote_oversample(minority, pp["smote_k"], max(0, int((y == 0).sum()) - len(minority)), rng.child("smote"))
        parts["fit"] = (np.vstack([X, synthetic]), np.concatenate([y, np.ones(len(synthetic), dtype=np.int64)]),
                        np.concatenate([ids, np.full(len(synthetic), -1, dtype=np.int64)]))
    return features, parts


def one_pass_tabular(domain, table, pp, audit=None, spec=None):
    """`_prepare_tabular` on `table` for `domain`, or for `spec` if given."""
    rng = RngStream(42, f"pipeline/{domain}")
    spec = spec or pipeline.DOMAIN_SPECS[domain]
    return pipeline._prepare_tabular(spec, [table], pp, rng, audit or LeakageAudit())


def attachment_table(n_legit=40, n_phish=12, seed=0):
    """A hand-built phishing table: a categorical column, a constant numeric
    one (it z-scores to zeros), a binary flag and the label."""
    rng = np.random.default_rng(seed)
    n = n_legit + n_phish
    columns = [("size", "numeric"), ("attachment_type", "categorical"), ("weekday", "numeric"),
               ("has_link", "binary"), ("label", "label")]
    return Dataset(columns, {
        "size": rng.normal(size=n) * 100.0,
        "attachment_type": [("none", "pdf", "zip")[i % 3] for i in range(n)],
        "weekday": np.full(n, 3.0),
        "has_link": rng.integers(0, 2, size=n),
        "label": [0] * n_legit + [1] * n_phish,
    })


class TestOnePassTabular:
    """`_prepare_tabular` against the two-copy oracle: the same matrix bytes,
    labels, table positions and feature names for every partition it builds,
    and the same leakage-audit positions. It builds only the partitions its
    models read, and "test"."""

    @staticmethod
    def check(domain, make_table, pp, spec=None):
        spec = spec or pipeline.DOMAIN_SPECS[domain]
        want_features, want = two_copy_tabular(spec, make_table(), pp, RngStream(42, f"pipeline/{domain}"))
        audit = LeakageAudit()
        features, parts, extra = one_pass_tabular(domain, make_table(), pp, audit, spec)
        assert features == want_features and extra == {}
        assert set(parts) == spec.partitions and set(parts) <= set(want)
        for name, part in parts.items():
            for field, a, b in zip(("X", "y", "ids"), (part.X, part.y, part.ids), want[name]):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (name, field)
        assert np.array_equal(audit.test_rows, np.sort(want["test"][2]))
        for stage in ("fit_one_hot", "fit_scaler") if spec.scale else ("fit_one_hot",):
            assert np.array_equal(audit.consumed[stage], np.sort(want["train"][2])), stage
        return parts

    @pytest.mark.parametrize("domain, built", [
        ("intrusion", {"train", "clean", "test"}),
        ("malware", {"fit", "val", "test"}),
        ("phishing", {"train", "fit", "val", "test"}),
    ], ids=["intrusion", "malware", "phishing"])
    def test_small_config(self, domain, built):
        checked = small_config(domain).validate()
        config = GeneratorConfig(**checked["generator"], seed=42)
        parts = self.check(domain, lambda: pipeline.GENERATORS[domain](config), checked["preprocess"])
        assert set(parts) == built

    def test_hand_built_table(self):
        pp = {"test_fraction": 0.25, "validation_fraction": 0.3, "downsample_ratio": 2.0}
        parts = self.check("phishing", attachment_table, pp)
        assert not parts["train"].X[:, 3].any() and not parts["test"].X[:, 3].any()  # constant weekday

    def test_category_only_in_rows_downsampling_dropped_is_never_encoded(self):
        """Only the rows a partition holds are encoded: a category that only
        a train row dropped by downsampling holds is not in the encoder, and
        preparation succeeds, as it did on copies of the kept rows. Encoding
        the whole column would reject it."""
        pp = {"test_fraction": 0.25, "validation_fraction": 0.3, "downsample_ratio": 1.0}
        rng = RngStream(42, "pipeline/phishing")
        labels = np.asarray(attachment_table().column("label"))
        train, _ = stratified_indices(labels, pp["test_fraction"], rng.child("split"))
        kept = train[downsample_majority(labels[train], pp["downsample_ratio"], rng.child("downsample"))]
        row = int(np.setdiff1d(train, kept)[0])

        def make_table():
            table = attachment_table()
            table.column("attachment_type")[row] = "rare"
            return table

        encoder = fit_one_hot(make_table(), ["attachment_type"], rows=kept)
        with pytest.raises(DataError, match="'rare'"):
            one_hot_codes(encoder, "attachment_type", make_table().column("attachment_type"))
        parts = self.check("phishing", make_table, pp)
        assert row not in parts["train"].ids and row not in parts["test"].ids
        features, _, _ = one_pass_tabular("phishing", make_table(), pp)
        assert not any("rare" in f for f in features)

    @pytest.mark.parametrize("domain", ["malware", "phishing"])
    def test_category_seen_only_in_test_is_rejected(self, domain):
        """The error names the value and its row in the test partition, as a
        test copy of the table numbers it, from the fit_one_hot stage."""
        spec = pipeline.DOMAIN_SPECS[domain]
        pp = {"test_fraction": 0.25, "validation_fraction": 0.3, "downsample_ratio": 2.0, "smote_k": 2}
        audit = LeakageAudit()
        one_pass_tabular(domain, attachment_table(), pp, audit, spec)
        row = int(audit.test_rows[len(audit.test_rows) // 2])

        def make_table():
            table = attachment_table()
            table.column("attachment_type")[row] = "rare"
            return table

        with pytest.raises(DataError) as want:
            two_copy_tabular(spec, make_table(), pp, RngStream(42, f"pipeline/{domain}"))
        assert f"'rare' in column 'attachment_type' (row {len(audit.test_rows) // 2})" in str(want.value)
        with pytest.raises(DataError) as got:
            one_pass_tabular(domain, make_table(), pp, spec=spec)
        assert str(got.value) == f"stage 'fit_one_hot': {want.value}"


@pytest.mark.parametrize("domain", ["malware", "intrusion"])
def test_unseen_test_category_exits_3_from_fit_one_hot(domain, tmp_path, capsys):
    """At 100 rows with 99% held out, the one train category list misses a
    test category: the run exits 3 from the fit_one_hot stage, naming the
    value and its row within the test partition, before any model fits."""
    args = ["run", domain, "--override", "generator.n=100", "--override", "preprocess.test_fraction=0.99",
            "--out", str(tmp_path)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"data error: stage 'fit_one_hot': unseen category '[^']+' in column '\w+' \(row \d+\)\n", err), err
    assert not (tmp_path / "models").exists()


@pytest.mark.parametrize("domain", ["malware", "phishing"])
def test_uncalibrated_boosting_predicts_at_one_half(domain, monkeypatch, tmp_path):
    """With models.calibrate_boosting off, no stage calibrates and no
    calibrator is saved; the GBM's reported predictions are its
    `predict_proba >= 0.5` on the test rows."""
    seen = {}

    def fit(*args, **kwargs):
        seen["model"] = fit_gradient_boosting(*args, **kwargs)
        return seen["model"]

    def report(y, predicted, **kwargs):
        seen["y"], seen["predicted"] = y, predicted
        return classification_report(y, predicted, **kwargs)

    def importance(score, X, *args, **kwargs):
        seen["X"] = X
        return permutation_importance(score, X, *args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_gradient_boosting", fit)
    monkeypatch.setattr(pipeline, "classification_report", report)
    monkeypatch.setattr(pipeline, "permutation_importance", importance)
    config = small_config(domain)
    config.models["calibrate_boosting"] = False
    result = run_domain(config, out_dir=str(tmp_path))
    assert "calibrate_boosting" not in result.stages
    assert "boosting_calibrator" not in result.artifacts
    assert sorted(os.listdir(tmp_path / "models")) == sorted(f"{m}.json" for m in result.models)
    # gradient_boosting is each domain's last model, so `seen` holds its calls.
    expected = (seen["model"].predict_proba(seen["X"])[:, 1] >= 0.5).astype(int)
    assert np.array_equal(seen["predicted"], expected)
    assert result.models["gradient_boosting"]["confusion"]["tp"] == int(((expected == 1) & (seen["y"] == 1)).sum())


class TestConfigEcho:
    def test_library_run_echoes_every_default_key(self):
        """The report echoes the checked config, not the partial one given."""
        config = PipelineConfig(domain="phishing", generator={"n": 300},
                                models={"forest": {"n_trees": 5}, "boosting": {"n_rounds": 5}, "importance_repeats": 1})
        report = run_domain(config)
        assert report.config["models"]["boosting"]["lam"] == 1.0
        assert report.config["preprocess"] == default_config("phishing").preprocess
        assert set(_dotted(report.config)) == set(_dotted(default_config("phishing").to_dict()))
        assert report.config == config.validate()

    def test_default_echo_is_the_default_config(self):
        # So the echo of a default run, and every default digest, is unchanged.
        for domain in pipeline.DOMAINS:
            config = default_config(domain)
            assert json.dumps(config.validate(), sort_keys=True) == json.dumps(config.to_dict(), sort_keys=True)


class TestHistograms:
    def test_distinct_categories_keep_separate_counts(self):
        # A numpy unicode array would drop the trailing NUL and merge "a\x00" into "a".
        ds = Dataset([("c", "categorical"), ("b", "binary"), ("y", "label")],
                     {"c": ["a", "a\x00", "b", "a"], "b": np.array([1, 0, 1, 1]), "y": np.array([0, 0, 1, 0])})
        h = pipeline._histograms(ds)
        assert list(h["c"]["values"].items()) == [("a", 2), ("a\x00", 1), ("b", 1)]
        assert h["b"] == {"kind": "binary", "values": {"0": 1, "1": 3}}
        assert h["y"] == {"kind": "label", "values": {"0": 3, "1": 1}}

    def test_non_finite_numeric_column_is_named(self):
        """np.histogram cannot bin a column holding NaN or infinity; the run
        gets a DataError naming the column, not a ValueError."""
        with pytest.raises(DataError, match="numeric column 'size%' contains NaN or infinite values"):
            pipeline._histograms(edge_dataset())

    def test_counts_equal_a_per_row_count(self):
        edge = edge_dataset()  # awkward strings and 64-bit extreme ints
        columns = [(name, kind) for name, kind in edge.columns if kind != "numeric"]
        ds = Dataset(columns, {name: edge.column(name) for name, _ in columns})
        h = pipeline._histograms(ds)
        for name, kind in columns:
            counts = {}
            for v in ds.column(name).tolist() if kind != "categorical" else ds.column(name):
                counts[str(v)] = counts.get(str(v), 0) + 1
            assert list(h[name]["values"].items()) == sorted(counts.items()), name

    def test_histogram_tables_quote_like_the_dataset(self, tmp_path):
        odd = ["none", "p,df", 'do"cx', "zip", "html"]
        out = tmp_path / "run"
        overrides = ["--override", "generator.overrides=" + json.dumps({"attachment_types": odd})]
        assert main(["run", "phishing", "--out", str(out)] + PHISHING_OVERRIDES + overrides) == 0
        with open(out / "histograms" / "attachment_type.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["value", "count"] and all(len(row) == 2 for row in rows)
        values = parse_report(out / "report.json").histograms["attachment_type"]["values"]
        assert {value: int(count) for value, count in rows[1:]} == values
        assert {"p,df", 'do"cx'} <= set(values)


class TestLeakage:
    def test_audit_keeps_sorted_unique_id_arrays(self):
        audit = LeakageAudit()
        audit.record("fit", [5, -1, 3, 5, 9])
        audit.record("fit", np.array([[2, 3], [-1, 11]]))
        audit.record("calibrate", np.arange(20, 23))
        audit.mark_test([9, 22, -1, 4])
        audit.mark_test([30])
        assert audit.consumed["fit"].tolist() == [2, 3, 5, 9, 11]
        assert audit.consumed["calibrate"].dtype == audit.test_rows.dtype == np.int64
        assert audit.test_rows.tolist() == [4, 9, 22, 30]
        assert audit.leaked() == {"fit": [9], "calibrate": [22]}
        assert all(type(i) is int for ids in audit.leaked().values() for i in ids)
        assert LeakageAudit().leaked() == {}

    def test_rows_are_recorded_only_inside_a_stage(self):
        audit = LeakageAudit()
        with pytest.raises(RuntimeError, match="outside an open stage"):
            audit.consume(np.arange(3))
        with audit.stage("fit"):
            audit.consume(np.arange(3), np.array([7]))
        with pytest.raises(RuntimeError, match="outside an open stage"):
            audit.consume(np.arange(3))
        assert audit.consumed["fit"].tolist() == [0, 1, 2, 7] and list(audit.consumed) == ["fit"]
        assert audit.stages == ["fit"] and audit.open is None and audit.failed is None

    def test_a_supplied_ledger_changes_no_report(self, small_reports):
        """Every run keeps a ledger; one the caller supplies only hands it
        over, so the report is the same with or without it."""
        for domain, (report, audit) in small_reports.items():
            assert run_domain(small_config(domain)).to_dict() == report.to_dict(), domain
            assert audit.stages == report.stages, domain
        reused = LeakageAudit()
        first, second = (run_domain(small_config("phishing"), audit=reused) for _ in range(2))
        assert second.stages == first.stages and reused.stages == first.stages * 2

    def test_no_fit_stage_consumes_test_rows(self, small_reports):
        for domain, (_, audit) in small_reports.items():
            assert audit.test_rows.size, domain
            assert audit.leaked() == {}, f"{domain}: {audit.leaked()}"

    def test_every_fit_stage_recorded(self, small_reports):
        minimum = {
            "intrusion": {"fit_one_hot", "fit_scaler", "fit_isolation_forest", "fit_dense_autoencoder", "calibrate_thresholds"},
            "malware": {"fit_one_hot", "smote_oversample", "fit_random_forest", "fit_gradient_boosting", "calibrate_boosting"},
            "phishing": {"fit_one_hot", "fit_scaler", "fit_logistic", "fit_random_forest", "fit_gradient_boosting", "calibrate_boosting"},
            "ueba": {"fit_one_hot", "fit_scaler", "fit_lstm_autoencoder", "calibrate_threshold"},
        }
        for domain, (_, audit) in small_reports.items():
            assert minimum[domain] <= set(audit.consumed), domain


class TestMalwareRatios:
    def test_smote_leaves_test_ratio_at_generator_ratio(self, small_reports):
        report, _ = small_reports["malware"]
        m = report.models["random_forest"]["confusion"]
        test_total = m["tp"] + m["fp"] + m["fn"] + m["tn"]
        test_pos = m["tp"] + m["fn"]
        n = report.config["generator"]["n"]
        rate = report.config["generator"]["anomaly_rate"]
        assert test_pos == round(round(n * rate) * 0.3)
        assert test_total == round(n * 0.3)


class TestDeterminismAndEmission:
    def test_same_config_byte_identical_reports(self):
        cfg = small_config("phishing", seed=9)
        a = report_to_json(run_domain(cfg))
        b = report_to_json(run_domain(small_config("phishing", seed=9)))
        assert a == b

    def test_full_output_tree_digests_match(self, tmp_path):
        cfg = small_config("intrusion", seed=3)
        digests = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            report = run_domain(small_config("intrusion", seed=3), out_dir=str(out))
            emit_report(report, str(out))
            tree = {}
            for root, _, files in os.walk(out):
                for f in files:
                    p = os.path.join(root, f)
                    tree[os.path.relpath(p, out)] = hashlib.sha256(Path(p).read_bytes()).hexdigest()
            digests.append(tree)
        assert digests[0] == digests[1]

    def test_emitted_report_reparses_equal(self, tmp_path, small_reports):
        report, _ = small_reports["malware"]
        paths = emit_report(report, str(tmp_path))
        again = parse_report(paths["report_json"])
        assert again.to_dict() == report.to_dict()

    def test_histogram_tables_have_bin_rows(self, tmp_path, small_reports):
        report, _ = small_reports["intrusion"]
        emit_report(report, str(tmp_path))
        path = tmp_path / "histograms" / "bytes.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 1 + 20

    def test_artifact_paths_relative_and_loadable(self, tmp_path):
        out = tmp_path / "arts"
        report = run_domain(small_config("ueba", seed=4), out_dir=str(out))
        from threatbench.modelio import load_model
        from threatbench.synthgen import USER_EVENT_SCHEMA

        assert not os.path.isabs(report.artifacts["dataset"])
        ds = load_dataset(out / report.artifacts["dataset"], USER_EVENT_SCHEMA)
        assert ds.n == report.dataset["n"]
        model, thr = load_model(out / report.artifacts["lstm_autoencoder"])
        assert thr is not None and thr.percentile == 95.0
        assert (out / report.artifacts["events"]).exists()

    def test_summary_mentions_every_model(self, small_reports):
        for report, _ in small_reports.values():
            text = render_summary(report)
            for model_name in report.models:
                assert model_name in text


class TestErrors:
    def test_stage_name_propagates(self):
        cfg = small_config("phishing")
        cfg.preprocess["downsample_ratio"] = 500.0  # unachievable
        with pytest.raises(DataError, match="downsample_majority"):
            run_domain(cfg)

    def test_stage_context_keeps_the_original_exception(self):
        class TwoArgError(ValueError):
            def __init__(self, what, why):
                super().__init__(f"{what}: {why}")

        original = TwoArgError("model", "broke")
        audit = LeakageAudit()
        with pytest.raises(TwoArgError, match=r"^stage 'fit': model: broke$") as info:
            with audit.stage("fit"):
                raise original
        assert info.value is original and audit.failed == "fit"

    def test_unknown_domain(self):
        with pytest.raises(ConfigError, match="unknown domain"):
            default_config("dns")
        with pytest.raises(ConfigError):
            run_domain(PipelineConfig(domain="dns"))

    def test_bad_threshold_percentile(self):
        cfg = small_config("intrusion")
        cfg.threshold_percentile = 150.0
        with pytest.raises(ConfigError, match="percentile"):
            run_domain(cfg)

    def test_config_round_trip(self):
        cfg = small_config("malware")
        again = PipelineConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_dense_ae_layers_is_the_one_optional_key(self):
        cfg = small_config("intrusion")
        cfg.models["dense_ae"]["layers"] = [12, 6, 12]
        cfg.validate()
        cfg.models["dense_ae"]["layer"] = [12, 6, 12]
        with pytest.raises(ConfigError, match="models.dense_ae.layer$"):
            cfg.validate()

    @pytest.mark.parametrize("layers", [None, [12, 6, 12], [7, 3, 1, 3, 7], [12, pipeline.MAX_WIDTH, 12]])
    def test_dense_ae_layers_accepted(self, layers):
        cfg = small_config("intrusion")
        cfg.models["dense_ae"]["layers"] = layers
        cfg.validate()

    @pytest.mark.parametrize("layers", ["abc", [], [12, 12], [12, 6, 11], [12, 0, 12], [4, 2.0, 4], [1, True, 1], 12,
                                        [12, pipeline.MAX_WIDTH + 1, 12]])
    def test_dense_ae_layers_rejected(self, layers):
        cfg = small_config("intrusion")
        cfg.models["dense_ae"]["layers"] = layers
        with pytest.raises(ConfigError, match="models.dense_ae.layers must be"):
            cfg.validate()

    def test_session_tensor_bound_is_inclusive(self):
        """1000 users x 30 days x 559 steps is the largest padded tensor within MAX_ROWS cells."""
        cfg = default_config("ueba")
        cfg.generator["overrides"] = {"users": 1000}
        cfg.preprocess["time_steps"] = 559
        cfg.validate()
        cfg.preprocess["time_steps"] = 560
        with pytest.raises(ConfigError, match="^generator.overrides users x days x preprocess.time_steps must be <="):
            cfg.validate()

    def test_lstm_hidden_bound_is_inclusive(self):
        cfg = default_config("ueba")
        cfg.models["lstm_ae"]["hidden"] = pipeline.MAX_WIDTH
        cfg.validate()
        cfg.models["lstm_ae"]["hidden"] = pipeline.MAX_WIDTH + 1
        with pytest.raises(ConfigError, match="^models.lstm_ae.hidden must be <= 1024, got 1025$"):
            cfg.validate()

    @pytest.mark.parametrize(
        "domain, overrides",
        [
            ("ueba", {"users": 3, "events_per_day_mean": 12, "activity_types": ["a", "b"], "activity_mix": [1, 0.5]}),
            ("intrusion", {"protocol_mix": {"TCP": 1, "SCTP": 0.5}, "bytes_log_mean": 7.0}),
            ("malware", {"file_types": ["exe"], "benign_file_type_mix": [1.0], "malicious_file_type_mix": [1.0]}),
        ],
    )
    def test_generator_overrides_of_the_default_types_pass(self, domain, overrides):
        cfg = default_config(domain)
        cfg.generator["overrides"] = overrides
        cfg.validate()

    @pytest.mark.parametrize(
        "domain, overrides, key",
        [
            ("ueba", {"users": "x"}, "users"),
            ("ueba", {"users": 10.0}, "users"),
            ("ueba", {"days": True}, "days"),
            ("ueba", {"activity_types": [1, 2]}, "activity_types"),
            ("ueba", {"activity_mix": "0.5"}, "activity_mix"),
            ("intrusion", {"protocol_mix": {"TCP": "x"}}, "protocol_mix"),
            ("intrusion", {"protocol_mix": [0.5]}, "protocol_mix"),
            ("phishing", {"noise_fraction": None}, "noise_fraction"),
        ],
    )
    def test_generator_override_types_checked_before_generate(self, domain, overrides, key):
        cfg = default_config(domain)
        cfg.generator["overrides"] = overrides
        with pytest.raises(ConfigError, match=f"^generator.overrides.{key} must have the type"):
            cfg.validate()

    def test_generator_keys_checked(self):
        cfg = default_config("phishing")
        cfg.generator["bogus"] = 1
        with pytest.raises(ConfigError, match="unknown config key generator.bogus$"):
            cfg.validate()
        cfg = default_config("phishing")
        cfg.generator["overrides"] = {"users": 3}  # a ueba key
        with pytest.raises(ConfigError, match="unknown config key generator.overrides.users$"):
            cfg.validate()

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            PipelineConfig.from_dict({"domain": "malware", "extra": 1})


def _dotted(d, prefix=""):
    """Every dotted key of a nested config dict, sections included."""
    for key, value in d.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _dotted(value, f"{prefix}{key}.")


class TestConfigWalk:
    def test_every_range_names_a_default(self):
        # A misspelt range key would silently check nothing.
        keys = set(_dotted(default_config("malware").to_dict()))
        assert set(pipeline._RANGES) <= keys | {pipeline._OPTIONAL}
        params = set().union(*GENERATOR_PARAMS.values())
        assert set(PARAM_RANGES) <= params
        for domain, defaults in GENERATOR_PARAMS.items():
            for names, mixes in MIXES.items():
                assert (names in defaults) == all(mix in defaults for mix in mixes), (domain, names)
        assert set(MIXES) <= params

    def test_validate_returns_typed_sections(self):
        cfg = default_config("malware")
        cfg.models["boosting"]["learning_rate"] = 1
        cfg.preprocess["downsample_ratio"] = 2
        checked = cfg.validate()
        pp, models = checked["preprocess"], checked["models"]
        assert type(models["boosting"]["learning_rate"]) is float and models["boosting"]["learning_rate"] == 1.0
        assert type(pp["downsample_ratio"]) is float
        assert type(models["boosting"]["n_rounds"]) is int
        assert cfg.models["boosting"]["learning_rate"] == 1 and type(cfg.models["boosting"]["learning_rate"]) is int

    def test_zero_penalties_are_legal(self):
        cfg = default_config("malware")
        cfg.models["boosting"].update(lam=0.0, gamma=0.0)
        cfg.models["logistic"]["l2"] = 0
        cfg.models["dense_ae"]["l1"] = 0.0
        checked = cfg.validate()
        assert checked["models"]["boosting"]["lam"] == checked["models"]["logistic"]["l2"] == 0.0

    def test_int_learning_rate_writes_the_float_model(self, tmp_path):
        # At an int for a float key the walk passes float(v) on, so the model
        # file is the one `learning_rate: 1.0` writes, byte for byte.
        cfg = small_config("malware")
        cfg.models["boosting"]["learning_rate"] = 1
        run_domain(cfg, out_dir=str(tmp_path))
        digest = hashlib.sha256((tmp_path / "models" / "gradient_boosting.json").read_bytes()).hexdigest()
        assert digest == "a06a1dcbec2643e74624bc0a0e3b888393fbff05dbd6a29ee292854a7c834b04"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("models.forest.n_trees", 5.7, "models.forest.n_trees must have the type of 100, got 5.7"),
            ("models.forest.n_trees", True, "models.forest.n_trees must have the type of 100, got True"),
            ("generator.n", "500", "generator.n must have the type of 10000, got '500'"),
            ("models.calibrate_boosting", 0, "models.calibrate_boosting must have the type of True, got 0"),
            ("models.boosting.learning_rate", 10**400, "models.boosting.learning_rate must have the type of 0.1"),
            ("models.logistic.epochs", 0, "models.logistic.epochs must be >= 1, got 0"),
            ("models.dense_ae.epochs", -5, "models.dense_ae.epochs must be >= 1, got -5"),
            ("models.lstm_ae.epochs", 0, "models.lstm_ae.epochs must be >= 1, got 0"),
            ("models.boosting.max_depth", 0, "models.boosting.max_depth must be >= 1, got 0"),
            ("models.lstm_ae.latent", 0, "models.lstm_ae.latent must be >= 1, got 0"),
            ("models.iforest.n_trees", 0, "models.iforest.n_trees must be >= 1, got 0"),
            ("preprocess.downsample_ratio", float("nan"), "preprocess.downsample_ratio must be a finite number > 0, got nan"),
            ("preprocess.downsample_ratio", float("inf"), "preprocess.downsample_ratio must be a finite number > 0, got inf"),
            ("preprocess.downsample_ratio", 0, "preprocess.downsample_ratio must be a finite number > 0, got 0"),
            ("preprocess.test_fraction", float("nan"), "preprocess.test_fraction must be a number in (0, 1), got nan"),
            ("models.boosting.subsample", 0, "models.boosting.subsample must be in (0, 1], got 0"),
            ("threshold_percentile", 100, "threshold_percentile must be a number in (0, 100), got 100"),
            ("seed", True, "seed must have the type of 42, got True"),
        ],
    )
    def test_out_of_type_or_range_rejected(self, key, value, message):
        cfg = default_config("malware").to_dict()
        *path, last = key.split(".")
        section = cfg
        for part in path:
            section = section[part]
        section[last] = value
        with pytest.raises(ConfigError) as info:
            PipelineConfig.from_dict(cfg).validate()
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "domain, overrides, key",
        [
            ("phishing", {"attachment_types": [], "legit_attachment_mix": [], "phish_attachment_mix": []},
             "legit_attachment_mix"),
            ("intrusion", {"protocol_mix": {}}, "protocol_mix"),
            ("intrusion", {"protocol_mix": {"TCP": -1.0, "UDP": 2.0}}, "protocol_mix"),
            ("ueba", {"activity_mix": [0, 0, 0, 0]}, "activity_mix"),
            ("ueba", {"activity_mix": [float("nan"), 1, 1, 1]}, "activity_mix"),
            ("malware", {"malicious_file_type_mix": [float("inf"), 1, 1, 1, 1]}, "malicious_file_type_mix"),
            ("phishing", {"phish_attachment_mix": [1e308, 1e308, 1, 1, 1]}, "phish_attachment_mix"),
            ("intrusion", {"bytes_log_sigma": -1.0}, "bytes_log_sigma"),
            ("intrusion", {"duration_log_sigma": -0.0}, "duration_log_sigma"),
            ("intrusion", {"packet_std": float("nan")}, "packet_std"),
            ("malware", {"entropy_std": -0.0}, "entropy_std"),
            ("phishing", {"legit_links_mean": -1}, "legit_links_mean"),
            ("phishing", {"phish_suspicious_words_mean": float("inf")}, "phish_suspicious_words_mean"),
            ("ueba", {"events_per_day_mean": float("nan")}, "events_per_day_mean"),
            ("phishing", {"noise_fraction": 1.5}, "noise_fraction"),
            ("ueba", {"anomalous_share_of_session": float("-inf")}, "anomalous_share_of_session"),
            ("ueba", {"days": 0}, "days"),
        ],
    )
    def test_generator_overrides_that_crash_a_sampler_rejected(self, domain, overrides, key):
        cfg = default_config(domain)
        cfg.generator["overrides"] = overrides
        with pytest.raises(ConfigError, match=f"^generator.overrides.{key} must "):
            cfg.validate()


# -- the per-model chains, forked and inline ---------------------------------------------


def see_cpus(monkeypatch, n):
    """Make a run see `n` CPUs it may use: with more than one, every model's
    chain but the last runs in a forked worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tree_digests(root):
    return {
        os.path.relpath(os.path.join(d, f), root): hashlib.sha256(Path(d, f).read_bytes()).hexdigest()
        for d, _, files in os.walk(root) for f in files
    }


class TestWorkers:
    @pytest.mark.parametrize("domain", pipeline.DOMAINS)
    def test_forked_and_inline_runs_are_identical(self, domain, monkeypatch, tmp_path):
        """Report, output tree, stages and leakage ledger are the same whether
        the chains run in forked workers or one after another here."""
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        runs = []
        for cpus in (1, 2):
            see_cpus(monkeypatch, cpus)
            audit, out = LeakageAudit(), tmp_path / str(cpus)
            report = run_domain(small_config(domain), out_dir=str(out), audit=audit)
            emit_report(report, str(out))
            assert_no_worker_left()
            runs.append((report.to_dict(), tree_digests(out), audit))
        models = len(pipeline.DOMAIN_SPECS[domain].models)
        # The data/ writer, every chain but the last, and one importance shard
        # where the chains leave a CPU free (ueba: one chain on two CPUs).
        assert len(forks) == 1 + (models - 1) + (models < 2)
        (inline, inline_tree, inline_audit), (forked, forked_tree, forked_audit) = runs
        assert inline == forked and inline_tree == forked_tree
        assert list(inline_audit.consumed) == list(forked_audit.consumed)
        for stage, ids in inline_audit.consumed.items():
            assert np.array_equal(ids, forked_audit.consumed[stage]), stage
        assert np.array_equal(inline_audit.test_rows, forked_audit.test_rows)

    @pytest.mark.parametrize("patches, code, line", [
        # A forked chain (the forest) fails.
        ({"fit_random_forest": DataError("forest broke")}, 3, "data error: stage 'fit_random_forest': forest broke"),
        # Two forked chains fail; the forest's fit comes before the logistic evaluation.
        ({"fit_random_forest": DataError("forest broke"), "logistic_proba": ConfigError("scores broke")},
         3, "data error: stage 'fit_random_forest': forest broke"),
        # The logistic chain (forked) fails in evaluation, the boosting chain
        # (run here) in its Platt fit, which the sequential order reaches first.
        ({"logistic_proba": DataError("scores broke"), "fit_platt": NumericError("platt broke")},
         4, "numeric failure: stage 'calibrate_boosting': platt broke"),
        # The forest (forked) fails in its fit, before the Platt fit of the boosting chain.
        ({"fit_random_forest": RuntimeError("forest broke"), "fit_platt": NumericError("platt broke")},
         5, "internal error: RuntimeError: stage 'fit_random_forest': forest broke"),
    ])
    def test_failure_is_the_one_the_sequential_order_meets_first(self, patches, code, line, monkeypatch, tmp_path, capsys):
        """Forked or inline, a failing run exits with the same code and stderr
        line, that of the failure the stages run one after another would
        raise first; it leaves `data/` but no models and no report."""
        def raising(error):
            def kernel(*args, **kwargs):
                raise copy.copy(error)

            return kernel

        for name, error in patches.items():
            monkeypatch.setattr(pipeline, name, raising(error))
        for cpus in (1, 2):
            see_cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            assert main(["run", "phishing", "--out", str(out)] + PHISHING_OVERRIDES) == code
            assert capsys.readouterr().err == line + "\n"
            assert_no_worker_left()
            assert (out / "data").exists() and not (out / "models").exists() and not (out / "report.json").exists()

    def test_worker_that_exits_without_a_record_is_an_internal_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(pipeline, "fit_random_forest", lambda *args, **kwargs: os._exit(3))
        see_cpus(monkeypatch, 2)
        assert main(["run", "phishing", "--out", str(tmp_path)] + PHISHING_OVERRIDES) == 5
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: model 'random_forest': its worker exited with status 3 and sent no record\n"
        assert_no_worker_left()
        assert not (tmp_path / "models").exists()

    def test_interrupted_run_leaves_no_worker(self, monkeypatch):
        """An interrupt in this process's chain kills and reaps the workers."""
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "fit_gradient_boosting", interrupted)
        see_cpus(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            run_domain(small_config("phishing"))
        assert_no_worker_left()

    def test_two_shards_map_in_list_order(self, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        see_cpus(monkeypatch, 2)
        assert pipeline._two_shards(lambda cell: cell * cell, iter(range(7))) == [cell * cell for cell in range(7)]
        assert len(forks) == 1
        assert_no_worker_left()

    @staticmethod
    def break_importance(monkeypatch, in_worker, in_parent):
        """Make the ueba scorer of one run call `in_worker` or `in_parent` (by
        the process it runs in) on each importance cell that permutes feature 0. With two
        CPUs the first shard, repeat 0 under `UEBA_OVERRIDES`, runs in a
        worker and repeat 1 here; with one, every cell runs here."""
        parent, seen = os.getpid(), []

        def scoring(model, tensor):
            if len(seen) < 2:  # the clean partition (threshold), then the test tensor (baseline)
                seen.append(tensor.data.copy())
            elif (tensor.data[..., 0] != seen[1][..., 0]).any():
                (in_parent if os.getpid() == parent else in_worker)()
            return score_sessions(model, tensor)

        monkeypatch.setattr(pipeline, "score_sessions", scoring)

    @staticmethod
    def raising(error):
        def raise_(*args, **kwargs):
            raise error

        return raise_

    def test_failing_importance_shard_is_the_first_cell_to_fail(self, monkeypatch, tmp_path, capsys):
        """The worker's shard fails with a DataError and this process's with a
        NumericError; the worker's cells come first in the sequential order."""
        for cpus, code, line in ((1, 4, "numeric failure: stage 'evaluate': parent cell"),
                                 (2, 3, "data error: stage 'evaluate': worker cell")):
            self.break_importance(monkeypatch, self.raising(DataError("worker cell")), self.raising(NumericError("parent cell")))
            see_cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            assert main(["run", "ueba", "--out", str(out)] + UEBA_OVERRIDES) == code
            assert capsys.readouterr().err == line + "\n"
            assert_no_worker_left()
            assert (out / "data" / "events.jsonl").exists() and not (out / "models").exists()
            assert not (out / "report.json").exists()

    def test_shard_that_exits_without_a_record_is_an_internal_error(self, monkeypatch, tmp_path, capsys):
        self.break_importance(monkeypatch, lambda: os._exit(3), lambda: None)
        see_cpus(monkeypatch, 2)
        assert main(["run", "ueba", "--out", str(tmp_path)] + UEBA_OVERRIDES) == 5
        assert capsys.readouterr().err == ("internal error: RuntimeError: stage 'evaluate': importance shard 1: "
                                           "its worker exited with status 3 and sent no record\n")
        assert_no_worker_left()
        assert not (tmp_path / "models").exists()

    def test_failing_writer_is_the_first_failure(self, monkeypatch, tmp_path, capsys):
        """`data/` is written first in the sequential order, so its failure
        outranks that of a later stage, forked or inline."""
        def full_disk(dataset, path):
            with writing(path):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(pipeline, "save_events_jsonl", full_disk)
        monkeypatch.setattr(pipeline, "fit_lstm_autoencoder", self.raising(NumericError("fit broke")))
        for cpus in (1, 2):
            see_cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            assert main(["run", "ueba", "--out", str(out)] + UEBA_OVERRIDES) == 3
            events = out / "data" / "events.jsonl"
            assert capsys.readouterr().err == f"data error: cannot write {events}: [Errno 28] No space left on device\n"
            assert_no_worker_left()
            assert not (out / "models").exists() and not (out / "report.json").exists()

    def test_run_that_fails_later_leaves_a_complete_data_dir(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(pipeline, "fit_lstm_autoencoder", self.raising(NumericError("fit broke")))
        see_cpus(monkeypatch, 2)
        assert main(["run", "ueba", "--out", str(tmp_path / "run")] + UEBA_OVERRIDES) == 4
        assert capsys.readouterr().err == "numeric failure: stage 'fit_lstm_autoencoder': fit broke\n"
        config = small_config("ueba")
        pipeline.write_dataset(pipeline.GENERATORS["ueba"](pipeline.generator_config(config)), "ueba", str(tmp_path / "want"))
        assert tree_digests(tmp_path / "run" / "data") == tree_digests(tmp_path / "want")
        assert sorted(os.listdir(tmp_path / "run")) == ["data"]

    def test_out_that_cannot_be_made_fails_before_prepare(self, monkeypatch, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(pipeline, "_prepare_sessions", lambda *args: pytest.fail("prepare ran"))
        see_cpus(monkeypatch, 2)
        assert main(["run", "ueba", "--out", str(blocker / "sub")] + UEBA_OVERRIDES) == 3
        assert capsys.readouterr().err.startswith(f"data error: cannot write under {blocker / 'sub' / 'data'}: ")

    @pytest.mark.parametrize("where", ["fit", "shard"])
    def test_interrupted_ueba_run_leaves_no_worker(self, where, monkeypatch, tmp_path):
        """An interrupt here kills and reaps the data/ writer or the worker's shard."""
        if where == "fit":
            monkeypatch.setattr(pipeline, "fit_lstm_autoencoder", self.raising(KeyboardInterrupt()))
        else:
            self.break_importance(monkeypatch, lambda: None, self.raising(KeyboardInterrupt()))
        see_cpus(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            run_domain(small_config("ueba"), out_dir=str(tmp_path))
        assert_no_worker_left()

    def test_piped_run_prints_its_summary_once(self, tmp_path):
        """The workers leave without flushing the stdout buffer they inherit."""
        out = tmp_path / "stdout.txt"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (os.path.dirname(os.path.dirname(pipeline.__file__)), os.environ.get("PYTHONPATH")) if p)}
        with open(out, "w") as fh:
            subprocess.run([sys.executable, "-m", "threatbench.cli", "run", "phishing", "--out", str(tmp_path / "run")]
                           + PHISHING_OVERRIDES, stdout=fh, env=env, check=True, timeout=120)
        text = out.read_text()
        assert text.count("threatbench run report") == 1 and text.count("\nreport: ") == 1
