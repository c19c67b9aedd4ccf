"""The domain spec table and its runner, run reports, and report emission.

A domain is one DOMAIN_SPECS entry: its label and categorical columns, its
preprocessing, and per model the fit, the scorer, the training rows and the
threshold policy. `run_domain` executes any entry.

Data preparation has one path for both shapes of data: the generated table is
split by row index, the encoder and scaler are fit on the train rows
(`_fit_encoding`), and `preprocess.fill_features` fills each partition's
matrix (tabular domains) or session tensor (ueba) straight from the table, so
no copy of the table is made.

Each run is a pure function of (PipelineConfig, toolkit version): reports
carry no timestamps or host identifiers and artifact paths are stored relative
to the report, so identical configs produce byte-identical output trees. Every
fit or calibration stage consumes training-partition rows only; pass a
LeakageAudit to record exactly which source rows each stage touched.
"""

from __future__ import annotations

import copy
import json
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, synthgen
from .errors import ConfigError, DataError
from .evalx import classification_report, permutation_importance
from .forest import (
    BoostConfig,
    ForestConfig,
    TreeEnsemble,
    fit_gradient_boosting,
    fit_isolation_forest,
    fit_random_forest,
    iforest_score,
)
from .linear import fit_logistic, fit_platt, predict_proba as logistic_proba
from .modelio import save_model
from .neural import (
    calibrate_threshold,
    detect_anomalies,
    fit_dense_autoencoder,
    fit_lstm_autoencoder,
    reconstruction_errors,
    score_sessions,
)
from .preprocess import (
    SessionTensor,
    downsample_majority,
    feature_plan,
    fill_features,
    fit_one_hot,
    fit_scaler,
    group_sessions,
    one_hot_codes,
    sessionize,
    smote_oversample,
)
from .synthgen import GENERATORS, GeneratorConfig, save_events_jsonl
from .tabular import Dataset, RngStream, check_finite, save_dataset, stratified_indices

DOMAINS = ("intrusion", "malware", "phishing", "ueba")
REPORT_SCHEMA_VERSION = 1

_GENERATOR_DEFAULTS = {
    "intrusion": {"n": 8000, "anomaly_rate": 0.05, "overrides": {}},
    "malware": {"n": 10000, "anomaly_rate": 0.10, "overrides": {}},
    "phishing": {"n": 10000, "anomaly_rate": 0.20, "overrides": {}},
    "ueba": {"n": 0, "anomaly_rate": 0.02, "overrides": {}},
}

_PREPROCESS_DEFAULTS = {
    "test_fraction": 0.3,
    "validation_fraction": 0.2,  # of the train partition, for early stopping
    "smote_k": 5,
    "downsample_ratio": 1.0,
    "time_steps": 50,
}

_MODEL_DEFAULTS = {
    "forest": {"n_trees": 100, "max_depth": 12, "min_samples_split": 2},
    "boosting": {
        "learning_rate": 0.1,
        "n_rounds": 200,
        "max_depth": 3,
        "lam": 1.0,
        "gamma": 0.0,
        "subsample": 0.8,
        "early_stopping_rounds": 10,
    },
    "logistic": {"l2": 1e-4, "epochs": 400, "step_size": 0.5},
    "iforest": {"n_trees": 100, "psi": 256},
    "dense_ae": {"l1": 1e-5, "epochs": 30, "step_size": 0.01, "batch_size": 64},
    "lstm_ae": {"hidden": 32, "latent": 16, "epochs": 12, "step_size": 0.01, "batch_size": 64},
    "calibrate_boosting": True,
    "importance_repeats": 3,
}

# The one key a config section may hold that its defaults leave out.
_OPTIONAL = "models.dense_ae.layers"

# The legal range of a config value, as (predicate, text), by dotted key. A
# predicate sees only a value of its default's type. Below 1 a count or size
# fits no model, or fails after earlier stages have run; a zero-epoch fit
# leaves initial weights, a depth-0 tree is a single leaf, a split needs two
# rows and a step size must move the weights forward.
_FRACTION = (lambda v: 0 < v < 1, "a number in (0, 1)")
_RANGES = {
    **dict.fromkeys((
        "models.forest.n_trees", "models.forest.max_depth", "models.iforest.n_trees", "models.boosting.n_rounds",
        "models.boosting.max_depth", "models.boosting.early_stopping_rounds", "models.logistic.epochs",
        "models.dense_ae.epochs", "models.dense_ae.batch_size", "models.lstm_ae.latent", "models.lstm_ae.epochs",
        "models.lstm_ae.batch_size", "models.importance_repeats", "preprocess.smote_k", "preprocess.time_steps",
    ), (lambda v: v >= 1, ">= 1")),
    **dict.fromkeys(("models.iforest.psi", "models.forest.min_samples_split"), (lambda v: v >= 2, ">= 2")),
    **dict.fromkeys((
        "models.logistic.step_size", "models.dense_ae.step_size", "models.lstm_ae.step_size",
        "preprocess.downsample_ratio",
    ), (lambda v: 0 < v < np.inf, "a finite number > 0")),
    "models.boosting.subsample": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "preprocess.test_fraction": _FRACTION,
    "preprocess.validation_fraction": _FRACTION,
    "threshold_percentile": (lambda v: 0 < v < 100, "a number in (0, 100)"),
}


@dataclass
class PipelineConfig:
    """One domain run: generator, preprocessing, model and threshold settings."""

    domain: str
    seed: int = 42
    generator: dict = field(default_factory=dict)
    preprocess: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)
    threshold_percentile: float = 95.0

    def validate(self) -> dict:
        """The whole config, checked and typed: each field laid over its
        `default_config` value (see `_checked`). Raises ConfigError on the first
        value out of type or range."""
        defaults = default_config(self.domain).to_dict()
        checked = {name: _checked(name, value, defaults[name]) for name, value in self.to_dict().items()}
        GeneratorConfig(**checked["generator"]).params(self.domain)
        layers = checked["models"]["dense_ae"].get("layers")
        if layers is not None and not (
            isinstance(layers, list) and len(layers) >= 3 and layers == layers[::-1]
            and all(synthgen.like(s, 1) and s >= 1 for s in layers)
        ):
            raise ConfigError(f"models.dense_ae.layers must be a symmetric list of at least 3 positive ints, got {layers!r}")
        lstm = checked["models"]["lstm_ae"]
        if not lstm["latent"] < lstm["hidden"]:
            raise ConfigError("models.lstm_ae.latent must be below models.lstm_ae.hidden, "
                              f"got latent {lstm['latent']!r} and hidden {lstm['hidden']!r}")
        return checked

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        unknown = set(d) - {"domain", "seed", "generator", "preprocess", "models", "threshold_percentile"}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "domain" not in d:
            raise ConfigError("config requires a domain")
        return cls(**copy.deepcopy(d))


def default_config(domain: str, seed: int = 42) -> PipelineConfig:
    if domain not in DOMAINS:
        raise ConfigError(f"unknown domain {domain!r}; choose from {DOMAINS}")
    return PipelineConfig(
        domain=domain,
        seed=seed,
        generator=copy.deepcopy(_GENERATOR_DEFAULTS[domain]),
        preprocess=copy.deepcopy(_PREPROCESS_DEFAULTS),
        models=copy.deepcopy(_MODEL_DEFAULTS),
        threshold_percentile=95.0,
    )


def _checked(name: str, value, default):
    """`value` laid over `default`, checked and typed. A section merges key by
    key, nested sections too, and may hold only its defaults' keys (and
    `_OPTIONAL`); an empty default (`generator.overrides`) is free-form, left
    to its owner to check. Every other value must have its default's type
    (`synthgen.like`) and lie in its `_RANGES` range; an int for a float
    default becomes a float."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config section {name!r} must be an object, got {value!r}")
        unknown = [key for key in value if key not in default and f"{name}.{key}" != _OPTIONAL]
        if default and unknown:
            raise ConfigError(f"unknown config key {name}.{unknown[0]}")
        return {key: _checked(f"{name}.{key}", v, default.get(key)) for key, v in {**default, **value}.items()}
    if default is None:  # the optional key, checked by `PipelineConfig.validate`
        return value
    if not synthgen.like(value, default):
        raise ConfigError(f"{name} must have the type of {default!r}, got {value!r}")
    test, text = _RANGES.get(name, (None, None))
    if test and not test(value):
        raise ConfigError(f"{name} must be {text}, got {value!r}")
    return float(value) if isinstance(default, float) else value


def generator_config(config: PipelineConfig) -> GeneratorConfig:
    checked = config.validate()
    return GeneratorConfig(**checked["generator"], seed=checked["seed"])


class LeakageAudit:
    """Records the source-row ids every fit/calibration stage consumed,
    plus the ids of the held-out test partition, so a test can assert the
    two never intersect. Each set of ids is a sorted unique int64 array;
    synthetic rows (id -1) are left out. An id array that is already sorted
    and unique is kept as it is, not copied, so callers hand over arrays
    they no longer change."""

    def __init__(self):
        self.consumed = {}  # stage -> row ids
        self.test_rows = np.empty(0, dtype=np.int64)

    @staticmethod
    def _ids(row_ids) -> np.ndarray:
        ids = np.asarray(row_ids, dtype=np.int64).ravel()
        if not (ids[1:] > ids[:-1]).all():
            ids = np.unique(ids)
        return ids[np.searchsorted(ids, 0):]

    def record(self, stage: str, row_ids) -> None:
        ids = self._ids(row_ids)
        self.consumed[stage] = np.union1d(self.consumed[stage], ids) if stage in self.consumed else ids

    def mark_test(self, row_ids) -> None:
        ids = self._ids(row_ids)
        self.test_rows = np.union1d(self.test_rows, ids) if self.test_rows.size else ids

    def leaked(self) -> dict:
        """Stage -> offending row ids (empty when the run was clean)."""
        overlaps = {stage: np.intersect1d(ids, self.test_rows, assume_unique=True) for stage, ids in self.consumed.items()}
        return {stage: ids.tolist() for stage, ids in overlaps.items() if ids.size}


class _StageRecorder:
    def __init__(self):
        self.stages = []

    @contextmanager
    def stage(self, name: str):
        self.stages.append(name)
        try:
            yield
        except Exception as exc:
            # Reworded in place: calling type(exc)(...) fails for exception
            # classes whose constructors take other arguments.
            exc.args = (f"stage {name!r}: {exc}",)
            raise


@dataclass
class RunReport:
    """Everything one pipeline run produced, minus wall-clock noise."""

    domain: str
    config: dict
    toolkit_version: str
    dataset: dict
    stages: list
    models: dict  # model name -> metrics dict
    thresholds: dict = field(default_factory=dict)
    importances: dict = field(default_factory=dict)  # model name -> [[feature, score], ...]
    flags: dict = field(default_factory=dict)  # model name -> flagged test indices
    histograms: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    schema_version: int = REPORT_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        """Missing optional fields take their defaults; a missing required
        field raises TypeError."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


def _histograms(dataset: Dataset, bins: int = 20) -> dict:
    out = {}
    for name, kind in dataset.columns:
        values = dataset.column(name)
        if kind == "numeric":
            arr = np.asarray(values, dtype=np.float64)
            counts, edges = np.histogram(check_finite(arr, f"numeric column {name!r}"), bins=bins)
            out[name] = {"kind": "numeric", "edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}
        elif isinstance(values, np.ndarray) and values.dtype.kind in "biu":
            uniq, counts = np.unique(values, return_counts=True)
            out[name] = {"kind": kind, "values": dict(sorted(zip(map(str, uniq.tolist()), counts.tolist())))}
        else:
            counts = Counter(map(str, values.tolist() if isinstance(values, np.ndarray) else values))
            out[name] = {"kind": kind, "values": dict(sorted(counts.items()))}
    return out


def _dataset_block(dataset: Dataset) -> dict:
    label = dataset.label_column()
    counts = {}
    if label:
        vals, cnts = np.unique(np.asarray(dataset.column(label)), return_counts=True)
        counts = {str(int(v)): int(c) for v, c in zip(vals, cnts)}
    return {
        "n": dataset.n,
        "columns": [[n, k] for n, k in dataset.columns],
        "label_column": label,
        "label_counts": counts,
    }


def write_dataset(dataset: Dataset, domain: str, directory) -> dict:
    """Write `<domain>.csv` under `directory`, plus `events.jsonl` for a session
    domain's event log. Returns {"dataset": path} and, if written, "events"."""
    os.makedirs(directory, exist_ok=True)
    paths = {"dataset": os.path.join(directory, f"{domain}.csv")}
    save_dataset(dataset, paths["dataset"])
    if DOMAIN_SPECS[domain].sessions:
        paths["events"] = os.path.join(directory, "events.jsonl")
        save_events_jsonl(dataset, paths["events"])
    return paths


# -- partitions, preparation and the domain spec table ----------------------------------


@dataclass
class _Rows:
    """A tabular partition: features, labels, and the source row id behind
    each row (-1 for synthetic rows), for the leakage audit."""

    X: np.ndarray
    y: np.ndarray
    ids: np.ndarray

    def select(self, idx) -> "_Rows":
        return _Rows(self.X[idx], self.y[idx], self.ids[idx])

    def importance_inputs(self, score):
        """(array permutation importance shuffles, scorer of that array)."""
        return self.X, score


class _Sessions(_Rows):
    """A session partition: X is a SessionTensor, ids the row ids of every
    event of every session."""

    def __init__(self, tensor: SessionTensor):
        super().__init__(tensor, tensor.labels, tensor.event_row_ids)

    def importance_inputs(self, score):
        t = self.X
        return t.data, lambda X3: score(
            SessionTensor(data=X3, lengths=t.lengths, labels=t.labels, feature_names=t.feature_names)
        )


def _record(audit, stage, *parts) -> None:
    if audit:
        for part in parts:
            audit.record(stage, part.ids)


def _fit_encoding(spec, table: Dataset, train, test, rec, audit, exclude=()):
    """Fit the one-hot encoder, and the scaler if the spec scales, on the
    table rows `train` (in their order). A test category that train lacks is
    an error of the fit_one_hot stage, named by its position in `test`."""
    with rec.stage("fit_one_hot"):
        encoder = fit_one_hot(table, list(spec.categoricals), rows=train)
        if audit:
            audit.record("fit_one_hot", table.row_ids[train])
        for name in encoder.categories:
            one_hot_codes(encoder, name, table.column(name), test)
    scaler = None
    if spec.scale:
        with rec.stage("fit_scaler"):
            numeric = [n for n in table.names_of_kind("numeric") if n not in exclude]
            scaler = fit_scaler(table, numeric, rows=train)
            if audit:
                audit.record("fit_scaler", table.row_ids[train])
    return encoder, scaler


def _prepare_tabular(spec, held, pp, rng, rec, audit):
    """Split -> downsample train -> fit encoding on train -> fill the train and
    test matrices -> carve validation -> SMOTE on the fit rows. Returns
    (features, partitions, dataset extras).

    Like `_prepare_sessions`, it works on row indices of the generated table
    and fills each matrix straight from it, so no copy of the table is made.
    `held` is a one-item list holding the table; it is popped, and the table
    is consumed by the fill."""
    table = held.pop()
    with rec.stage("split"):
        labels = np.asarray(table.column(spec.label))
        train, test = stratified_indices(labels, pp["test_fraction"], rng.child("split"))
        if audit:
            audit.mark_test(table.row_ids[test])
    if spec.resample == "downsample":
        with rec.stage("downsample_majority"):
            train = train[downsample_majority(labels[train], pp["downsample_ratio"], rng.child("downsample"))]
    encoder, scaler = _fit_encoding(spec, table, train, test, rec, audit)

    plan = feature_plan(table, encoder)
    features = [f for _, names in plan for f in names]
    rows = {"train": train, "test": test}
    parts = {name: _Rows(np.zeros((len(r), len(features))), labels[r], table.row_ids[r]) for name, r in rows.items()}
    fill_features(table, plan, [(parts[name].X, slice(None), r) for name, r in rows.items()], encoder, scaler)
    if spec.validation:
        with rec.stage("carve_validation"):
            fit_idx, val_idx = stratified_indices(parts["train"].y, pp["validation_fraction"], rng.child("val"))
            parts["fit"] = parts["train"].select(fit_idx)
            parts["val"] = parts["train"].select(val_idx)
    if spec.resample == "smote":
        with rec.stage("smote_oversample"):
            fit = parts["fit"]
            minority = fit.X[fit.y == 1]
            n_synthetic = max(0, int((fit.y == 0).sum()) - minority.shape[0])
            synthetic = smote_oversample(minority, pp["smote_k"], n_synthetic, rng.child("smote"))
            if audit:
                audit.record("smote_oversample", fit.ids[fit.y == 1])
            parts["fit"] = _Rows(
                np.vstack([fit.X, synthetic]),
                np.concatenate([fit.y, np.ones(synthetic.shape[0], dtype=np.int64)]),
                np.concatenate([fit.ids, np.full(synthetic.shape[0], -1, dtype=np.int64)]),
            )
    return features, parts, {}


def _prepare_sessions(spec, held, pp, rng, rec, audit):
    """One pass over the event log: group it into (user, day) sessions once,
    split at session level, fit the encoder and scaler on the train sessions'
    events, then fill each partition's tensor straight from the log. Takes
    `held` and returns the same triple as `_prepare_tabular`, with only the
    partitions a model reads, and "test".

    No copy of the event table is made. A partition is the table rows of its
    sessions; "clean" is the train sessions labelled 0, so a domain whose
    models read only "clean" (ueba) never builds a train tensor. The fits read
    the train rows in ascending row order, as a train copy of the table would
    hold them, and `sessionize` frees each column of the log once used.
    """
    events = held.pop()
    read = {name for m in spec.models for name in m.rows}
    with rec.stage("session_split"):
        sessions = group_sessions(events, label_column=spec.label)
        labels = sessions.labels
        train, test = stratified_indices(labels, pp["test_fraction"], rng.child("split"))
        chosen = {"train": train, "clean": train[labels[train] == 0], "test": test}
        names = [name for name in chosen if name in read or name == "test"]
        partitions = [sessions.select(chosen[name]) for name in names]
        train_rows, test_rows = (np.sort(sessions.select(idx).order) for idx in (train, test))
        del sessions, chosen
        if audit:
            audit.mark_test(events.row_ids[test_rows])
    encoder, scaler = _fit_encoding(spec, events, train_rows, test_rows, rec, audit, exclude=("user_id", "day"))
    del train_rows, test_rows
    with rec.stage("sessionize"):
        tensors = sessionize(events, pp["time_steps"], partitions, encoder, scaler)
    counts = {str(c): int((labels == c).sum()) for c in (0, 1)}
    extra = {"n_sessions": len(labels), "session_label_counts": counts}
    return tensors[0].feature_names, {name: _Sessions(t) for name, t in zip(names, tensors)}, extra


# The fits and scorers below reach every kernel through this module's globals
# at call time; the table never stores a kernel function object. Rebinding a
# global here (perfbench/tracer.py does) thus reaches every call of a run.


def _fit_iforest(mc, rng, rows):
    c = mc["iforest"]
    return fit_isolation_forest(rows.X, c["n_trees"], min(c["psi"], rows.X.shape[0]), rng.child("iforest"))


def _fit_dense_ae(mc, rng, rows):
    d = rows.X.shape[1]
    kwargs = dict(mc["dense_ae"])
    layers = kwargs.pop("layers", None) or [d, max(8, d // 2), max(4, d // 4), max(8, d // 2), d]
    ae, _ = fit_dense_autoencoder(rows.X, layers, rng=rng.child("dense_ae"), **kwargs)
    return ae


def _fit_forest(mc, rng, rows):
    return fit_random_forest(rows.X, rows.y, ForestConfig(**mc["forest"]), rng.child("forest"))


def _fit_boosting(mc, rng, rows, val):
    bc = BoostConfig(**mc["boosting"])
    return fit_gradient_boosting(rows.X, rows.y, bc, validation=(val.X, val.y), rng=rng.child("boost"))


def _fit_logistic(mc, rng, rows):
    return fit_logistic(rows.X, rows.y, **mc["logistic"])


def _fit_lstm_ae(mc, rng, rows):
    lstm, _ = fit_lstm_autoencoder(rows.X, rng=rng.child("lstm"), **mc["lstm_ae"])
    return lstm


class ModelSpec(NamedTuple):
    """One model. `fit(mc, rng, *parts)` trains on the partitions named in
    `rows`: "train", "clean" (its label-0 rows), "fit" or "val" (the two sides
    of the validation slice). `threshold` turns threat scores into
    predictions: "percentile" flags scores above the threshold_percentile-th
    percentile of the scores on the first `rows` partition; "0.5" predicts a
    threat at score >= 0.5; "platt" does so on margins Platt-scaled on "val"
    right after the fit, if models.calibrate_boosting is set. `tag` names the
    importance stream. `score(model, X)` gives the threat scores of a model
    that is not a tree ensemble, and those a "percentile" threshold is
    calibrated on; tree ensembles are scored through `model.scorer`."""

    name: str
    stage: str
    fit: Callable
    rows: tuple
    threshold: str
    tag: str
    score: Callable | None = None


class DomainSpec(NamedTuple):
    """How one domain's data is prepared, and the models it runs."""

    label: str
    threat: str  # report name of the positive class
    categoricals: tuple
    scale: bool  # z-score numeric columns (tree models split on raw values)
    resample: str | None  # train-side step: "downsample" (before encoding), "smote" (on the fit rows) or None
    validation: bool  # carve a validation slice off train: the "fit" and "val" partitions
    sessions: bool  # an event log, split and scored per (user, day) session
    models: tuple


DOMAIN_SPECS = {
    "intrusion": DomainSpec(
        "anomaly_label", "anomaly", ("protocol",), scale=True, resample=None, validation=False, sessions=False,
        models=(
            ModelSpec("isolation_forest", "fit_isolation_forest", _fit_iforest, ("train",), "percentile", "if",
                      lambda m, X: iforest_score(m, X)),
            ModelSpec("dense_autoencoder", "fit_dense_autoencoder", _fit_dense_ae, ("clean",), "percentile", "ae",
                      lambda m, X: reconstruction_errors(m, X)),
        ),
    ),
    "malware": DomainSpec(
        "label", "malicious", ("file_type",), scale=False, resample="smote", validation=True, sessions=False,
        models=(
            ModelSpec("random_forest", "fit_random_forest", _fit_forest, ("fit",), "0.5", "rf"),
            ModelSpec("gradient_boosting", "fit_gradient_boosting", _fit_boosting, ("fit", "val"), "platt", "gb"),
        ),
    ),
    "phishing": DomainSpec(
        "label", "phishing", ("attachment_type",), scale=True, resample="downsample", validation=True, sessions=False,
        models=(
            ModelSpec("logistic_regression", "fit_logistic", _fit_logistic, ("train",), "0.5", "lr",
                      lambda m, X: logistic_proba(m, X)),
            ModelSpec("random_forest", "fit_random_forest", _fit_forest, ("train",), "0.5", "rf"),
            ModelSpec("gradient_boosting", "fit_gradient_boosting", _fit_boosting, ("fit", "val"), "platt", "gb"),
        ),
    ),
    "ueba": DomainSpec(
        "anomaly_label", "threat_session", ("activity_type",), scale=True, resample=None, validation=False, sessions=True,
        models=(
            ModelSpec("lstm_autoencoder", "fit_lstm_autoencoder", _fit_lstm_ae, ("clean",), "percentile", "lstm",
                      lambda m, X: score_sessions(m, X)),
        ),
    ),
}


def run_domain(config: PipelineConfig, out_dir=None, audit: LeakageAudit | None = None) -> RunReport:
    """Run one domain as its DOMAIN_SPECS entry says: generate the table and,
    given out_dir, write it to `data/` before any fit; prepare partitions, fit
    each model on its rows, calibrate on training rows only, then score,
    explain and, given out_dir, save the models.

    What the report needs of the generated table (its dataset block and
    histograms) is taken right after `generate`, and the table is handed to
    the domain's `_prepare_*` function, which frees it once it is split. A run
    that fails in a later stage thus leaves `data/` but no models or report."""
    checked = config.validate()
    domain, seed, pp, mc = checked["domain"], checked["seed"], checked["preprocess"], checked["models"]
    spec = DOMAIN_SPECS[domain]
    rec = _StageRecorder()
    rng = RngStream(seed, f"pipeline/{domain}")
    with rec.stage("generate"):
        dataset = GENERATORS[domain](GeneratorConfig(**checked["generator"], seed=seed))
    paths = write_dataset(dataset, domain, os.path.join(out_dir, "data")) if out_dir else {}
    described, histograms = _dataset_block(dataset), _histograms(dataset)
    held = [dataset]  # `prepare` pops the table and drops it once it is split
    del dataset
    prepare = _prepare_sessions if spec.sessions else _prepare_tabular
    features, parts, dataset_extra = prepare(spec, held, pp, rng, rec, audit)
    # A partition no model trains on is freed before the first fit (malware's
    # whole train matrix); "test" is kept to evaluate. Session preparation
    # builds "clean" itself, and only the partitions models read.
    read = {name for m in spec.models for name in m.rows}
    if "clean" in read and "clean" not in parts:
        parts["clean"] = parts["train"].select(np.flatnonzero(parts["train"].y == 0))
    for name in set(parts) - read - {"test"}:
        del parts[name]

    fitted, calibrators, thresholds = {}, {}, {}
    for m in spec.models:
        with rec.stage(m.stage):
            rows = [parts[name] for name in m.rows]
            fitted[m.name] = m.fit(mc, rng, *rows)
            _record(audit, m.stage, *rows)
        if m.threshold == "platt" and mc["calibrate_boosting"]:
            with rec.stage("calibrate_boosting"):
                val = parts["val"]
                calibrators[m.name] = fit_platt(fitted[m.name].predict_margin(val.X), val.y)
                _record(audit, "calibrate_boosting", val)
    by_percentile = [m for m in spec.models if m.threshold == "percentile"]
    if by_percentile:
        stage = "calibrate_thresholds" if len(by_percentile) > 1 else "calibrate_threshold"
        with rec.stage(stage):
            for m in by_percentile:
                rows = parts[m.rows[0]]
                thresholds[m.name] = calibrate_threshold(m.score(fitted[m.name], rows.X), checked["threshold_percentile"])
                _record(audit, stage, rows)

    test = parts["test"]
    models, importances, flags = {}, {}, {}
    with rec.stage("evaluate"):
        for m in spec.models:
            model = fitted[m.name]
            if m.name in calibrators:
                scores = calibrators[m.name].apply(model.predict_margin(test.X))
            # A tree model's scorer remembers its walk of the test rows; it is
            # dropped once this model's importance is computed.
            score = model.scorer(test.X) if isinstance(model, TreeEnsemble) else partial(m.score, model)
            if m.name not in calibrators:
                scores = score(test.X)
            if m.name in thresholds:
                predicted = detect_anomalies(scores, thresholds[m.name])
                flags[m.name] = [int(i) for i in np.flatnonzero(predicted)]
            else:
                predicted = (scores >= 0.5).astype(int)
            models[m.name] = classification_report(test.y, predicted, scores=scores, positive_label=spec.threat).to_dict()
            X, score = test.importance_inputs(score)
            # Uncalibrated `scores` came from `score`: the importance baseline.
            importance = permutation_importance(
                score, X, test.y, "auc", mc["importance_repeats"], rng.child(f"imp/{m.tag}"), features,
                baseline_scores=None if m.name in calibrators else scores,
            )
            del score
            importances[m.name] = [[name, value] for name, value in importance.top(10)]

    artifacts = {}
    if out_dir:
        os.makedirs(os.path.join(out_dir, "models"), exist_ok=True)
        saved = {m.name: (fitted[m.name], thresholds.get(m.name)) for m in spec.models}
        for calibrator in calibrators.values():
            saved["boosting_calibrator"] = (calibrator, None)
        for name, (model, threshold) in saved.items():
            paths[name] = os.path.join(out_dir, "models", f"{name}.json")
            save_model(model, paths[name], threshold=threshold)
        artifacts = {name: os.path.relpath(path, out_dir) for name, path in paths.items()}
    return RunReport(
        domain=domain,
        config=checked,
        toolkit_version=__version__,
        dataset={**described, **dataset_extra},
        stages=rec.stages,
        models=models,
        thresholds={name: asdict(t) for name, t in thresholds.items()},
        importances=importances,
        flags=flags,
        histograms=histograms,
        artifacts=artifacts,
    )


# -- report emission ------------------------------------------------------------------


def report_to_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def parse_report(path) -> RunReport:
    try:
        with open(path, encoding="utf-8") as fh:
            return RunReport.from_dict(json.load(fh))
    except FileNotFoundError as exc:
        raise DataError(f"report file not found: {path}") from exc
    except (json.JSONDecodeError, TypeError) as exc:
        raise DataError(f"malformed report document {path}: {exc}") from exc


def render_summary(report: RunReport) -> str:
    lines = []
    lines.append(f"threatbench run report (schema v{report.schema_version}, toolkit {report.toolkit_version})")
    lines.append(f"domain: {report.domain}")
    lines.append(f"seed: {report.config.get('seed')}")
    ds = report.dataset
    lines.append(f"dataset: {ds['n']} rows, labels {ds.get('label_counts')}")
    if "n_sessions" in ds:
        lines.append(f"sessions: {ds['n_sessions']} (labels {ds.get('session_label_counts')})")
    lines.append(f"stages: {' -> '.join(report.stages)}")
    for name in sorted(report.models):
        m = report.models[name]
        lines.append("")
        lines.append(f"model: {name}")
        lines.append(f"  accuracy: {m['accuracy']:.4f}   macro-F1: {m['macro_f1']:.4f}"
                     + (f"   ROC-AUC: {m['roc_auc']:.4f}" if m.get("roc_auc") is not None else ""))
        for cls in ("0", "1"):
            pc = m["per_class"][cls]
            tag = m.get("positive_label", "threat") if cls == "1" else "benign"
            lines.append(f"  class {cls} ({tag}): precision {pc['precision']:.4f}  recall {pc['recall']:.4f}  F1 {pc['f1']:.4f}")
        cm = m["confusion"]
        lines.append(f"  confusion: tp={cm['tp']} fp={cm['fp']} fn={cm['fn']} tn={cm['tn']}")
        if name in report.thresholds:
            t = report.thresholds[name]
            lines.append(f"  threshold: {t['value']!r} (p{t['percentile']:g} of {t['sample_size']} training errors)")
        if name in report.importances:
            tops = ", ".join(f"{f}={v:.4f}" for f, v in report.importances[name][:5])
            lines.append(f"  top importances: {tops}")
    if report.artifacts:
        lines.append("")
        lines.append("artifacts:")
        for key in sorted(report.artifacts):
            lines.append(f"  {key}: {report.artifacts[key]}")
    return "\n".join(lines) + "\n"


def emit_report(report: RunReport, out_dir) -> dict:
    """Write report.json, report.txt, and per-feature histogram tables.

    Returns {name: path} for everything written. Histogram tables are
    delimited text: numeric features get `bin_lo,bin_hi,count` rows (one per
    bin), others `value,count` rows.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
        hist_dir = os.path.join(out_dir, "histograms")
        os.makedirs(hist_dir, exist_ok=True)
        paths = {}
        report_path = os.path.join(out_dir, "report.json")
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
        paths["report_json"] = report_path
        summary_path = os.path.join(out_dir, "report.txt")
        with open(summary_path, "w", encoding="utf-8") as fh:
            fh.write(render_summary(report))
        paths["report_txt"] = summary_path
        for feature in sorted(report.histograms):
            h = report.histograms[feature]
            fpath = os.path.join(hist_dir, f"{feature}.csv")
            with open(fpath, "w", encoding="utf-8") as fh:
                if h["kind"] == "numeric":
                    fh.write("bin_lo,bin_hi,count\n")
                    edges, counts = h["edges"], h["counts"]
                    for i, c in enumerate(counts):
                        fh.write(f"{edges[i]!r},{edges[i + 1]!r},{c}\n")
                else:
                    fh.write("value,count\n")
                    for value, count in h["values"].items():
                        fh.write(f"{value},{count}\n")
            paths[f"histogram/{feature}"] = fpath
        return paths
    except OSError as exc:
        raise DataError(f"cannot write report files under {out_dir}: {exc}") from exc
