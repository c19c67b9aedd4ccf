"""The domain spec table and its runner, run reports, and report emission.

A domain is one DOMAIN_SPECS entry: its default size, threat name, preprocessing
and per model the fit, scorer, training rows and threshold policy. Its label and
categorical columns are the generated table's. `run_domain` executes any entry.

Data preparation has one path for both shapes of data. A row is its position
in the generated table: the table is split by position, the encoder and scaler
are fit on the train rows (`_fit_encoding`), and `preprocess.fill_features`
fills the matrix (tabular domains) or session tensor (ueba) of each partition
`_plan` names straight from the table, so no copy of the table is made.

Each model then runs as one chain (`_run_model`): fit, calibration, scoring
of the test rows and explanation, handed back as one record with the model
documents to save. The chains share nothing but the partitions, so
`_run_chains` runs all but the last in forked workers when the process may
use a second CPU.

Each run is a pure function of (PipelineConfig, toolkit version): reports
carry no timestamps or host identifiers and artifact paths are stored relative
to the report, so identical configs produce byte-identical output trees. Every
fit or calibration stage consumes training-partition rows only. Every run
keeps a ledger, a LeakageAudit, of its stages and the table positions each
touched; pass one to `run_domain` to read it.
"""

from __future__ import annotations

import copy
import csv
import json
import os
import pickle
import signal
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
from .modelio import model_json, save_model
from .neural import (
    AnomalyThreshold,
    calibrate_threshold,
    detect_anomalies,
    fit_dense_autoencoder,
    fit_lstm_autoencoder,
    reconstruction_errors,
    score_sessions,
)
from .preprocess import (
    SESSION_KEYS,
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
from .tabular import Dataset, RngStream, check_finite, read_json, save_dataset, stratified_indices, writing

REPORT_SCHEMA_VERSION = 1

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

# The widest a layer may be (lstm_ae.hidden, dense_ae.layers); a wider one outgrows a desk machine.
MAX_WIDTH = 1024

# The legal range of a config value, as (predicate, text), by dotted key. A
# predicate sees only a value of its default's type. Below 1 a count or size
# fits no model, or fails after earlier stages have run; a zero-epoch fit
# leaves initial weights, a depth-0 tree is a single leaf, a split needs two
# rows, a step size or learning rate must move the weights forward, and a
# penalty (`lam`, `gamma`, `l2`, `l1`) below 0 fits a wrong model.
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
        "models.boosting.learning_rate", "preprocess.downsample_ratio",
    ), (lambda v: 0 < v < np.inf, "a finite number > 0")),
    **dict.fromkeys((
        "models.boosting.lam", "models.boosting.gamma", "models.logistic.l2", "models.dense_ae.l1",
    ), (lambda v: 0 <= v < np.inf, "a finite number >= 0")),
    "models.boosting.subsample": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "models.lstm_ae.hidden": (lambda v: v <= MAX_WIDTH, f"<= {MAX_WIDTH}"),
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
        value out of type or range, a session tensor of over `synthgen.MAX_ROWS`
        (users x days x time_steps) cells, or a layer wider than `MAX_WIDTH`."""
        defaults = default_config(self.domain).to_dict()
        checked = {name: _checked(name, value, defaults[name]) for name, value in self.to_dict().items()}
        params = GeneratorConfig(**checked["generator"]).params(self.domain)
        time_steps = checked["preprocess"]["time_steps"]
        if DOMAIN_SPECS[self.domain].sessions and params["users"] * params["days"] * time_steps > synthgen.MAX_ROWS:
            raise ConfigError(f"generator.overrides users x days x preprocess.time_steps must be <= {synthgen.MAX_ROWS}, "
                              f"got {params['users']} x {params['days']} x {time_steps}")
        layers = checked["models"]["dense_ae"].get("layers")
        if layers is not None and not (
            isinstance(layers, list) and len(layers) >= 3 and layers == layers[::-1]
            and all(synthgen.like(s, 1) and 1 <= s <= MAX_WIDTH for s in layers)
        ):
            raise ConfigError(f"models.dense_ae.layers must be a symmetric list of at least 3 ints in [1, {MAX_WIDTH}], got {layers!r}")
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
        generator={"n": DOMAIN_SPECS[domain].n, "anomaly_rate": DOMAIN_SPECS[domain].anomaly_rate, "overrides": {}},
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
    """A run's ledger: the stages it went through, in order; the table
    positions every fit/calibration stage consumed, and those of the held-out
    test partition, so a test can assert the two never intersect; and the
    stage an error left. Each set is a sorted unique int64 array; synthetic
    rows (position -1) are left out. An array that is already sorted and
    unique is kept as it is, not copied, so callers hand over arrays they no
    longer change."""

    def __init__(self):
        self.stages = []
        self.consumed = {}  # stage -> table positions
        self.test_rows = np.empty(0, dtype=np.int64)
        self.open = None
        self.failed = None

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

    @contextmanager
    def stage(self, name: str):
        self.stages.append(name)
        outer, self.open = self.open, name
        try:
            yield
        except Exception as exc:
            # Reworded in place: calling type(exc)(...) fails for exception
            # classes whose constructors take other arguments.
            exc.args = (f"stage {name!r}: {exc}",)
            self.failed = name
            raise
        finally:
            self.open = outer

    def consume(self, *positions) -> None:
        """Charge each array of table positions to the open stage."""
        if self.open is None:
            raise RuntimeError("rows recorded outside an open stage")
        for rows in positions:
            self.record(self.open, rows)


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


def _dataset_block(dataset: Dataset, histograms: dict) -> dict:
    """The report's dataset block; label counts are the label column's histogram."""
    label = dataset.label_column()
    return {
        "n": dataset.n,
        "columns": [[n, k] for n, k in dataset.columns],
        "label_column": label,
        "label_counts": histograms[label]["values"] if label else {},
    }


def write_dataset(dataset: Dataset, domain: str, directory) -> dict:
    """Write `<domain>.csv` under `directory`, plus `events.jsonl` for a session
    domain's event log. Returns {"dataset": path} and, if written, "events"."""
    paths = {"dataset": os.path.join(directory, f"{domain}.csv")}
    save_dataset(dataset, paths["dataset"])
    if DOMAIN_SPECS[domain].sessions:
        paths["events"] = os.path.join(directory, "events.jsonl")
        save_events_jsonl(dataset, paths["events"])
    return paths


# -- partitions, preparation and the domain spec table ----------------------------------


@dataclass
class _Rows:
    """A tabular partition: features, labels, and the table position of each
    row (-1 for synthetic rows), for the leakage audit."""

    X: np.ndarray
    y: np.ndarray
    ids: np.ndarray

    def importance_inputs(self, score):
        """(array permutation importance shuffles, scorer of that array)."""
        return self.X, score


class _Sessions(_Rows):
    """A session partition: X is a SessionTensor, ids the table positions of
    every event of every session."""

    def __init__(self, tensor: SessionTensor):
        super().__init__(tensor, tensor.labels, tensor.event_row_ids)

    def importance_inputs(self, score):
        t = self.X
        return t.data, lambda X3: score(
            SessionTensor(data=X3, lengths=t.lengths, labels=t.labels, feature_names=t.feature_names)
        )


def _fit_encoding(spec, table: Dataset, train, test, audit):
    """Fit the one-hot encoder, and the scaler if the spec scales, on the
    table rows `train` (in their order). A test category that train lacks is
    an error of the fit_one_hot stage, named by its position in `test`."""
    with audit.stage("fit_one_hot"):
        encoder = fit_one_hot(table, table.names_of_kind("categorical"), rows=train)
        audit.consume(train)
        for name in encoder.categories:
            one_hot_codes(encoder, name, table.column(name), test)
    scaler = None
    if spec.scale:
        with audit.stage("fit_scaler"):
            numeric = [n for n in table.names_of_kind("numeric") if n not in SESSION_KEYS]
            scaler = fit_scaler(table, numeric, rows=train)
            audit.consume(train)
    return encoder, scaler


def _plan(spec, labels, train, test, pp, rng, audit) -> dict:
    """The partitions `spec` builds, as positions into `labels`, of "train",
    "test", "clean" (train labelled 0) and, if a model trains on "fit", the
    validation slice's "fit" and "val"."""
    rows = {"train": train, "clean": train[labels[train] == 0], "test": test}
    if "fit" in spec.partitions:
        with audit.stage("carve_validation"):
            fit, val = stratified_indices(labels[train], pp["validation_fraction"], rng.child("val"))
            rows["fit"], rows["val"] = train[fit], train[val]
    return {name: r for name, r in rows.items() if name in spec.partitions}


def _prepare_tabular(spec, held, pp, rng, audit):
    """Split -> downsample train -> fit encoding on train -> plan the
    partitions -> fill their matrices -> SMOTE on the fit rows. Returns
    (features, partitions, dataset extras).

    Like `_prepare_sessions`, it works on positions in the generated table
    and fills each matrix straight from it, so no copy of the table is made.
    `held` is a one-item list holding the table; it is popped, and the table
    is consumed by the fill."""
    table = held.pop()
    with audit.stage("split"):
        labels = np.asarray(table.column(table.label_column()))
        train, test = stratified_indices(labels, pp["test_fraction"], rng.child("split"))
        audit.mark_test(test)
    if spec.resample == "downsample":
        with audit.stage("downsample_majority"):
            train = train[downsample_majority(labels[train], pp["downsample_ratio"], rng.child("downsample"))]
    encoder, scaler = _fit_encoding(spec, table, train, test, audit)
    rows = _plan(spec, labels, train, test, pp, rng, audit)

    plan = feature_plan(table, encoder)
    features = [f for _, names in plan for f in names]
    parts = {name: _Rows(np.zeros((len(r), len(features))), labels[r], r) for name, r in rows.items()}
    fill_features(table, plan, [(part.X, slice(None), part.ids) for part in parts.values()], encoder, scaler)
    if spec.resample == "smote":
        with audit.stage("smote_oversample"):
            fit = parts["fit"]
            minority = fit.X[fit.y == 1]
            n_synthetic = max(0, int((fit.y == 0).sum()) - minority.shape[0])
            synthetic = smote_oversample(minority, pp["smote_k"], n_synthetic, rng.child("smote"))
            audit.consume(fit.ids[fit.y == 1])
            parts["fit"] = _Rows(
                np.vstack([fit.X, synthetic]),
                np.concatenate([fit.y, np.ones(synthetic.shape[0], dtype=np.int64)]),
                np.concatenate([fit.ids, np.full(synthetic.shape[0], -1, dtype=np.int64)]),
            )
    return features, parts, {}


def _prepare_sessions(spec, held, pp, rng, audit):
    """One pass over the event log: group it into (user, day) sessions once,
    split at session level, fit the encoder and scaler on the train sessions'
    events, then fill each planned partition's tensor straight from the log.
    Takes `held` and returns the same triple as `_prepare_tabular`.

    No copy of the event table is made. A partition is the table rows of its
    sessions, so a domain whose models read only "clean" (ueba) never builds
    a train tensor. The fits read the train rows in ascending row order, as a
    train copy of the table would hold them, and `sessionize` frees each
    column of the log once used.
    """
    events = held.pop()
    with audit.stage("session_split"):
        sessions = group_sessions(events, label_column=events.label_column())
        labels = sessions.labels
        train, test = stratified_indices(labels, pp["test_fraction"], rng.child("split"))
        planned = _plan(spec, labels, train, test, pp, rng, audit)
        partitions = [sessions.select(idx) for idx in planned.values()]
        train_rows, test_rows = (np.sort(sessions.select(idx).order) for idx in (train, test))
        del sessions
        audit.mark_test(test_rows)
    encoder, scaler = _fit_encoding(spec, events, train_rows, test_rows, audit)
    del train_rows, test_rows
    with audit.stage("sessionize"):
        tensors = sessionize(events, pp["time_steps"], partitions, encoder, scaler)
    counts = {str(c): int((labels == c).sum()) for c in (0, 1)}
    extra = {"n_sessions": len(labels), "session_label_counts": counts}
    return tensors[0].feature_names, {name: _Sessions(t) for name, t in zip(planned, tensors)}, extra


# The fits and scorers below reach every kernel through this module's globals
# at call time; the table never stores a kernel function object. Rebinding a
# global here (perfbench/tracer.py does) thus reaches every call of a run,
# though a chain run in a forked worker makes its calls, and keeps whatever a
# wrapper records of them, in the worker.


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
    """What a domain's generated table cannot say: its default generator size
    (`n`, which ueba ignores, and `anomaly_rate`), how its data is prepared,
    and the models it runs."""

    n: int
    anomaly_rate: float
    threat: str  # report name of the positive class
    scale: bool  # z-score numeric columns (tree models split on raw values)
    resample: str | None  # train-side step: "downsample" (before encoding), "smote" (on the fit rows) or None
    sessions: bool  # an event log, split and scored per (user, day) session
    models: tuple

    @property
    def partitions(self) -> set:
        """The partitions a run builds: those its models train on, and "test"."""
        return {name for m in self.models for name in m.rows} | {"test"}


DOMAIN_SPECS = {
    "intrusion": DomainSpec(
        8000, 0.05, "anomaly", scale=True, resample=None, sessions=False,
        models=(
            ModelSpec("isolation_forest", "fit_isolation_forest", _fit_iforest, ("train",), "percentile", "if",
                      lambda m, X: iforest_score(m, X)),
            ModelSpec("dense_autoencoder", "fit_dense_autoencoder", _fit_dense_ae, ("clean",), "percentile", "ae",
                      lambda m, X: reconstruction_errors(m, X)),
        ),
    ),
    "malware": DomainSpec(
        10000, 0.10, "malicious", scale=False, resample="smote", sessions=False,
        models=(
            ModelSpec("random_forest", "fit_random_forest", _fit_forest, ("fit",), "0.5", "rf"),
            ModelSpec("gradient_boosting", "fit_gradient_boosting", _fit_boosting, ("fit", "val"), "platt", "gb"),
        ),
    ),
    "phishing": DomainSpec(
        10000, 0.20, "phishing", scale=True, resample="downsample", sessions=False,
        models=(
            ModelSpec("logistic_regression", "fit_logistic", _fit_logistic, ("train",), "0.5", "lr",
                      lambda m, X: logistic_proba(m, X)),
            ModelSpec("random_forest", "fit_random_forest", _fit_forest, ("train",), "0.5", "rf"),
            ModelSpec("gradient_boosting", "fit_gradient_boosting", _fit_boosting, ("fit", "val"), "platt", "gb"),
        ),
    ),
    "ueba": DomainSpec(
        0, 0.02, "threat_session", scale=True, resample=None, sessions=True,
        models=(
            ModelSpec("lstm_autoencoder", "fit_lstm_autoencoder", _fit_lstm_ae, ("clean",), "percentile", "lstm",
                      lambda m, X: score_sessions(m, X)),
        ),
    ),
}
DOMAINS = tuple(DOMAIN_SPECS)


# -- per-model chains, and the workers that run them ------------------------------------

# The sequential order of a run's model stages: every fit and Platt fit, model
# by model, then the percentile thresholds, then evaluation. A failure outside
# any stage (serialising a model document) comes last.
_PHASES = {"calibrate_threshold": 1, "calibrate_thresholds": 1, "evaluate": 2, None: 3}


class _ModelRecord(NamedTuple):
    """All one model's chain hands back: its ledger (the stages it went
    through and the table positions each consumed); its classification report,
    top importances, flagged test rows and threshold (percentile models only);
    and each document to save, by artifact name: its (model, threshold) pair,
    or its JSON text once `_serialised`."""

    audit: LeakageAudit
    report: dict
    importances: list
    flags: list | None
    threshold: AnomalyThreshold | None
    documents: dict


def _run_model(spec, mc, percentile, rng, parts, features, save, m, audit) -> _ModelRecord:
    """Model `m`'s chain: fit it, Platt-calibrate it or calibrate its
    percentile threshold on training rows, score the test rows and explain
    them, and, if `save`, keep the model and its calibrator to save
    (`_serialised` turns them into text). It reads only `parts` and its own
    RNG children, so chains may run in any order, or at once."""
    with audit.stage(m.stage):
        rows = [parts[name] for name in m.rows]
        model = m.fit(mc, rng, *rows)
        audit.consume(*(part.ids for part in rows))
    calibrator = threshold = flags = None
    if m.threshold == "platt" and mc["calibrate_boosting"]:
        with audit.stage("calibrate_boosting"):
            val = parts["val"]
            calibrator = fit_platt(model.predict_margin(val.X), val.y)
            audit.consume(val.ids)
    if m.threshold == "percentile":
        by_percentile = sum(other.threshold == "percentile" for other in spec.models)
        with audit.stage("calibrate_thresholds" if by_percentile > 1 else "calibrate_threshold"):
            calibration = parts[m.rows[0]]
            threshold = calibrate_threshold(m.score(model, calibration.X), percentile)
            audit.consume(calibration.ids)

    test = parts["test"]
    with audit.stage("evaluate"):
        if calibrator is not None:
            scores = calibrator.apply(model.predict_margin(test.X))
        # A tree model's scorer remembers its walk of the test rows; it is
        # dropped once the importance is computed.
        score = model.scorer(test.X) if isinstance(model, TreeEnsemble) else partial(m.score, model)
        if calibrator is None:
            scores = score(test.X)
        if threshold is not None:
            predicted = detect_anomalies(scores, threshold)
            flags = [int(i) for i in np.flatnonzero(predicted)]
        else:
            predicted = (scores >= 0.5).astype(int)
        report = classification_report(test.y, predicted, scores=scores, positive_label=spec.threat)
        X, score = test.importance_inputs(score)
        # Uncalibrated `scores` came from `score`: the importance baseline.
        importance = permutation_importance(
            score, X, test.y, mc["importance_repeats"], rng.child(f"imp/{m.tag}"), features,
            baseline_scores=None if calibrator is not None else scores,
        )
        del score

    documents = {}
    if save:
        documents[m.name] = (model, threshold)
        if calibrator is not None:
            documents["boosting_calibrator"] = (calibrator, None)
    return _ModelRecord(audit, report, importance[:10], flags, threshold, documents)


def _serialised(record: _ModelRecord) -> _ModelRecord:
    return record._replace(documents={name: model_json(*doc) for name, doc in record.documents.items()})


def _attempt(run, catch=Exception):
    """(run(a fresh ledger), None) if it completes, else (None, (error, the
    stage it failed in or None))."""
    audit = LeakageAudit()
    try:
        return run(audit), None
    except catch as exc:
        return None, (exc, audit.failed)


def _fork(chain, m):
    """Start a worker process that runs the chain of `m`, serialises its
    documents, and writes the pickled `_attempt` to a pipe; returns (pid, the
    pipe's read end). The worker never returns into the caller: it leaves by
    `os._exit`, so it flushes no inherited stdout buffer and runs no atexit
    handler."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    code = 1
    try:
        os.close(read)
        outcome = _attempt(lambda audit: _serialised(chain(m, audit)), catch=BaseException)
        outcome = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(outcome)
        code = 0
    finally:
        os._exit(code)


def _run_chains(chain, models) -> list:
    """The record of each model's chain, in `models` order.

    The last model's chain runs in this process and every other in a worker
    made by `os.fork`, which needs fork and a second CPU this process may use;
    otherwise every chain runs here, one after another, up to the first that
    fails in a fit stage. Each chain runs to its end or its first failure,
    and every worker is reaped before this returns or raises. Of the
    failures, the one raised is the one the sequential order (`_PHASES`, then
    model order) reaches first; a worker that exits without sending its
    outcome is an internal error.

    A worker serialises its documents before it sends them. The chains run
    here serialise theirs only once every chain has succeeded: building a
    large model's document leaves memory behind that would otherwise add to
    the peak of every later chain."""
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
    n_forked = len(models) - 1 if forks else 0
    outcomes = [(None, None)] * len(models)
    workers = {}  # model index -> (pid, pipe) of each worker not yet reaped
    try:
        for i in range(n_forked):
            workers[i] = _fork(chain, models[i])
        for i in range(n_forked, len(models)):
            outcomes[i] = _attempt(partial(chain, models[i]))
            if outcomes[i][1] and outcomes[i][1][1] not in _PHASES:
                break  # a failed fit: no later chain can fail before it
        for i in range(n_forked):
            with workers[i][1] as pipe:
                data = pipe.read()
            _, status = os.waitpid(workers.pop(i)[0], 0)
            try:
                outcomes[i] = pickle.loads(data)
            except Exception:
                raise RuntimeError(f"model {models[i].name!r}: its worker exited with status "
                                   f"{os.waitstatus_to_exitcode(status)} and sent no record") from None
    finally:
        for pid, pipe in workers.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = {(_PHASES.get(failure[1], 0), i): failure[0] for i, (_, failure) in enumerate(outcomes) if failure}
    if failures:
        raise failures[min(failures)]
    return [record if i < n_forked else _serialised(record) for i, (record, _) in enumerate(outcomes)]


def run_domain(config: PipelineConfig, out_dir=None, audit: LeakageAudit | None = None) -> RunReport:
    """Run one domain as its DOMAIN_SPECS entry says: generate the table and,
    given out_dir, write it to `data/` before any fit; prepare the partitions
    it builds; then run each model's chain (`_run_model`: fit, calibrate on
    training rows only, score and explain), the last model's in
    this process and, with a second CPU to use, every other's in a forked
    worker (`_run_chains`). Given out_dir, the models are written once every
    chain has succeeded.

    What the report needs of the generated table (its dataset block and
    histograms) is taken right after `generate`, and the table is handed to
    the domain's `_prepare_*` function, which frees it once it is split. A run
    that fails in a later stage thus leaves `data/` but no models or report,
    and raises the error the stages run one after another would raise first.

    Every run keeps a ledger; `audit`, if given, is that ledger, handed to the
    caller. Each chain keeps its own, which a worker sends back whole, and
    they are merged into the run's in that sequential order, as the report's
    stages are."""
    checked = config.validate()
    domain, seed, pp, mc = checked["domain"], checked["seed"], checked["preprocess"], checked["models"]
    spec = DOMAIN_SPECS[domain]
    audit = audit or LeakageAudit()
    first = len(audit.stages)  # a ledger handed to an earlier run holds its stages
    rng = RngStream(seed, f"pipeline/{domain}")
    with audit.stage("generate"):
        dataset = GENERATORS[domain](GeneratorConfig(**checked["generator"], seed=seed))
    paths = write_dataset(dataset, domain, os.path.join(out_dir, "data")) if out_dir else {}
    histograms = _histograms(dataset)
    described = _dataset_block(dataset, histograms)
    held = [dataset]  # `prepare` pops the table and drops it once it is split
    del dataset
    prepare = _prepare_sessions if spec.sessions else _prepare_tabular
    features, parts, dataset_extra = prepare(spec, held, pp, rng, audit)

    chain = partial(_run_model, spec, mc, checked["threshold_percentile"], rng, parts, features, bool(out_dir))
    records = dict(zip((m.name for m in spec.models), _run_chains(chain, spec.models)))
    stages = sorted((_PHASES.get(stage, 0), i, j, stage) for i, r in enumerate(records.values())
                    for j, stage in enumerate(r.audit.stages))
    for stage in dict.fromkeys(stage for *_, stage in stages):
        audit.stages.append(stage)
        for r in records.values():
            if stage in r.audit.consumed:
                audit.record(stage, r.audit.consumed[stage])

    artifacts = {}
    if out_dir:
        for r in records.values():
            for name, document in r.documents.items():
                paths[name] = os.path.join(out_dir, "models", f"{name}.json")
                save_model(document, paths[name])
        artifacts = {name: os.path.relpath(path, out_dir) for name, path in paths.items()}
    return RunReport(
        domain=domain,
        config=checked,
        toolkit_version=__version__,
        dataset={**described, **dataset_extra},
        stages=audit.stages[first:],
        models={name: r.report for name, r in records.items()},
        thresholds={name: asdict(r.threshold) for name, r in records.items() if r.threshold is not None},
        importances={name: r.importances for name, r in records.items()},
        flags={name: r.flags for name, r in records.items() if r.flags is not None},
        histograms=histograms,
        artifacts=artifacts,
    )


# -- report emission ------------------------------------------------------------------


def report_to_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def parse_report(path) -> RunReport:
    doc = read_json(path, "report", DataError)
    try:
        return RunReport.from_dict(doc)
    except TypeError as exc:
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
    """Write report.json, report.txt, and per-feature histogram tables, each
    writer making its directory. Returns {name: path} for everything written.

    Histogram tables are CSV quoted like the dataset: numeric features get
    `bin_lo,bin_hi,count` rows (one per bin), others `value,count` rows.
    """
    paths = {"report_json": os.path.join(out_dir, "report.json"), "report_txt": os.path.join(out_dir, "report.txt")}
    with writing(paths["report_json"]) as fh:
        fh.write(report_to_json(report))
    with writing(paths["report_txt"]) as fh:
        fh.write(render_summary(report))
    for feature in sorted(report.histograms):
        h = report.histograms[feature]
        if h["kind"] == "numeric":
            rows = [("bin_lo", "bin_hi", "count"), *zip(map(repr, h["edges"]), map(repr, h["edges"][1:]), h["counts"])]
        else:
            rows = [("value", "count"), *h["values"].items()]
        paths[f"histogram/{feature}"] = os.path.join(out_dir, "histograms", f"{feature}.csv")
        with writing(paths[f"histogram/{feature}"]) as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return paths
