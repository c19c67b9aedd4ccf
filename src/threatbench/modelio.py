"""Versioned structured-text (JSON) model documents.

Floats serialize as shortest round-trip reprs, so a saved and reloaded model
predicts bit-identically. Autoencoder documents may carry their calibrated
anomaly threshold alongside the weights.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DataError
from .forest import (
    BoostConfig,
    ForestConfig,
    GradientBoostingModel,
    IsolationForestModel,
    RandomForestModel,
    TreeNode,
)
from .linear import CalibratorSpec, LogisticModel
from .neural import AnomalyThreshold, DenseAutoencoder, LstmAutoencoder

FORMAT = "threatbench-model"
VERSION = 1


def _node_to_doc(node: TreeNode) -> dict:
    doc = {"n": node.n_samples, "mean": node.mean}
    if node.counts is not None:
        doc["counts"] = [float(c) for c in node.counts]
    if node.is_leaf:
        doc["value"] = node.value
    else:
        doc["feature"] = node.feature
        doc["threshold"] = node.threshold
        doc["left"] = _node_to_doc(node.left)
        doc["right"] = _node_to_doc(node.right)
    return doc


def _node_from_doc(doc: dict) -> TreeNode:
    node = TreeNode(
        n_samples=int(doc["n"]),
        mean=float(doc["mean"]),
        counts=np.asarray(doc["counts"], dtype=np.float64) if "counts" in doc else None,
    )
    if "feature" in doc:
        node.feature = int(doc["feature"])
        node.threshold = float(doc["threshold"])
        node.left = _node_from_doc(doc["left"])
        node.right = _node_from_doc(doc["right"])
    else:
        node.value = float(doc["value"])
    return node


def _same(value):
    return value


def _config(cls):
    return vars, lambda doc: cls(**doc)


_INT = (_same, int)
_FLOAT = (_same, float)
_LIST = (list, list)
_TREES = (
    lambda trees: [_node_to_doc(t) for t in trees],
    lambda docs: [_node_from_doc(d) for d in docs],
)
_ARRAYS = (
    lambda arrays: {k: v.tolist() for k, v in arrays.items()},
    lambda docs: {k: np.asarray(v, dtype=np.float64) for k, v in docs.items()},
)
_CLASS_WEIGHTS = (
    lambda weights: {str(k): v for k, v in weights.items()},
    lambda docs: {int(k): float(v) for k, v in docs.items()},
)

# Document kind -> (model type, {payload field: (encode, decode)}). save_model
# and load_model both read this one table, so writer and reader cannot drift.
KINDS = {
    "random_forest": (RandomForestModel, {"n_features": _INT, "config": _config(ForestConfig), "trees": _TREES}),
    "gradient_boosting": (GradientBoostingModel, {
        "base_score": _FLOAT,
        "best_iteration": _INT,
        "n_features": _INT,
        "config": _config(BoostConfig),
        "val_losses": _LIST,
        "trees": _TREES,
    }),
    "isolation_forest": (IsolationForestModel, {"psi": _INT, "n_features": _INT, "trees": _TREES}),
    "logistic": (LogisticModel, {
        "weights": (np.ndarray.tolist, lambda doc: np.asarray(doc, dtype=np.float64)),
        "bias": _FLOAT,
        "class_weights": _CLASS_WEIGHTS,
        "l2": _FLOAT,
    }),
    "platt": (CalibratorSpec, {"A": _FLOAT, "B": _FLOAT}),
    "dense_autoencoder": (DenseAutoencoder, {"layer_sizes": _LIST, "l1": _FLOAT, "params": _ARRAYS}),
    "lstm_autoencoder": (LstmAutoencoder, {"input_dim": _INT, "hidden": _INT, "latent": _INT, "params": _ARRAYS}),
}


def save_model(model, path, threshold: AnomalyThreshold | None = None) -> None:
    kind = next((k for k, (cls, _) in KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise DataError(f"cannot serialize model of type {type(model).__name__}")
    payload = {name: encode(getattr(model, name)) for name, (encode, _) in KINDS[kind][1].items()}
    doc = {"format": FORMAT, "version": VERSION, "kind": kind, "payload": payload}
    if threshold is not None:
        doc["threshold"] = {
            "value": threshold.value,
            "percentile": threshold.percentile,
            "sample_size": threshold.sample_size,
        }
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise DataError(f"cannot write model to {path}: {exc}") from exc


def load_model(path):
    """Returns (model, threshold-or-None)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"model file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
    if doc.get("format") != FORMAT:
        raise DataError(f"{path} is not a {FORMAT} document")
    if doc.get("version") != VERSION:
        raise DataError(f"unsupported model document version {doc.get('version')}")
    if doc.get("kind") not in KINDS:
        raise DataError(f"unknown model kind {doc.get('kind')!r} in {path}")
    cls, fields = KINDS[doc["kind"]]
    model = cls(**{name: decode(doc["payload"][name]) for name, (_, decode) in fields.items()})

    threshold = None
    if "threshold" in doc:
        t = doc["threshold"]
        threshold = AnomalyThreshold(
            value=float(t["value"]), percentile=float(t["percentile"]), sample_size=int(t["sample_size"])
        )
    return model, threshold
