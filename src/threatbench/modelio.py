"""Versioned structured-text (JSON) model documents.

Floats serialize as shortest round-trip reprs, so a saved and reloaded model
predicts bit-identically. Autoencoder documents may carry their calibrated
anomaly threshold alongside the weights.
"""

from __future__ import annotations

import io
import json

import numpy as np

from .errors import DataError
from .forest import (
    BoostConfig,
    ForestConfig,
    GradientBoostingModel,
    IsolationForestModel,
    RandomForestModel,
    Tree,
    TreeEnsemble,
    grow_tree,
)
from .linear import CalibratorSpec, LogisticModel
from .neural import AnomalyThreshold, DenseAutoencoder, LstmAutoencoder
from .tabular import read_json, writing

FORMAT = "threatbench-model"
VERSION = 1


def _tree_to_doc(tree: Tree) -> dict:
    """A tree's nested node document, built from its last node back, so that
    each node's children are built before it."""
    feature, threshold, right, value, n, mean = (column.tolist() for column in tree[:6])
    counts = None if tree.counts is None else tree.counts.tolist()
    docs = [None] * len(feature)
    for i in reversed(range(len(docs))):
        doc = docs[i] = {"n": n[i], "mean": mean[i]}
        if counts is not None:
            doc["counts"] = counts[i]
        if feature[i] < 0:
            doc["value"] = value[i]
        else:
            doc.update(feature=feature[i], threshold=threshold[i], left=docs[i + 1], right=docs[right[i]])
    return docs[0]


def _doc_node(doc: dict, depth: int):
    """One node of a nested document, as `grow_tree` reads a node."""
    split = None
    if "feature" in doc:
        split = (int(doc["feature"]), float(doc["threshold"]), doc["left"], doc["right"])
    value = 0.0 if split else float(doc["value"])
    return int(doc["n"]), value, float(doc["mean"]), doc.get("counts"), split


def _check_trees(model) -> None:
    """DataError unless each internal node tests a feature in [0, n_features)
    and has its right child in its tree after its left, and leaves right -1."""
    for t, tree in enumerate(model.trees):
        i, internal = np.arange(len(tree.feature)), tree.feature >= 0
        inside = (tree.feature < model.n_features) & (tree.right > i + 1) & (tree.right < len(i))
        if not np.where(internal, inside, tree.right == -1).all():
            raise DataError(f"tree {t} has a feature or child index out of range")


def _same(value):
    return value


def _config(cls):
    return vars, lambda doc: cls(**doc)


_INT = (_same, int)
_FLOAT = (_same, float)
_LIST = (list, list)
_TREES = (
    lambda trees: [_tree_to_doc(t) for t in trees],
    lambda docs: [grow_tree(d, _doc_node) for d in docs],
)
_ARRAYS = (
    lambda arrays: {k: v.tolist() for k, v in arrays.items()},
    lambda docs: {k: np.asarray(v, dtype=np.float64) for k, v in docs.items()},
)
_CLASS_WEIGHTS = (
    lambda weights: {str(k): v for k, v in weights.items()},
    lambda docs: {int(k): float(v) for k, v in docs.items()},
)

# Document kind -> (model type, {payload field: (encode, decode)}). model_json
# and load_model both read this one table, so writer and reader cannot drift.
KINDS = {
    "random_forest": (RandomForestModel, {"n_features": _INT, "config": _config(ForestConfig), "trees": _TREES}),
    "gradient_boosting": (GradientBoostingModel, {
        "base_score": _FLOAT,
        "best_iteration": (_same, _same),  # checked by load_model
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


def model_json(model, threshold: AnomalyThreshold | None = None) -> bytes:
    """The model's versioned document, as the UTF-8 JSON text `save_model` writes."""
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
    # json.dump hands over the text piece by piece, and the wrapper encodes
    # each few KB into one buffer; json.dumps would hold every piece at once.
    text = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    json.dump(doc, text, sort_keys=True, indent=1)
    text.write("\n")
    return text.detach().getvalue()


def save_model(document: bytes, path) -> None:
    """Write a `model_json` document to `path`."""
    with writing(path, "wb") as fh:
        fh.write(document)


def load_model(path):
    """Returns (model, threshold-or-None)."""
    doc = read_json(path, "model", DataError)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise DataError(f"{path} is not a {FORMAT} document")
    if doc.get("version") != VERSION:
        raise DataError(f"unsupported model document version {doc.get('version')}")
    if doc.get("kind") not in KINDS:
        raise DataError(f"unknown model kind {doc.get('kind')!r} in {path}")
    cls, fields = KINDS[doc["kind"]]
    try:
        model = cls(**{name: decode(doc["payload"][name]) for name, (_, decode) in fields.items()})
        threshold = None
        if "threshold" in doc:
            t = doc["threshold"]
            threshold = AnomalyThreshold(float(t["value"]), float(t["percentile"]), int(t["sample_size"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {doc['kind']} document {path}: {type(exc).__name__} {exc}") from exc
    if isinstance(model, TreeEnsemble):
        _check_trees(model)
    if isinstance(model, GradientBoostingModel):
        # Prediction walks trees[:best_iteration]: any other value would drop
        # trees from the end, or rebuild the node table on every walk.
        best = model.best_iteration
        if type(best) is not int or not 0 <= best <= len(model.trees):
            raise DataError(f"best_iteration must be an int in [0, {len(model.trees)}], got {best!r} in {path}")
    return model, threshold
