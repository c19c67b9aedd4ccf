"""Versioned structured-text (JSON) model documents.

Floats serialize as shortest round-trip reprs, so a saved and reloaded model
predicts bit-identically. Autoencoder documents may carry their calibrated
anomaly threshold alongside the weights. A document loads only once it passes
the checks its kind lists in `KINDS`, so a model that loads can be scored.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import fields, is_dataclass

import numpy as np

from .errors import DataError
from .forest import (
    BoostConfig,
    ForestConfig,
    GradientBoostingModel,
    IsolationForestModel,
    RandomForestModel,
    Tree,
    grow_tree,
)
from .linear import CalibratorSpec, LogisticModel
from .neural import AnomalyThreshold, DenseAutoencoder, LstmAutoencoder
from .synthgen import MAX_ROWS, like
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


def _is_int(value) -> bool:
    """A JSON int that fits the int64 node arrays; a bool is not one."""
    return like(value, 0) and -(2**63) <= value < 2**63


def _is_finite(value) -> bool:
    """A finite JSON number, an int only below 2**53 in size, so that it is
    exactly a float64 and numpy promotes it to one; a bool is not one."""
    return like(value, 0.0) and math.isfinite(value) and (isinstance(value, float) or abs(value) < 2**53)


# What a loaded number must be, as (text, test), by the type its dataclass
# field declares.
_NUMBERS = {
    "int": ("an int", _is_int),
    "int | None": ("an int or null", lambda v: v is None or _is_int(v)),
    "float": ("a finite number (an int below 2**53)", _is_finite),
}


def _node_number(doc: dict, key: str, kind: str = "float"):
    """A tree node's `key`, which must be what `_NUMBERS[kind]` asks."""
    text, test = _NUMBERS[kind]
    if not test(doc[key]):
        raise ValueError(f"node {key} must be {text}, got {doc[key]!r}")
    return doc[key]


def _array(values, name: str) -> np.ndarray:
    """A (nested) list of JSON numbers as a float64 array; each kind's checks
    decide which values and shapes it may hold."""
    cells = np.asarray(values, dtype=object)
    if not all(like(v, 0.0) for v in cells.flat):
        raise ValueError(f"array {name!r} must hold only numbers")
    return cells.astype(np.float64)


def _doc_node(doc: dict, depth: int):
    """One node of a nested document, as `grow_tree` reads a node."""
    split = None
    if "feature" in doc:
        split = (_node_number(doc, "feature", "int"), _node_number(doc, "threshold"), doc["left"], doc["right"])
    value = 0.0 if split else _node_number(doc, "value")
    counts = doc.get("counts")
    return (_node_number(doc, "n", "int"), value, _node_number(doc, "mean"),
            None if counts is None else _array(counts, "counts"), split)


def _check_numbers(obj, path, prefix: str = "") -> None:
    """DataError unless every field that `obj`'s dataclass declares an int or
    a float, its config's too, holds what `_NUMBERS` asks of its type."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            _check_numbers(value, path, f"{prefix}{f.name}.")
        text, test = _NUMBERS.get(f.type, (None, None))
        if test and not test(value):
            raise DataError(f"{prefix}{f.name} must be {text}, got {value!r} in {path}")


def _check_trees(model, path) -> None:
    """DataError unless a node tests a feature in [0, n_features) exactly when
    it has children; `grow_tree` puts a node's children after it."""
    for t, tree in enumerate(model.trees):
        if not (((tree.feature >= 0) & (tree.feature < model.n_features)) == (tree.right >= 0)).all():
            raise DataError(f"tree {t} has a feature or child index out of range")


def _check_best_iteration(model, path) -> None:
    """Prediction walks trees[:best_iteration]: any other value would drop
    trees from the end, or rebuild the node table on every walk."""
    best = model.best_iteration
    if type(best) is not int or not 0 <= best <= len(model.trees):
        raise DataError(f"best_iteration must be an int in [0, {len(model.trees)}], got {best!r} in {path}")


def _check_counts(model, path) -> None:
    """DataError unless each random-forest tree holds (nodes, 2) finite class
    counts, none negative and none of whose rows sums to 0: a node's vote is
    its class-1 share."""
    for t, tree in enumerate(model.trees):
        counts = tree.counts
        if counts is None or counts.shape != (len(tree.feature), 2) or not (
                np.isfinite(counts).all() and (counts >= 0).all() and (counts.sum(axis=1) > 0).all()):
            raise DataError(f"tree {t} in {path} must hold (nodes, 2) finite class counts >= 0 with a sum > 0 per node")


def _check_psi(model, path) -> None:
    """`fit_isolation_forest`'s rules: a tree is grown on psi rows, 2 or more
    (c(psi), which divides the path lengths, is 0 below 2) and at most
    MAX_ROWS; scoring sums 1/k up to psi and up to each leaf's n."""
    if not 2 <= model.psi <= MAX_ROWS:
        raise DataError(f"psi must be an int in [2, {MAX_ROWS}], got {model.psi!r} in {path}")
    for t, tree in enumerate(model.trees):
        if (tree.n > model.psi).any():
            raise DataError(f"tree {t} has a node of more than psi = {model.psi} rows in {path}")


def _check_weights(model, path) -> None:
    """DataError unless the weights are a finite vector and each class weight
    what `_NUMBERS` asks of a float."""
    if model.weights.ndim != 1 or not np.isfinite(model.weights).all():
        raise DataError(f"weights must be a vector of finite numbers, got shape {model.weights.shape} in {path}")
    for label, weight in model.class_weights.items():
        if not _is_finite(weight):
            raise DataError(f"class weight {label} must be {_NUMBERS['float'][0]}, got {weight!r} in {path}")


def _check_threshold(threshold, path) -> None:
    """`calibrate_threshold`'s rules, for a loaded threshold block."""
    _check_numbers(threshold, path, "threshold.")
    if not (0 < threshold.percentile < 100 and threshold.sample_size >= 1):
        raise DataError(f"threshold.percentile must be in (0, 100) and threshold.sample_size >= 1, got "
                        f"{threshold.percentile!r} and {threshold.sample_size!r} in {path}")


def _check_layers(model, path) -> None:
    """`init_dense_autoencoder`'s rule: a symmetric stack of 3 or more layers."""
    sizes = model.layer_sizes
    if not (len(sizes) >= 3 and sizes == sizes[::-1] and all(_is_int(s) and s >= 1 for s in sizes)):
        raise DataError(f"layer_sizes must be a symmetric list of at least 3 ints >= 1, got {sizes!r} in {path}")


def _check_arrays(model, path) -> None:
    """DataError unless an autoencoder's `params` are exactly the arrays its
    sizes call for (`param_shapes`), each of its shape and finite."""
    shapes = model.param_shapes()
    extra = [name for name in model.params if name not in shapes]
    if extra:
        raise DataError(f"array {extra[0]!r} in {path} is not one of the model's")
    for name, shape in shapes.items():
        arr = model.params.get(name)
        if arr is None:
            raise DataError(f"array {name!r} is missing from {path}")
        if arr.shape != shape:
            raise DataError(f"array {name!r} in {path} has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise DataError(f"array {name!r} in {path} holds a NaN or an infinity")


def _same(value):
    return value


def _config(cls):
    return vars, lambda doc: cls(**doc)


_SCALAR = (_same, _same)  # typed by `_check_numbers`
_LIST = (list, list)
_TREES = (
    lambda trees: [_tree_to_doc(t) for t in trees],
    lambda docs: [grow_tree(d, _doc_node) for d in docs],
)
_ARRAYS = (
    lambda arrays: {k: v.tolist() for k, v in arrays.items()},
    lambda docs: {k: _array(v, k) for k, v in docs.items()},
)
_CLASS_WEIGHTS = (
    lambda weights: {str(k): v for k, v in weights.items()},
    lambda docs: {int(k): v for k, v in docs.items()},
)

# Document kind -> (model type, {payload field: (encode, decode)}, the checks a
# loaded model of the kind must pass, in order). model_json and load_model both
# read this one table, so writer and reader cannot drift.
KINDS = {
    "random_forest": (RandomForestModel, {"n_features": _SCALAR, "config": _config(ForestConfig), "trees": _TREES},
                      [_check_numbers, _check_trees, _check_counts]),
    "gradient_boosting": (GradientBoostingModel, {
        "base_score": _SCALAR,
        "best_iteration": _SCALAR,
        "n_features": _SCALAR,
        "config": _config(BoostConfig),
        "val_losses": _LIST,
        "trees": _TREES,
    }, [_check_best_iteration, _check_numbers, _check_trees]),
    "isolation_forest": (IsolationForestModel, {"psi": _SCALAR, "n_features": _SCALAR, "trees": _TREES},
                         [_check_numbers, _check_psi, _check_trees]),
    "logistic": (LogisticModel, {
        "weights": (np.ndarray.tolist, lambda doc: _array(doc, "weights")),
        "bias": _SCALAR,
        "class_weights": _CLASS_WEIGHTS,
        "l2": _SCALAR,
    }, [_check_numbers, _check_weights]),
    "platt": (CalibratorSpec, {"A": _SCALAR, "B": _SCALAR}, [_check_numbers]),
    "dense_autoencoder": (DenseAutoencoder, {"layer_sizes": _LIST, "l1": _SCALAR, "params": _ARRAYS},
                          [_check_numbers, _check_layers, _check_arrays]),
    "lstm_autoencoder": (LstmAutoencoder, {"input_dim": _SCALAR, "hidden": _SCALAR, "latent": _SCALAR, "params": _ARRAYS},
                         [_check_numbers, _check_arrays]),
}


def model_json(model, threshold: AnomalyThreshold | None = None) -> bytes:
    """The model's versioned document, as the UTF-8 JSON text `save_model` writes."""
    kind = next((k for k, (cls, *_) in KINDS.items() if isinstance(model, cls)), None)
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
    cls, codecs, checks = KINDS[doc["kind"]]
    try:
        model = cls(**{name: decode(doc["payload"][name]) for name, (_, decode) in codecs.items()})
        threshold = None
        if "threshold" in doc:
            t = doc["threshold"]
            threshold = AnomalyThreshold(t["value"], t["percentile"], t["sample_size"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {doc['kind']} document {path}: {type(exc).__name__} {exc}") from exc
    for check in checks:
        check(model, path)
    if threshold is not None:
        _check_threshold(threshold, path)
    return model, threshold
