"""Evaluation metrics and the global model explanation.

`classification_report` returns a model's metrics block of `report.json`, and
`permutation_importance` its ranked [feature, mean ROC-AUC drop] pairs.
Metrics follow the usual binary-classification definitions with
zero-denominator cases defined as 0; ROC-AUC uses the rank-sum (Mann-Whitney)
form with midranks for ties. Explanations are global only: no per-row
attribution is computed, though tree nodes keep their training means in every
model document (see forest.Tree).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .tabular import RngStream


def _prf(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def classification_report(y_true, y_pred, scores=None, positive_label: str = "1") -> dict:
    """The metrics of binary predictions `y_pred` against `y_true`, class "1"
    being the threat; "roc_auc" is that of `scores`, or None without them."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise DataError("cannot build a confusion matrix from empty inputs")
    if y_true.shape != y_pred.shape:
        raise DataError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    for arr, name in ((y_true, "y_true"), (y_pred, "y_pred")):
        if not np.isin(arr, (0, 1)).all():
            raise DataError(f"{name} contains non-binary values")
    tp = int(((y_true == 1) & (y_pred == 1)).sum())
    fp = int(((y_true == 0) & (y_pred == 1)).sum())
    fn = int(((y_true == 1) & (y_pred == 0)).sum())
    tn = int(((y_true == 0) & (y_pred == 0)).sum())
    p1, r1, f1_1 = _prf(tp, fp, fn)
    p0, r0, f1_0 = _prf(tn, fn, fp)  # negatives as the positive side
    total = tp + fp + fn + tn
    return {
        "accuracy": (tp + tn) / total,
        "per_class": {
            "0": {"precision": p0, "recall": r0, "f1": f1_0},
            "1": {"precision": p1, "recall": r1, "f1": f1_1},
        },
        "macro_f1": (f1_0 + f1_1) / 2.0,
        "confusion": {"tp": tp, "fp": fp, "fn": fn, "tn": tn},
        "positive_label": positive_label,
        "roc_auc": None if scores is None else roc_auc(scores, y_true),
    }


def roc_auc(scores, labels) -> float:
    """Rank-sum AUC with midranks: (R+ - n+(n+ + 1)/2) / (n+ n-)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if not np.isfinite(scores).all():
        raise DataError("scores contain non-finite values")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC requires both classes present")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # tie groups of the sorted scores: [starts[g], ends[g]], 0-based, inclusive
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:] - 1, len(scores) - 1]
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)  # midrank, 1-based
    r_pos = float(ranks[labels == 1].sum())
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def permutation_importance(predict_fn, X, y, repeats: int = 5, rng: RngStream | None = None,
                           feature_names=None, baseline_scores=None) -> list:
    """[feature, mean ROC-AUC drop] pairs, largest drop first and ties by
    name: each drop is that of one feature column permuted, averaged over
    repeats.

    `predict_fn` maps X to positive-class scores. X may be 2-D (rows x
    features) or 3-D (sessions x steps x features); in the 3-D case a
    feature's whole per-session sequence is shuffled across sessions.
    Permutations derive from per-repeat child streams. Each call of
    `predict_fn` gets a matrix that differs from X in at most one feature, so
    a tree model's `scorer(X)` (forest._RememberedWalk) serves as `predict_fn`
    and re-walks only the (tree, row) pairs that feature can move.
    `baseline_scores`, if given, must be `predict_fn(X)`; it spares that scan.
    """
    if repeats < 1:
        raise DataError(f"repeats must be >= 1, got {repeats}")
    rng = rng or RngStream(0, "perm-importance")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    d = X.shape[-1]
    names = list(feature_names) if feature_names is not None else [f"f{j}" for j in range(d)]
    if baseline_scores is None:
        baseline_scores = predict_fn(X)
    baseline = roc_auc(np.asarray(baseline_scores, dtype=np.float64), y)

    drops = np.zeros((repeats, d))
    Xp = X.copy()  # one working copy; each feature's column is restored after scoring
    for r in range(repeats):
        rr = rng.child(f"repeat/{r}")
        for j in range(d):
            perm = rr.permutation(X.shape[0])
            Xp[..., j] = X[perm, ..., j]
            drops[r, j] = baseline - roc_auc(np.asarray(predict_fn(Xp), dtype=np.float64), y)
            Xp[..., j] = X[..., j]
    return sorted(([names[j], float(drops[:, j].mean())] for j in range(d)), key=lambda pair: (-pair[1], pair[0]))
