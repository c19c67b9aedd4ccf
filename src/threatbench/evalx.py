"""Evaluation metrics and model explanations.

Metrics follow the usual binary-classification definitions with
zero-denominator cases defined as 0; ROC-AUC uses the rank-sum (Mann-Whitney)
form with midranks for ties. Explanations come in two flavors: global
permutation importance and exact additive per-instance attributions (linear
term contributions, tree path deltas).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .forest import GradientBoostingModel, RandomForestModel
from .linear import LogisticModel
from .tabular import RngStream


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(y_true, y_pred) -> ConfusionMatrix:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise DataError("cannot build a confusion matrix from empty inputs")
    if y_true.shape != y_pred.shape:
        raise DataError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    for arr, name in ((y_true, "y_true"), (y_pred, "y_pred")):
        if not np.isin(arr, (0, 1)).all():
            raise DataError(f"{name} contains non-binary values")
    return ConfusionMatrix(
        tp=int(((y_true == 1) & (y_pred == 1)).sum()),
        fp=int(((y_true == 0) & (y_pred == 1)).sum()),
        fn=int(((y_true == 1) & (y_pred == 0)).sum()),
        tn=int(((y_true == 0) & (y_pred == 0)).sum()),
    )


def _prf(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


@dataclass
class MetricsReport:
    accuracy: float
    per_class: dict  # class value -> {"precision": p, "recall": r, "f1": f}
    macro_f1: float
    confusion: ConfusionMatrix
    positive_label: str = "1"
    roc_auc: float | None = None

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class": {str(k): dict(v) for k, v in self.per_class.items()},
            "macro_f1": self.macro_f1,
            "confusion": {"tp": self.confusion.tp, "fp": self.confusion.fp, "fn": self.confusion.fn, "tn": self.confusion.tn},
            "positive_label": self.positive_label,
            "roc_auc": self.roc_auc,
        }


def report_from_confusion(cm: ConfusionMatrix, scores=None, y_true=None, positive_label: str = "1") -> MetricsReport:
    p1, r1, f1_1 = _prf(cm.tp, cm.fp, cm.fn)
    p0, r0, f1_0 = _prf(cm.tn, cm.fn, cm.fp)  # negatives as the positive side
    total = cm.total
    auc = None
    if scores is not None:
        if y_true is None:
            raise DataError("scores given without labels; cannot compute AUC")
        auc = roc_auc(scores, y_true)
    return MetricsReport(
        accuracy=(cm.tp + cm.tn) / total if total else 0.0,
        per_class={
            "0": {"precision": p0, "recall": r0, "f1": f1_0},
            "1": {"precision": p1, "recall": r1, "f1": f1_1},
        },
        macro_f1=(f1_0 + f1_1) / 2.0,
        confusion=cm,
        positive_label=positive_label,
        roc_auc=auc,
    )


def classification_report(y_true, y_pred, scores=None, positive_label: str = "1") -> MetricsReport:
    cm = confusion(y_true, y_pred)
    return report_from_confusion(cm, scores=scores, y_true=y_true, positive_label=positive_label)


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


# -- attributions -----------------------------------------------------------------


@dataclass
class AttributionReport:
    """Global importances (with repeat spread) and/or per-instance contributions."""

    feature_names: list
    global_importances: dict | None = None  # feature -> importance
    global_std: dict | None = None
    baseline_metric: float | None = None
    contributions: dict | None = None  # feature -> signed value
    baseline: float | None = None
    output: float | None = None  # baseline + sum(contributions)

    def top(self, k: int = 10):
        items = sorted(self.global_importances.items(), key=lambda kv: (-kv[1], kv[0]))
        return items[:k]


def permutation_importance(predict_fn, X, y, repeats: int = 5, rng: RngStream | None = None,
                           feature_names=None, baseline_scores=None) -> AttributionReport:
    """ROC-AUC drop when one feature column is permuted, averaged over repeats.

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
    return AttributionReport(
        feature_names=names,
        global_importances={names[j]: float(drops[:, j].mean()) for j in range(d)},
        global_std={names[j]: float(drops[:, j].std()) for j in range(d)},
        baseline_metric=baseline,
    )


def linear_contributions(model: LogisticModel, x, feature_names=None) -> AttributionReport:
    """Exact additive margin decomposition: contribution_j = w_j * x_j, baseline = bias."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if len(x) != len(model.weights):
        raise DataError(f"feature width {len(x)} does not match model width {len(model.weights)}")
    names = list(feature_names) if feature_names is not None else [f"f{j}" for j in range(len(x))]
    contributions = {names[j]: float(model.weights[j] * x[j]) for j in range(len(x))}
    baseline = float(model.bias)
    return AttributionReport(
        feature_names=names,
        contributions=contributions,
        baseline=baseline,
        output=baseline + sum(contributions.values()),
    )


def tree_path_attribution(model, x, feature_names=None) -> AttributionReport:
    """Per-instance path-delta attribution for forest or boosted models.

    Each split on x's path contributes the change in training-mean prediction
    between the parent and the taken child, so contributions plus the root
    baseline telescope exactly to the model output (averaged class-1 vote for
    forests, margin for boosted trees).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if isinstance(model, RandomForestModel):
        trees = model.trees
        scale = 1.0 / len(trees)
        base_offset = 0.0
    elif isinstance(model, GradientBoostingModel):
        trees = model.trees[: model.best_iteration]
        scale = model.config.learning_rate
        base_offset = model.base_score
    else:
        raise DataError(f"unsupported model type for path attribution: {type(model).__name__}")
    if len(x) != model.n_features:
        raise DataError(f"feature width {len(x)} does not match model width {model.n_features}")
    names = list(feature_names) if feature_names is not None else [f"f{j}" for j in range(len(x))]
    for tree in trees:
        if tree.n[0] == 0:
            raise DataError("tree lacks node statistics; cannot attribute")

    raw, baseline, output = np.zeros(len(x)), base_offset, base_offset
    for tree in trees:
        i, nodes = 0, [0]  # x's path; see forest.Tree for the node layout
        while tree.feature[i] >= 0:
            i = i + 1 if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
            nodes.append(i)
        deltas = np.zeros(len(x))
        np.add.at(deltas, tree.feature[nodes[:-1]], np.diff(tree.mean[nodes]))  # child mean - parent mean
        baseline += scale * tree.mean[0]
        output += scale * tree.mean[nodes[-1]]
        raw += scale * deltas
    return AttributionReport(
        feature_names=names,
        contributions={names[j]: float(raw[j]) for j in range(len(x))},
        baseline=float(baseline),
        output=float(output),
    )
