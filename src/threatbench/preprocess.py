"""Encoding, scaling, imbalance handling and sessionization.

Fit operations consume the training partition only; the fitted specs are
immutable and safe to apply anywhere. Categorical levels are ordered
lexicographically at fit time so "drop the first level" is stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .tabular import Dataset, RngStream


@dataclass(frozen=True)
class EncoderSpec:
    """Ordered category lists per encoded column; the first level is dropped."""

    categories: dict  # column -> tuple of categories, lexicographic

    def dropped(self, column: str) -> str:
        return self.categories[column][0]

    def output_width(self) -> int:
        return sum(len(c) - 1 for c in self.categories.values())


def fit_one_hot(dataset: Dataset, columns) -> EncoderSpec:
    cats = {}
    for col in columns:
        if dataset.kind_of(col) != "categorical":
            raise DataError(f"column {col!r} is not categorical")
        cats[col] = tuple(sorted(set(dataset.column(col))))
    return EncoderSpec(categories=cats)


def apply_one_hot(spec: EncoderSpec, dataset: Dataset) -> Dataset:
    """Replace each encoded column by |categories|-1 binary columns.

    The lexicographically first category maps to the all-zeros pattern; a
    category unseen at fit time is an error, not a silent zero row (silent
    zeros would alias the dropped category).
    """
    columns = []
    data = {}
    for name, kind in dataset.columns:
        if name not in spec.categories:
            columns.append((name, kind))
            data[name] = dataset.column(name)
            continue
        cats = spec.categories[name]
        values = dataset.column(name)
        code = {cat: k for k, cat in enumerate(cats)}
        try:
            codes = np.fromiter(map(code.__getitem__, values), dtype=np.int64, count=len(values))
        except KeyError:
            i = next(i for i, v in enumerate(values) if v not in code)
            raise DataError(f"unseen category {values[i]!r} in column {name!r} (row {i})") from None
        for k, cat in enumerate(cats[1:], 1):
            out_name = f"{name}={cat}"
            columns.append((out_name, "binary"))
            data[out_name] = (codes == k).astype(np.int64)
    return Dataset(columns, data, row_ids=dataset.row_ids, meta=dataset.meta)


@dataclass(frozen=True)
class ScalerSpec:
    """Per-column population mean/std; zero-variance columns scale to zeros."""

    stats: dict  # column -> (mean, std)


def fit_scaler(dataset: Dataset, columns) -> ScalerSpec:
    stats = {}
    for col in columns:
        if dataset.kind_of(col) != "numeric":
            raise DataError(f"column {col!r} is not numeric")
        arr = np.asarray(dataset.column(col), dtype=np.float64)
        stats[col] = (float(arr.mean()), float(arr.std()))
    return ScalerSpec(stats=stats)


def apply_scaler(spec: ScalerSpec, dataset: Dataset) -> Dataset:
    data = {}
    for name, kind in dataset.columns:
        vals = dataset.column(name)
        if name in spec.stats:
            mean, std = spec.stats[name]
            arr = np.asarray(vals, dtype=np.float64)
            vals = np.zeros_like(arr) if std == 0.0 else (arr - mean) / std
        data[name] = vals
    return Dataset(dataset.columns, data, row_ids=dataset.row_ids, meta=dataset.meta)


# Elements of the (rows, m, d) difference block in SMOTE's neighbour search.
_SMOTE_BLOCK = 1 << 18


def smote_oversample(minority_rows: np.ndarray, k: int, n_synthetic: int, rng: RngStream) -> np.ndarray:
    """Interpolated minority samples: x' = x + u * (nn - x), u ~ U[0,1].

    The parent is a uniformly chosen minority row, the neighbor one of its k
    Euclidean nearest minority neighbors (self excluded, distance ties broken
    by row index). Returns exactly n_synthetic rows.
    """
    X = np.asarray(minority_rows, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"expected a 2-D minority matrix, got shape {X.shape}")
    m = X.shape[0]
    if m <= k:
        raise DataError(f"minority count {m} must exceed neighbor count k={k}")
    if n_synthetic == 0:
        return np.empty((0, X.shape[1]))

    neighbors = np.empty((m, k), dtype=np.int64)
    rows = max(1, _SMOTE_BLOCK // (m * max(1, X.shape[1])))
    for i0 in range(0, m, rows):
        i1 = min(m, i0 + rows)
        diffs = X[i0:i1, None, :] - X[None, :, :]
        dist = np.sqrt((diffs**2).sum(axis=2))
        order = np.argsort(dist, axis=1, kind="stable")  # index order breaks ties
        others = order != np.arange(i0, i1)[:, None]
        neighbors[i0:i1] = order[others].reshape(i1 - i0, m - 1)[:, :k]

    parents = rng.integers(0, m, size=n_synthetic)
    picks = rng.integers(0, k, size=n_synthetic)
    u = rng.random(n_synthetic)
    nn = neighbors[parents, picks]
    return X[parents] + u[:, None] * (X[nn] - X[parents])


def downsample_majority(dataset: Dataset, label_column: str, target_majority_ratio: float, rng: RngStream) -> Dataset:
    """Subsample the majority class to target_majority_ratio : 1 against the minority.

    All minority rows are kept; the surviving rows are reshuffled by rng.
    """
    labels = np.asarray(dataset.column(label_column))
    classes, counts = np.unique(labels, return_counts=True)
    if len(classes) != 2:
        raise DataError(f"need exactly two classes, got {classes.tolist()}")
    minority_cls = classes[np.argmin(counts)]
    majority_cls = classes[np.argmax(counts)]
    n_min = int(counts.min())
    n_maj = int(counts.max())
    target = int(math.floor(n_min * target_majority_ratio + 0.5))
    if target_majority_ratio <= 0 or target < 1:
        raise DataError(f"target majority ratio {target_majority_ratio} leaves no majority rows")
    if target > n_maj:
        raise DataError(
            f"target ratio {target_majority_ratio} needs {target} majority rows, only {n_maj} exist"
        )
    majority_idx = np.flatnonzero(labels == majority_cls)
    keep_maj = majority_idx[rng.permutation(n_maj)[:target]]
    keep = np.concatenate([np.flatnonzero(labels == minority_cls), keep_maj])
    keep = keep[rng.permutation(len(keep))]
    return dataset.select_rows(keep)


@dataclass
class SessionTensor:
    """Zero-padded (sessions x time_steps x features) array with lengths and labels."""

    data: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray
    feature_names: list
    keys: list = field(default_factory=list)  # (user_id, day) per session
    # Provenance for the leakage audit: the row ids of every session's events,
    # session after session; session i's are event_row_ids[event_bounds[i]:event_bounds[i + 1]].
    event_row_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    event_bounds: np.ndarray | None = None

    @property
    def n_sessions(self) -> int:
        return self.data.shape[0]

    @property
    def time_steps(self) -> int:
        return self.data.shape[1]

    def select(self, indices) -> "SessionTensor":
        indices = np.asarray(indices, dtype=np.int64)
        ids, bounds = self.event_row_ids, self.event_bounds
        if bounds is not None:
            lo, sizes = bounds[indices], bounds[indices + 1] - bounds[indices]
            bounds = np.concatenate([[0], np.cumsum(sizes)])
            ids = ids[np.repeat(lo - bounds[:-1], sizes) + np.arange(bounds[-1])]
        return SessionTensor(
            data=self.data[indices],
            lengths=self.lengths[indices],
            labels=self.labels[indices],
            feature_names=list(self.feature_names),
            keys=[self.keys[i] for i in indices] if self.keys else [],
            event_row_ids=ids,
            event_bounds=bounds,
        )


def sessionize(events: Dataset, time_steps: int, group_columns=("user_id", "day"), label_column="anomaly_label") -> SessionTensor:
    """Group events into per-(user, day) sequences of at most time_steps steps.

    Features are every numeric/binary column except the group keys. Sessions
    are numbered in ascending (user, day) order; -0.0 and 0.0 are one key, and
    a session's key is spelt as its first event's. Within a session events keep
    their row order, whatever order the rows come in (the generators emit
    user/day/hour order). Longer sessions are truncated to their earliest
    time_steps events; the session label is the max anomaly flag over all of
    the session's events, truncated ones included.
    """
    if time_steps < 1:
        raise DataError(f"time_steps must be >= 1, got {time_steps}")
    feature_names = [
        n for n, k in events.columns
        if k in ("numeric", "binary") and n not in group_columns
    ]
    gu = np.asarray(events.column(group_columns[0]), dtype=np.float64)
    gd = np.asarray(events.column(group_columns[1]), dtype=np.float64)
    order = np.lexsort((gd, gu))  # stable: row order within a session
    gu, gd = gu[order], gd[order]
    starts = np.flatnonzero(np.concatenate([[events.n > 0], (gu[1:] != gu[:-1]) | (gd[1:] != gd[:-1])]))
    sizes = np.diff(np.append(starts, events.n))

    # Event i of the order goes to cell (session, step) of the tensor.
    step = np.arange(events.n) - np.repeat(starts, sizes)
    kept = step < time_steps
    cell = (np.repeat(np.arange(len(starts)), sizes) * time_steps + step)[kept]
    rows = order[kept]
    data = np.zeros((len(starts), time_steps, len(feature_names)))
    cells = data.reshape(len(starts) * time_steps, len(feature_names))
    for f, name in enumerate(feature_names):
        cells[cell, f] = np.asarray(events.column(name), dtype=np.float64)[rows]
    labels = np.asarray(events.column(label_column), dtype=np.int64)[order]
    return SessionTensor(
        data=data,
        lengths=np.minimum(sizes, time_steps),
        labels=np.maximum.reduceat(labels, starts),
        feature_names=feature_names,
        keys=list(zip(gu[starts].tolist(), gd[starts].tolist())),
        event_row_ids=events.row_ids[order],
        event_bounds=np.append(starts, events.n),
    )
