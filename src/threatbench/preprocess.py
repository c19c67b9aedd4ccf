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


def fit_one_hot(dataset: Dataset, columns, rows=None) -> EncoderSpec:
    """The categories each column holds, on `rows` of the table if given."""
    cats = {}
    for col in columns:
        if dataset.kind_of(col) != "categorical":
            raise DataError(f"column {col!r} is not categorical")
        values = dataset.column(col)
        cats[col] = tuple(sorted(set(values if rows is None else map(values.__getitem__, rows.tolist()))))
    return EncoderSpec(categories=cats)


def one_hot_codes(spec: EncoderSpec, name: str, values) -> np.ndarray:
    """Each of `values`' index in the categories `spec` holds for column `name`.

    A category unseen at fit time is an error, not a silent zero row (silent
    zeros would alias the dropped category); it names the value's position in
    `values`.
    """
    code = {cat: k for k, cat in enumerate(spec.categories[name])}
    try:
        return np.fromiter(map(code.__getitem__, values), dtype=np.min_scalar_type(len(code)), count=len(values))
    except KeyError:
        i = next(i for i, v in enumerate(values) if v not in code)
        raise DataError(f"unseen category {values[i]!r} in column {name!r} (row {i})") from None


def apply_one_hot(spec: EncoderSpec, dataset: Dataset) -> Dataset:
    """Replace each encoded column by |categories|-1 binary columns.

    The lexicographically first category maps to the all-zeros pattern; a
    category unseen at fit time is an error (see `one_hot_codes`).
    """
    columns = []
    data = {}
    for name, kind in dataset.columns:
        if name not in spec.categories:
            columns.append((name, kind))
            data[name] = dataset.column(name)
            continue
        cats = spec.categories[name]
        codes = one_hot_codes(spec, name, dataset.column(name))
        for k, cat in enumerate(cats[1:], 1):
            out_name = f"{name}={cat}"
            columns.append((out_name, "binary"))
            data[out_name] = (codes == k).astype(np.int64)
    return Dataset(columns, data, row_ids=dataset.row_ids, meta=dataset.meta)


@dataclass(frozen=True)
class ScalerSpec:
    """Per-column population mean/std; zero-variance columns scale to zeros."""

    stats: dict  # column -> (mean, std)


def fit_scaler(dataset: Dataset, columns, rows=None) -> ScalerSpec:
    """Each column's mean and std, on `rows` of the table (in their order) if given."""
    stats = {}
    for col in columns:
        if dataset.kind_of(col) != "numeric":
            raise DataError(f"column {col!r} is not numeric")
        arr = np.asarray(dataset.column(col), dtype=np.float64)
        if rows is not None:
            arr = arr[rows]
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


@dataclass
class SessionIndex:
    """Sessions of an event log, as the table rows each one holds."""

    order: np.ndarray  # table rows, session after session, each session's in row order
    bounds: np.ndarray  # session i's rows are order[bounds[i]:bounds[i + 1]]
    labels: np.ndarray  # the max label over each session's events
    keys: list  # (user_id, day) per session, spelt as its first event's

    def select(self, indices) -> "SessionIndex":
        """Sessions `indices`, in that order, renumbered from 0."""
        indices = np.asarray(indices, dtype=np.int64)
        lo, sizes = self.bounds[indices], self.bounds[indices + 1] - self.bounds[indices]
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        order = self.order[np.repeat(lo - bounds[:-1], sizes) + np.arange(bounds[-1])]
        return SessionIndex(order, bounds, self.labels[indices], [self.keys[i] for i in indices])


def group_sessions(events: Dataset, group_columns=("user_id", "day"), label_column="anomaly_label") -> SessionIndex:
    """The per-(user, day) sessions of an event log, from one stable sort.

    Sessions are numbered in ascending (user, day) order; -0.0 and 0.0 are one
    key, and a session's key is spelt as its first event's. Within a session
    events keep their row order, whatever order the rows come in (the
    generators emit user/day/hour order). A session's label is the max
    anomaly flag over all of its events.
    """
    gu = np.asarray(events.column(group_columns[0]), dtype=np.float64)
    gd = np.asarray(events.column(group_columns[1]), dtype=np.float64)
    order = np.lexsort((gd, gu))  # stable: row order within a session
    gu, gd = gu[order], gd[order]
    starts = np.flatnonzero(np.concatenate([[events.n > 0], (gu[1:] != gu[:-1]) | (gd[1:] != gd[:-1])]))
    labels = np.asarray(events.column(label_column), dtype=np.int64)[order]
    return SessionIndex(
        order=order,
        bounds=np.append(starts, events.n),
        labels=np.maximum.reduceat(labels, starts),
        keys=list(zip(gu[starts].tolist(), gd[starts].tolist())),
    )


def sessionize(events: Dataset, time_steps: int, partitions, encoder: EncoderSpec | None = None,
               scaler: ScalerSpec | None = None, group_columns=("user_id", "day")) -> list:
    """One zero-padded tensor per partition of an event log's sessions.

    `partitions` are `SessionIndex`es of `events`: `group_sessions(events)`
    or selections of it. Features are every numeric or binary column except
    the group keys, in table order; a column `encoder` encodes is replaced
    there by its one-hot columns and a column `scaler` scales is z-scored,
    each value as `apply_one_hot` and `apply_scaler` would give it. A session
    holds its earliest time_steps events and keeps its partition's label,
    which counts the truncated ones too.

    Consumes `events`: the tensors are filled one table column at a time,
    straight from the table, and each column is removed from the table once
    it has been used, so no encoded copy of the log is ever made.
    """
    if time_steps < 1:
        raise DataError(f"time_steps must be >= 1, got {time_steps}")
    categories = encoder.categories if encoder else {}
    stats = scaler.stats if scaler else {}
    plan = [  # (table column, the features it fills)
        (name, [f"{name}={cat}" for cat in categories[name][1:]] if name in categories else [name])
        for name, kind in events.columns
        if name in categories or (kind in ("numeric", "binary") and name not in group_columns)
    ]
    for name in set(events.column_names) - {name for name, _ in plan}:
        events.pop(name)
    feature_names = [f for _, names in plan for f in names]

    # Per partition: its tensor and session lengths, the (session, step)
    # cells its events fill, and the table rows of those events in cell order.
    fills = []
    for p in partitions:
        sizes = np.diff(p.bounds)
        step = np.arange(len(p.order))
        step -= np.repeat(p.bounds[:-1], sizes)
        rows = p.order[step < time_steps]
        del step
        lengths = np.minimum(sizes, time_steps)
        data = np.zeros((len(sizes), time_steps, len(feature_names)))
        fills.append((data, lengths, np.arange(time_steps) < lengths[:, None], rows))
    f = 0
    for name, names in plan:
        values = events.pop(name)
        if name in categories:
            values = one_hot_codes(encoder, name, values)
        for data, _, cells, rows in fills:
            v = np.asarray(values)[rows]
            if name in categories:
                for k in range(1, len(names) + 1):
                    data[:, :, f + k - 1][cells] = v == k
            elif name in stats:
                mean, std = stats[name]
                if std != 0.0:  # a zero-variance column scales to the zeros already there
                    data[:, :, f][cells] = (v - mean) / std
            else:
                data[:, :, f][cells] = v
        f += len(names)
    return [
        SessionTensor(
            data=data,
            lengths=lengths,
            labels=p.labels,
            feature_names=list(feature_names),
            keys=p.keys,
            event_row_ids=events.row_ids[p.order],
            event_bounds=p.bounds,
        )
        for p, (data, lengths, _, _) in zip(partitions, fills)
    ]
