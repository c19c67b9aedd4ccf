"""Encoding, scaling, imbalance handling and sessionization.

Fit operations consume the training partition only, given as rows of the
table; the fitted specs are immutable and safe to apply anywhere. Categorical
levels are ordered lexicographically at fit time so "drop the first level" is
stable across runs. `fill_features` is the one place features are encoded: it
writes the one-hot and z-scored values of chosen table rows straight into a
preallocated array, a tabular matrix or a session tensor, so no encoded copy
of a table is ever made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import DataError
from .tabular import Dataset, RngStream, round_half_up

# The columns that group an event log's events into sessions; they are no feature.
SESSION_KEYS = ("user_id", "day")


@dataclass(frozen=True)
class EncoderSpec:
    """Ordered category lists per encoded column; the first level is dropped."""

    categories: dict  # column -> tuple of categories, lexicographic


def fit_one_hot(dataset: Dataset, columns, rows=None) -> EncoderSpec:
    """The categories each column holds, on `rows` of the table if given."""
    cats = {}
    for col in columns:
        if dataset.kind_of(col) != "categorical":
            raise DataError(f"column {col!r} is not categorical")
        values = dataset.column(col)
        cats[col] = tuple(sorted(set(values if rows is None else map(values.__getitem__, rows.tolist()))))
    return EncoderSpec(categories=cats)


def one_hot_codes(spec: EncoderSpec, name: str, values, rows=None) -> np.ndarray:
    """Each of `values`' index in the categories `spec` holds for column
    `name`; those of `values[rows]` if `rows` is given.

    A category unseen at fit time is an error, not a silent zero row (silent
    zeros would alias the dropped category); it names the value's position in
    `rows`, or in `values`. A value in no row of `rows` is never an error.
    """
    code = {cat: k for k, cat in enumerate(spec.categories[name])}
    unseen = len(code)
    codes = np.fromiter(map(code.get, values, repeat(unseen)), dtype=np.min_scalar_type(unseen), count=len(values))
    if rows is not None:
        codes = codes[rows]
    bad = np.flatnonzero(codes == unseen)
    if bad.size:
        i = int(bad[0])
        raise DataError(f"unseen category {values[i if rows is None else rows[i]]!r} in column {name!r} (row {i})")
    return codes


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


def feature_plan(table: Dataset, encoder: EncoderSpec | None = None, exclude=()) -> list:
    """The features a table fills, as (table column, its feature names) pairs
    in table order. A column `encoder` encodes fills `name=category` for each
    of its categories but the first, which is the all-zeros pattern; every
    other numeric or binary column not in `exclude` fills itself."""
    categories = encoder.categories if encoder else {}
    return [
        (name, [f"{name}={cat}" for cat in categories[name][1:]] if name in categories else [name])
        for name, kind in table.columns
        if name in categories or (kind in ("numeric", "binary") and name not in exclude)
    ]


def fill_features(table: Dataset, plan, fills, encoder: EncoderSpec | None = None,
                  scaler: ScalerSpec | None = None) -> None:
    """Write the features of `plan` (see `feature_plan`) into each
    `(data, cells, rows)` of `fills`: feature f of the table rows `rows`, in
    their order, goes to `data[..., f][cells]`, and `data` starts as zeros.

    A column `scaler` scales is z-scored; a zero-variance one leaves its
    zeros. A category `encoder` has not seen is an error (see
    `one_hot_codes`), named by its position in `rows`; a row no fill names
    is never checked. Consumes `table` one plan column at a time, removing
    each once used.
    """
    categories = encoder.categories if encoder else {}
    stats = scaler.stats if scaler else {}
    f = 0
    for name, names in plan:
        values = table.pop(name)
        for data, cells, rows in fills:
            if name in categories:
                codes = one_hot_codes(encoder, name, values, rows)
                for k in range(1, len(names) + 1):
                    data[..., f + k - 1][cells] = codes == k
            elif name in stats:
                mean, std = stats[name]
                if std != 0.0:  # a zero-variance column scales to the zeros already there
                    data[..., f][cells] = (values[rows] - mean) / std
            else:
                data[..., f][cells] = values[rows]
        f += len(names)


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


def downsample_majority(labels, target_majority_ratio: float, rng: RngStream) -> np.ndarray:
    """Positions in `labels` that keep the majority class at
    target_majority_ratio : 1 against the minority.

    Every minority position is kept; the kept positions are shuffled by rng.
    """
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    if len(classes) != 2:
        raise DataError(f"need exactly two classes, got {classes.tolist()}")
    minority_cls = classes[np.argmin(counts)]
    majority_cls = classes[np.argmax(counts)]
    n_min = int(counts.min())
    n_maj = int(counts.max())
    target = round_half_up(n_min * target_majority_ratio)
    if target_majority_ratio <= 0 or target < 1:
        raise DataError(f"target majority ratio {target_majority_ratio} leaves no majority rows")
    if target > n_maj:
        raise DataError(
            f"target ratio {target_majority_ratio} needs {target} majority rows, only {n_maj} exist"
        )
    majority_idx = np.flatnonzero(labels == majority_cls)
    keep_maj = majority_idx[rng.permutation(n_maj)[:target]]
    keep = np.concatenate([np.flatnonzero(labels == minority_cls), keep_maj])
    return keep[rng.permutation(len(keep))]


@dataclass
class SessionTensor:
    """Zero-padded (sessions x time_steps x features) array with lengths and labels."""

    data: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray
    feature_names: list
    keys: list = field(default_factory=list)  # (user_id, day) per session
    # Provenance for the leakage audit: the table positions of every session's
    # events, session after session; session i's are event_row_ids[event_bounds[i]:event_bounds[i + 1]].
    event_row_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    event_bounds: np.ndarray | None = None


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


def group_sessions(events: Dataset, label_column="anomaly_label") -> SessionIndex:
    """The sessions of an event log, one per (user, day) pair of its
    `SESSION_KEYS` columns, from one stable sort.

    Sessions are numbered in ascending (user, day) order; -0.0 and 0.0 are one
    key, and a session's key is spelt as its first event's. Within a session
    events keep their row order, whatever order the rows come in (the
    generators emit user/day/hour order). A session's label is the max
    anomaly flag over all of its events.
    """
    gu, gd = (np.asarray(events.column(name), dtype=np.float64) for name in SESSION_KEYS)
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
               scaler: ScalerSpec | None = None) -> list:
    """One zero-padded tensor per partition of an event log's sessions.

    `partitions` are `SessionIndex`es of `events`: `group_sessions(events)`
    or selections of it. The features are `feature_plan(events, encoder,
    SESSION_KEYS)`, filled by `fill_features`. A session holds its earliest
    time_steps events and keeps its partition's label, which counts the
    truncated ones too; its event positions are those its partition holds.

    Consumes `events`: the columns no feature reads are removed before the
    tensors are allocated, the others once used, so no encoded copy of the
    log is ever made.
    """
    if time_steps < 1:
        raise DataError(f"time_steps must be >= 1, got {time_steps}")
    plan = feature_plan(events, encoder, SESSION_KEYS)
    for name in set(events.column_names) - {name for name, _ in plan}:
        events.pop(name)
    feature_names = [f for _, names in plan for f in names]

    # Per partition: its tensor, the (session, step) cells its events fill,
    # and the table rows of those events in cell order; and its lengths.
    fills, lengths = [], []
    for p in partitions:
        sizes = np.diff(p.bounds)
        step = np.arange(len(p.order))
        step -= np.repeat(p.bounds[:-1], sizes)
        rows = p.order[step < time_steps]
        del step
        lengths.append(np.minimum(sizes, time_steps))
        data = np.zeros((len(sizes), time_steps, len(feature_names)))
        fills.append((data, np.arange(time_steps) < lengths[-1][:, None], rows))
    fill_features(events, plan, fills, encoder, scaler)
    return [
        SessionTensor(
            data=data,
            lengths=n,
            labels=p.labels,
            feature_names=list(feature_names),
            keys=p.keys,
            event_row_ids=p.order,
            event_bounds=p.bounds,
        )
        for p, n, (data, _, _) in zip(partitions, lengths, fills)
    ]
