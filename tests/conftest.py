import csv
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from threatbench.errors import DataError
from threatbench.preprocess import SessionTensor, one_hot_codes
from threatbench.tabular import WRITE_BLOCK, Dataset

# Property tests draw the same examples on every run and keep no example
# database. What else Hypothesis caches on disk (constants read from the source,
# Unicode tables) goes to the temporary directory rather than to a
# `.hypothesis/` in the checkout; it is read before the first test runs.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "threatbench-hypothesis"))


def relative_deviation(analytic, numeric, floor=1e-6):
    """Symmetric relative difference used by every gradient check."""
    return abs(analytic - numeric) / max(floor, abs(analytic) + abs(numeric))


def finite_difference_check(loss_fn, params, grads, eps=1e-5, floor=1e-6):
    """Max relative deviation between analytic grads and central differences.

    `params` is a dict of arrays perturbed in place; `loss_fn` re-evaluates the
    loss at the current parameters.
    """
    worst = 0.0
    for key, grad in grads.items():
        arr = params[key]
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + eps
            up = loss_fn()
            arr[ix] = orig - eps
            down = loss_fn()
            arr[ix] = orig
            numeric = (up - down) / (2.0 * eps)
            worst = max(worst, relative_deviation(float(grad[ix]), numeric, floor))
            it.iternext()
    return worst


def traced_peak(fn) -> int:
    """The peak bytes `tracemalloc` traces during one call of `fn`, after a
    first untraced call, which keeps lazy imports and caches out of the trace."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def segment_offsets(rows, X, slack=1e-12):
    """Distance from each row to the nearest segment X[i] -> X[j] (i != j) on
    which the row projects, at t in [-slack, 1 + slack]; inf if there is none.
    The brute-force SMOTE geometry oracle, one row at a time over all pairs."""
    seg = X[None, :, :] - X[:, None, :]  # seg[i, j] = X[j] - X[i]
    seg_sq = (seg**2).sum(axis=2)
    pairs = ~np.eye(len(X), dtype=bool)
    out = np.empty(len(rows))
    for r, row in enumerate(rows):
        d = row - X  # d[i] = row - X[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.einsum("ik,ijk->ij", d, seg) / seg_sq  # nan for a zero-length segment
        on = pairs & (t >= -slack) & (t <= 1 + slack)
        dist = np.linalg.norm(d[:, None, :] - t[:, :, None] * seg, axis=2)
        out[r] = dist[on].min(initial=np.inf)
    return out


@pytest.fixture
def np_rng():
    return np.random.default_rng(12345)


def edge_dataset(seed: int = 0) -> Dataset:
    """More than two writer blocks of awkward cells: signed zero, subnormal,
    huge and non-finite floats, 64-bit extreme ints, and strings with commas,
    quotes, newlines, format characters and non-ASCII text (also in names)."""
    rng = np.random.default_rng(seed)
    n = 2 * WRITE_BLOCK + 77
    nums = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    nums[:9] = [-0.0, 0.0, 1e-300, 5e-324, np.nan, np.inf, -np.inf, 1.7976931348623157e308, 0.1]
    nums[WRITE_BLOCK] = np.nan
    big = rng.integers(-(2**62), 2**62, size=n)
    big[:3] = [2**63 - 1, -(2**63), 0]
    texts = ["a,b", 'say "hi"', "two\nlines", "cr\rlf", "ünïcödé ☃", "", " ", "%s %d", "100%", "\\", "\t"]
    return Dataset(
        [("size%", "numeric"), ("név,\"q\"", "categorical"), ("flag", "binary"), ("id", "label")],
        {
            "size%": nums,
            "név,\"q\"": [texts[i] for i in rng.integers(0, len(texts), size=n)],
            "flag": rng.integers(0, 2, size=n),
            "id": big,
        },
    )


def per_event_sessionize(events, time_steps, group_columns=("user_id", "day"), label_column="anomaly_label"):
    """The former dict-of-index-lists `sessionize`, kept as the oracle of the
    whole-array one."""
    feature_names = [
        n for n, k in events.columns
        if k in ("numeric", "binary") and n not in group_columns
    ]
    X = matrix(events, feature_names)
    labels = np.asarray(events.column(label_column))
    gu = np.asarray(events.column(group_columns[0]))
    gd = np.asarray(events.column(group_columns[1]))

    groups = {}
    for i in range(events.n):
        groups.setdefault((float(gu[i]), float(gd[i])), []).append(i)
    keys = sorted(groups)

    S = len(keys)
    data = np.zeros((S, time_steps, len(feature_names)))
    lengths = np.zeros(S, dtype=np.int64)
    sess_labels = np.zeros(S, dtype=np.int64)
    row_ids = []
    for s, key in enumerate(keys):
        idx = groups[key]
        take = idx[:time_steps]
        data[s, : len(take)] = X[take]
        lengths[s] = len(take)
        sess_labels[s] = int(labels[idx].max())
        row_ids.append([int(events.row_ids[i]) for i in idx])
    return SessionTensor(
        data=data,
        lengths=lengths,
        labels=sess_labels,
        feature_names=feature_names,
        keys=keys,
        event_row_ids=np.array([i for ids in row_ids for i in ids], dtype=np.int64),
        event_bounds=np.cumsum([0] + [len(ids) for ids in row_ids]),
    )


# -- The two-copy oracle -----------------------------------------------------
# Data preparation once copied each partition out of the table and encoded the
# copies a column at a time; these are those copies, kept as the oracle of the
# row-index preparation that fills matrices straight from the table.


def select_rows(dataset, indices) -> Dataset:
    """A copy of the table's rows `indices`, in that order, with their row ids."""
    indices = np.asarray(indices, dtype=np.int64)
    data = {}
    for name, kind in dataset.columns:
        vals = dataset.column(name)
        data[name] = [vals[i] for i in indices] if kind == "categorical" else vals[indices]
    return Dataset(dataset.columns, data, row_ids=dataset.row_ids[indices])


def apply_one_hot(spec, dataset) -> Dataset:
    """Replace each encoded column by |categories|-1 binary columns; the
    lexicographically first category maps to the all-zeros pattern, and a
    category unseen at fit time is an error (see `one_hot_codes`)."""
    columns = []
    data = {}
    for name, kind in dataset.columns:
        if name not in spec.categories:
            columns.append((name, kind))
            data[name] = dataset.column(name)
            continue
        codes = one_hot_codes(spec, name, dataset.column(name))
        for k, cat in enumerate(spec.categories[name][1:], 1):
            columns.append((f"{name}={cat}", "binary"))
            data[f"{name}={cat}"] = (codes == k).astype(np.int64)
    return Dataset(columns, data, row_ids=dataset.row_ids, meta=dataset.meta)


def apply_scaler(spec, dataset) -> Dataset:
    """Z-score each column the scaler holds; a zero-variance one becomes zeros."""
    data = {}
    for name, _ in dataset.columns:
        vals = dataset.column(name)
        if name in spec.stats:
            mean, std = spec.stats[name]
            arr = np.asarray(vals, dtype=np.float64)
            vals = np.zeros_like(arr) if std == 0.0 else (arr - mean) / std
        data[name] = vals
    return Dataset(dataset.columns, data, row_ids=dataset.row_ids, meta=dataset.meta)


def matrix(dataset, names=None) -> np.ndarray:
    """Float matrix of the named (default: all numeric and binary) columns."""
    if names is None:
        names = dataset.names_of_kind("numeric", "binary")
    for name in names:
        if dataset.kind_of(name) == "categorical":
            raise DataError(f"column {name!r} is categorical; encode it first")
    if not names:
        return np.empty((dataset.n, 0))
    return np.column_stack([np.asarray(dataset.column(name), dtype=np.float64) for name in names])


# -- CSV reading, the oracle of the writers ----------------------------------


def datasets_equal(a, b) -> bool:
    """Value-for-value equality: column names, kinds and every cell."""
    if a.columns != b.columns or a.n != b.n:
        return False
    for name, kind in a.columns:
        x, y = a.column(name), b.column(name)
        if not (x == y if kind == "categorical" else np.array_equal(x, y)):
            return False
    return True


def load_dataset(path, schema) -> Dataset:
    """Parse a CSV file against a declared schema of (name, kind) pairs.

    The header row must match the schema names exactly; cells are parsed per
    kind and a bad cell is reported with its row number and column name.
    """
    schema = [(str(n), str(k)) for n, k in schema]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file, expected a header row")
            expected = [n for n, _ in schema]
            if header != expected:
                raise DataError(f"{path}: header {header} does not match schema {expected}")
            rows = list(reader)
    except FileNotFoundError as exc:
        raise DataError(f"dataset file not found: {path}") from exc

    data = {name: [] for name, _ in schema}
    for r, row in enumerate(rows, start=2):  # header is line 1
        if len(row) != len(schema):
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(schema)}")
        for cell, (name, kind) in zip(row, schema):
            value = cell
            if kind == "numeric":
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(f"{path}: unparseable numeric cell {cell!r} at row {r}, column {name!r}")
            elif kind in ("binary", "label"):
                try:
                    value = int(cell)
                except ValueError:
                    raise DataError(f"{path}: unparseable integer cell {cell!r} at row {r}, column {name!r}")
                if kind == "binary" and value not in (0, 1):
                    raise DataError(f"{path}: binary cell {cell!r} out of range at row {r}, column {name!r}")
            data[name].append(value)
    return Dataset(schema, data)
