"""Typed column tables, seeded randomness, the one file writer and JSON reader, nearest-rank quantiles and stratified splits.

Everything downstream (generators, preprocessing, models, pipelines) moves data
around as a `Dataset`: an immutable-by-convention table whose columns carry one
of four kinds (numeric, categorical, binary, label). Randomness everywhere goes
through `RngStream`, a splittable counter-based stream, so results depend only
on (seed, label) and never on draw order elsewhere. Every file written goes
through `writing`, which makes its directory and maps `OSError` to `DataError`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from contextlib import contextmanager

import numpy as np

from .errors import DataError

KINDS = ("numeric", "categorical", "binary", "label")


class RngStream:
    """Splittable seeded random stream.

    Backed by the Philox counter-based bit generator keyed by
    sha256(seed, label), so a (seed, label) pair always produces the same
    sequence and child streams with distinct labels are independent of how
    much the parent has been consumed.

    Distribution methods (``normal``, ``integers``, ``choice``, ...) are
    delegated to the underlying numpy Generator.
    """

    def __init__(self, seed: int, label: str = "root"):
        self.seed = int(seed)
        self.label = label
        key = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        self.gen = np.random.Generator(np.random.Philox(key=int.from_bytes(key[:16], "little")))

    def child(self, label: str) -> "RngStream":
        """Derive an independent stream tagged `parent-label/label`."""
        return RngStream(self.seed, f"{self.label}/{label}")

    def __getattr__(self, name):
        # Only reached for names the instance lacks. `gen` is missing while
        # copy and pickle rebuild an instance, and dunder lookups must fail
        # normally so those protocols take their defaults.
        if name == "gen" or name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.gen, name)


def round_half_up(x: float) -> int:
    """x rounded half up: how every count taken as a share of another is rounded."""
    return int(math.floor(x + 0.5))


def check_finite(X: np.ndarray, name: str = "X") -> np.ndarray:
    """X, if it holds no NaN or infinity; min and max propagate both, so the
    check allocates nothing the size of X."""
    if X.size and not (np.isfinite(X.min()) and np.isfinite(X.max())):
        raise DataError(f"{name} contains NaN or infinite values; non-finite features are rejected")
    return X


class Dataset:
    """Column table with typed columns.

    Columns are stored column-major: numeric as float arrays, binary/label as
    int arrays, categorical as string lists. A row is identified by its
    position in the table: partitions and the leakage audit name rows that way.
    """

    def __init__(self, columns, data, meta=None):
        self.columns = [(str(n), str(k)) for n, k in columns]
        names = [n for n, _ in self.columns]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate column names: {names}")
        labels = [n for n, k in self.columns if k == "label"]
        if len(labels) > 1:
            raise DataError(f"more than one label column: {labels}")
        for n, k in self.columns:
            if k not in KINDS:
                raise DataError(f"unknown column kind {k!r} for column {n!r}")

        self._data, self.n = {}, 0
        for name, kind in self.columns:
            if name not in data:
                raise DataError(f"missing data for column {name!r}")
            vals = data[name]
            if kind == "numeric":
                vals = np.asarray(vals, dtype=np.float64)
            elif kind in ("binary", "label"):
                vals = np.asarray(vals, dtype=np.int64)
                if kind == "binary" and vals.size and not np.isin(vals, (0, 1)).all():
                    bad = vals[~np.isin(vals, (0, 1))][0]
                    raise DataError(f"binary column {name!r} contains {bad!r}")
            else:
                vals = [str(v) for v in vals]
            if self._data and len(vals) != self.n:
                raise DataError(f"column {name!r} has {len(vals)} rows, expected {self.n}")
            self._data[name], self.n = vals, len(vals)
        self.meta = dict(meta) if meta else {}

    # -- basic access -------------------------------------------------------

    @property
    def column_names(self):
        return [n for n, _ in self.columns]

    def kind_of(self, name: str) -> str:
        for n, k in self.columns:
            if n == name:
                return k
        raise DataError(f"no such column: {name!r}")

    def column(self, name: str):
        if name not in self._data:
            raise DataError(f"no such column: {name!r}")
        return self._data[name]

    def pop(self, name: str):
        """Remove a column from the table and return its values, so a consumer
        can free a table one column at a time."""
        values = self.column(name)
        del self._data[name]
        self.columns = [(n, k) for n, k in self.columns if n != name]
        return values

    def label_column(self):
        for n, k in self.columns:
            if k == "label":
                return n
        return None

    def names_of_kind(self, *kinds):
        return [n for n, k in self.columns if k in kinds]


# -- file writing ------------------------------------------------------------


WRITE_BLOCK = 512  # rows formatted per column slice by the dataset and event writers


def _format_block(values, kind: str) -> list:
    """CSV cells of one column slice: shortest round-trip repr for numeric,
    decimal integers for binary/label, categorical strings as they are."""
    if kind == "numeric":
        return list(map(repr, values.tolist()))
    if kind in ("binary", "label"):
        return list(map(str, values.tolist()))
    return values


def save_dataset(dataset: Dataset, path) -> None:
    """Write a Dataset as header + comma-separated rows, making its directory.

    Numeric cells use shortest round-trip float repr, so reading back is exact
    and two saves of the same table are byte-identical. Cells are formatted a
    column slice of `WRITE_BLOCK` rows at a time and written a block at a time.
    """
    kinds = [k for _, k in dataset.columns]
    columns = [dataset.column(n) for n in dataset.column_names]
    with writing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(dataset.column_names)
        for start in range(0, dataset.n, WRITE_BLOCK):
            cells = [_format_block(col[start:start + WRITE_BLOCK], kind) for col, kind in zip(columns, kinds)]
            writer.writerows(zip(*cells))


@contextmanager
def writing(path, mode: str = "w"):
    """The file at `path`, opened to write UTF-8 text with no newline translation
    (or bytes, for mode "wb") once its directory is made. A directory that cannot
    be made, or a file that cannot be opened or written, raises `DataError`."""
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory or ".", exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write under {directory}: {exc}") from exc
    try:
        with open(path, mode, **({} if "b" in mode else {"encoding": "utf-8", "newline": ""})) as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def read_json(path, what: str, error):
    """The JSON document in the `what` file at `path`. A file that is missing,
    unreadable, not UTF-8, not JSON or nested too deep to parse raises `error`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise error(f"{what} file not found: {path}") from exc
    except OSError as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} file {path} is not valid JSON: {exc}") from exc


# -- quantiles ---------------------------------------------------------------


def nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    """ceil(q*n)-th order statistic (1-based) of an already-sorted array."""
    n = len(sorted_values)
    k = max(1, math.ceil(q * n))
    return float(sorted_values[k - 1])


# -- splitting ----------------------------------------------------------------


def stratified_indices(labels, test_fraction: float, rng: RngStream):
    """Per-class index split: round-half-up of class_count × test_fraction to test.

    Selection within a class is an rng shuffle; both returned index arrays keep
    original order. Leftover rows from rounding stay in train.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    labels = np.asarray(labels)
    classes = sorted(set(labels.tolist()))
    test_idx = []
    for cls in classes:
        members = np.flatnonzero(labels == cls)
        if len(members) < 2:
            raise DataError(f"class {cls!r} has {len(members)} members; need at least 2")
        take = round_half_up(len(members) * test_fraction)
        shuffled = members[rng.permutation(len(members))]
        test_idx.extend(shuffled[:take].tolist())
    test_mask = np.zeros(len(labels), dtype=bool)
    test_mask[test_idx] = True
    return np.flatnonzero(~test_mask), np.flatnonzero(test_mask)
