import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from threatbench.preprocess import SessionTensor
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
    X = events.matrix(feature_names)
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
