import numpy as np
import pytest

from conftest import apply_one_hot, apply_scaler, matrix, per_event_sessionize, segment_offsets, select_rows, traced_peak
from threatbench import preprocess
from threatbench.errors import DataError
from threatbench.preprocess import (
    downsample_majority,
    feature_plan,
    fill_features,
    fit_one_hot,
    fit_scaler,
    group_sessions,
    sessionize,
    smote_oversample,
)
from threatbench.synthgen import GeneratorConfig, generate_user_activity
from threatbench.tabular import Dataset, RngStream


def proto_dataset(values, extra_numeric=None):
    cols = [("proto", "categorical")]
    data = {"proto": values}
    if extra_numeric is not None:
        cols.append(("x", "numeric"))
        data["x"] = extra_numeric
    return Dataset(cols, data)


class TestOneHot:
    def test_drop_first_semantics(self):
        ds = proto_dataset(["TCP", "UDP", "ICMP", "TCP"])
        spec = fit_one_hot(ds, ["proto"])
        out = apply_one_hot(spec, ds)
        assert out.column_names == ["proto=TCP", "proto=UDP"]
        assert spec.categories["proto"][0] == "ICMP"  # the dropped level
        # the ICMP row maps to all zeros
        assert out.column("proto=TCP")[2] == 0 and out.column("proto=UDP")[2] == 0
        assert out.column("proto=TCP")[0] == 1

    def test_single_category_zero_width(self):
        ds = proto_dataset(["only", "only"], extra_numeric=[1.0, 2.0])
        out = apply_one_hot(fit_one_hot(ds, ["proto"]), ds)
        assert out.column_names == ["x"]

    def test_unseen_category_error(self):
        spec = fit_one_hot(proto_dataset(["TCP", "UDP"]), ["proto"])
        with pytest.raises(DataError, match=r"SCTP.*'proto'|'proto'.*SCTP"):
            apply_one_hot(spec, proto_dataset(["SCTP"]))
        with pytest.raises(DataError, match=r"^unseen category 'SCTP' in column 'proto' \(row 1\)$"):
            apply_one_hot(spec, proto_dataset(["TCP", "SCTP", "UDP", "GRE"]))

    def test_width_formula_random(self, np_rng):
        for _ in range(10):
            k = int(np_rng.integers(1, 6))
            cats = [f"c{i}" for i in range(k)]
            values = [cats[int(j)] for j in np_rng.integers(0, k, size=30)]
            ds = proto_dataset(values)
            spec = fit_one_hot(ds, ["proto"])
            out = apply_one_hot(spec, ds)
            assert len(out.column_names) == len(set(values)) - 1
            for cat in sorted(set(values))[1:]:  # the per-cell loop this replaced, as the oracle
                want = np.array([1 if v == cat else 0 for v in values], dtype=np.int64)
                got = out.column(f"proto={cat}")
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert len(spec.categories["proto"]) - 1 == len(set(values)) - 1

    def test_non_categorical_rejected(self):
        ds = Dataset([("x", "numeric")], {"x": [1.0]})
        with pytest.raises(DataError, match="not categorical"):
            fit_one_hot(ds, ["x"])


class TestScaler:
    def test_hand_computed_example(self):
        ds = Dataset([("x", "numeric")], {"x": [1.0, 2.0, 3.0]})
        out = apply_scaler(fit_scaler(ds, ["x"]), ds)
        assert np.allclose(out.column("x"), [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-12)

    def test_constant_column_zeros_and_flag(self):
        ds = Dataset([("x", "numeric")], {"x": [5.0, 5.0, 5.0]})
        spec = fit_scaler(ds, ["x"])
        assert np.array_equal(apply_scaler(spec, ds).column("x"), [0.0, 0.0, 0.0])

    def test_train_statistics_do_not_leak(self, np_rng):
        train = Dataset([("x", "numeric")], {"x": np_rng.normal(size=50)})
        test = Dataset([("x", "numeric")], {"x": np_rng.normal(loc=3.0, size=50)})
        spec = fit_scaler(train, ["x"])
        assert abs(np.mean(apply_scaler(spec, test).column("x"))) > 0.5

    def test_fit_apply_normalizes_train(self, np_rng):
        for _ in range(5):
            vals = np_rng.normal(loc=np_rng.uniform(-5, 5), scale=np_rng.uniform(0.1, 9), size=200)
            ds = Dataset([("x", "numeric")], {"x": vals})
            out = np.asarray(apply_scaler(fit_scaler(ds, ["x"]), ds).column("x"))
            assert abs(out.mean()) <= 1e-9
            assert abs(out.std() - 1.0) <= 1e-9


class TestFillFeatures:
    """`fill_features` into a matrix (`cells` = all rows) against the copies
    `apply_one_hot` and `apply_scaler` make of the selected rows."""

    @staticmethod
    def table():
        return Dataset(
            [("x", "numeric"), ("proto", "categorical"), ("c", "numeric"), ("f", "binary"), ("y", "label")],
            {"x": [0.5, -2.0, 3.25, 8.0, 1.0, -0.0], "proto": ["UDP", "TCP", "ICMP", "TCP", "UDP", "GRE"],
             "c": [4.0] * 6, "f": [1, 0, 0, 1, 1, 0], "y": [0, 1, 0, 1, 0, 0]},
        )

    def test_matrix_equals_the_copies(self):
        train, test = np.array([3, 0, 2, 1]), np.array([4])  # GRE (row 5) is in no fill
        table = self.table()
        encoder = fit_one_hot(table, ["proto"], rows=train)
        scaler = fit_scaler(table, ["x", "c"], rows=train)
        plan = feature_plan(table, encoder)
        assert plan == [("x", ["x"]), ("proto", ["proto=TCP", "proto=UDP"]), ("c", ["c"]), ("f", ["f"])]
        out = [np.zeros((len(rows), 5)) for rows in (train, test)]
        fill_features(table, plan, [(X, slice(None), rows) for X, rows in zip(out, (train, test))], encoder, scaler)
        assert table.column_names == ["y"]  # each plan column is freed once used
        for X, rows in zip(out, (train, test)):
            want = matrix(apply_scaler(scaler, apply_one_hot(encoder, select_rows(self.table(), rows))),
                          ["x", "proto=TCP", "proto=UDP", "c", "f"])
            assert X.tobytes() == want.tobytes()
        assert not out[0][:, 3].any()  # the constant column z-scores to zeros

    def test_exclude_and_unencoded_columns(self):
        plan = feature_plan(self.table(), exclude=("x",))
        assert plan == [("c", ["c"]), ("f", ["f"])]  # an unencoded category fills nothing

    def test_unseen_category_named_by_its_position_in_rows(self):
        table = self.table()
        encoder = fit_one_hot(table, ["proto"], rows=np.array([0, 1, 2]))
        X = np.zeros((3, 5))
        with pytest.raises(DataError, match=r"^unseen category 'GRE' in column 'proto' \(row 2\)$"):
            fill_features(table, feature_plan(table, encoder), [(X, slice(None), np.array([1, 0, 5]))], encoder)


class TestSmote:
    def test_segment_geometry_thousand_draws(self, np_rng):
        X = np_rng.normal(size=(40, 5))
        rng = RngStream(4, "smote")
        synth = smote_oversample(X, k=5, n_synthetic=1000, rng=rng)
        assert synth.shape == (1000, 5)
        # distance from each row to the nearest parent-neighbor segment is ~0
        assert segment_offsets(synth, X).max() <= 1e-9

    def test_identical_minority_rows(self):
        X = np.tile([[1.0, 2.0]], (6, 1))
        synth = smote_oversample(X, k=3, n_synthetic=10, rng=RngStream(0, "s"))
        assert np.allclose(synth, [1.0, 2.0])

    def test_too_few_minority_rows(self):
        with pytest.raises(DataError, match="exceed"):
            smote_oversample(np.zeros((3, 2)), k=5, n_synthetic=4, rng=RngStream(0, "s"))

    def test_zero_synthetic_allowed(self):
        out = smote_oversample(np.eye(4), k=2, n_synthetic=0, rng=RngStream(0, "s"))
        assert out.shape == (0, 4)

    def test_row_blocks_match_the_full_tensor(self, np_rng, monkeypatch):
        def full_tensor(X, k, n_synthetic, rng):
            m = X.shape[0]
            diffs = X[:, None, :] - X[None, :, :]
            dist = np.sqrt((diffs**2).sum(axis=2))
            neighbors = np.empty((m, k), dtype=np.int64)
            for i in range(m):
                order = np.argsort(dist[i], kind="stable")
                neighbors[i] = order[order != i][:k]
            parents = rng.integers(0, m, size=n_synthetic)
            picks = rng.integers(0, k, size=n_synthetic)
            u = rng.random(n_synthetic)
            nn = neighbors[parents, picks]
            return X[parents] + u[:, None] * (X[nn] - X[parents])

        for m, d in ((7, 1), (60, 3), (300, 14)):
            X = np.round(np_rng.normal(size=(m, d)))  # many distance ties
            X[: m // 4] = X[m - 1]  # duplicate rows: self is not always first
            want = full_tensor(X, 5, 200, RngStream(2, "s")).tobytes()
            for rows in (1, 2, 7, m - 1, m):
                monkeypatch.setattr(preprocess, "_SMOTE_BLOCK", rows * m * d)
                assert smote_oversample(X, 5, 200, RngStream(2, "s")).tobytes() == want

    def test_deterministic(self, np_rng):
        X = np_rng.normal(size=(20, 3))
        a = smote_oversample(X, 3, 50, RngStream(9, "s"))
        b = smote_oversample(X, 3, 50, RngStream(9, "s"))
        assert np.array_equal(a, b)


class TestDownsample:
    def make(self, n_maj=9000, n_min=1000):
        return np.array([0] * n_maj + [1] * n_min)

    def test_one_to_one(self):
        labels = self.make()
        keep = downsample_majority(labels, 1.0, RngStream(2, "d"))
        y = labels[keep]
        assert (y == 0).sum() == 1000 and (y == 1).sum() == 1000

    def test_current_ratio_keeps_everything(self):
        labels = self.make(90, 10)
        keep = downsample_majority(labels, 9.0, RngStream(2, "d"))
        assert len(keep) == 100
        assert sorted(keep.tolist()) == list(range(100))

    def test_same_seed_identical(self):
        labels = self.make(200, 40)
        a = downsample_majority(labels, 2.0, RngStream(7, "d"))
        b = downsample_majority(labels, 2.0, RngStream(7, "d"))
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_unachievable_ratio(self):
        labels = self.make(50, 30)
        with pytest.raises(DataError, match="only"):
            downsample_majority(labels, 5.0, RngStream(0, "d"))

    def test_minority_all_kept(self):
        labels = self.make(300, 60)
        keep = downsample_majority(labels, 1.5, RngStream(1, "d"))
        kept_min = [r for r in keep.tolist() if r >= 300]
        assert len(kept_min) == 60


def encoded_events(users=4, days=3, seed=5, rate=0.05):
    events = generate_user_activity(
        GeneratorConfig(anomaly_rate=rate, seed=seed, overrides={"users": users, "days": days})
    )
    enc = fit_one_hot(events, ["activity_type"])
    return apply_one_hot(enc, events), events


class TestSessionize:
    def test_padding_and_lengths(self):
        ds = Dataset(
            [("user_id", "numeric"), ("day", "numeric"), ("v", "numeric"), ("anomaly_label", "label")],
            {"user_id": [1.0] * 5, "day": [1.0] * 5, "v": [1.0, 2.0, 3.0, 4.0, 5.0], "anomaly_label": [0] * 5},
        )
        t, = sessionize(ds, 20, [group_sessions(ds)])
        assert ds.column_names == []  # each column is freed once used
        assert t.data.shape == (1, 20, 1)
        assert t.lengths[0] == 5
        assert np.array_equal(t.data[0, 5:, 0], np.zeros(15))
        assert np.array_equal(t.data[0, :5, 0], [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_label_is_max_flag(self):
        ds = Dataset(
            [("user_id", "numeric"), ("day", "numeric"), ("v", "numeric"), ("anomaly_label", "label")],
            {"user_id": [1.0, 1.0, 2.0], "day": [1.0, 1.0, 1.0], "v": [0.0, 1.0, 2.0], "anomaly_label": [0, 1, 0]},
        )
        t, = sessionize(ds, 4, [group_sessions(ds)])
        assert t.labels.tolist() == [1, 0]

    def test_session_count_equals_distinct_user_days(self):
        encoded, raw = encoded_events(users=7, days=4)
        t, = sessionize(encoded, 50, [group_sessions(encoded)])
        keys = {(u, d) for u, d in zip(raw.column("user_id"), raw.column("day"))}
        assert t.data.shape[0] == len(keys) == 28

    def test_conservation_and_truncation(self):
        encoded, raw = encoded_events(users=5, days=3)
        T = 10  # force truncation: user-days average ~40 events
        t, = sessionize(encoded, T, [group_sessions(encoded)])
        counts = {}
        for u, d in zip(raw.column("user_id"), raw.column("day")):
            counts[(u, d)] = counts.get((u, d), 0) + 1
        expected = sum(min(c, T) for c in counts.values())
        assert int(t.lengths.sum()) == expected
        assert t.lengths.max() <= T

    def test_labels_match_bruteforce(self):
        encoded, raw = encoded_events(users=6, days=5, rate=0.1)
        t, = sessionize(encoded, 50, [group_sessions(encoded)])
        labels = {}
        for u, d, a in zip(raw.column("user_id"), raw.column("day"), raw.column("anomaly_label")):
            labels[(u, d)] = max(labels.get((u, d), 0), int(a))
        for s, key in enumerate(t.keys):
            assert t.labels[s] == labels[key]

    def test_truncation_keeps_earliest(self):
        ds = Dataset(
            [("user_id", "numeric"), ("day", "numeric"), ("v", "numeric"), ("anomaly_label", "label")],
            {"user_id": [1.0] * 6, "day": [1.0] * 6, "v": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0], "anomaly_label": [0] * 6},
        )
        t, = sessionize(ds, 3, [group_sessions(ds)])
        assert np.array_equal(t.data[0, :, 0], [10.0, 20.0, 30.0])
        assert t.lengths[0] == 3

    def test_bad_time_steps(self):
        encoded, _ = encoded_events(users=2, days=2)
        with pytest.raises(DataError, match="time_steps"):
            sessionize(encoded, 0, [group_sessions(encoded)])


def session_dataset(user, day, v, label):
    return Dataset(
        [("user_id", "numeric"), ("day", "numeric"), ("v", "numeric"), ("anomaly_label", "label")],
        {"user_id": user, "day": day, "v": v, "anomaly_label": label},
    )


class TestSessionizeOracle:
    """`sessionize` against the per-event oracle: the same tensor bytes,
    lengths, labels, keys (signs included) and event row ids."""

    @staticmethod
    def check(events, time_steps):
        want = per_event_sessionize(events, time_steps)
        copy = select_rows(events, np.arange(events.n))  # sessionize consumes its table
        got, = sessionize(copy, time_steps, [group_sessions(copy)])
        for name in ("data", "lengths", "labels", "event_row_ids", "event_bounds"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert got.feature_names == want.feature_names
        assert repr(got.keys) == repr(want.keys)  # repr tells -0.0 from 0.0
        return got

    def test_default_events(self):
        encoded, _ = encoded_events(users=100, days=30, seed=42, rate=0.02)
        assert self.check(encoded, 50).data.shape[0] == 3000

    @pytest.mark.parametrize("time_steps", [1, 2, 10, 37, 200])
    def test_truncation(self, time_steps):
        encoded, _ = encoded_events(users=5, days=4, rate=0.1)
        self.check(encoded, time_steps)

    def test_rows_out_of_group_order(self, np_rng):
        encoded, _ = encoded_events(users=6, days=5, rate=0.1)
        shuffled = select_rows(encoded, np_rng.permutation(encoded.n))
        for time_steps in (1, 7, 50):
            self.check(shuffled, time_steps)
        interleaved = session_dataset([2.0, 1.0, 2.0, 1.0, 3.0, 1.0], [1.0, 2.0, 1.0, 1.0, 0.0, 2.0],
                                      [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0, 1, 0, 0, 1, 0])
        t = self.check(interleaved, 2)
        assert t.keys == [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (3.0, 0.0)]
        assert t.event_row_ids.tolist() == [3, 1, 5, 0, 2, 4]
        assert t.event_bounds.tolist() == [0, 1, 3, 5, 6]

    def test_select_keeps_each_sessions_ids(self, np_rng):
        encoded, _ = encoded_events(users=5, days=4, rate=0.1)
        index = group_sessions(encoded)
        per_session = [index.order[a:b].tolist() for a, b in zip(index.bounds[:-1], index.bounds[1:])]
        for idx in ([], [3], [5, 0, 5, 19], np_rng.permutation(len(index.labels))):
            s = index.select(idx)
            assert s.order.dtype == s.bounds.dtype == np.int64
            got = [s.order[a:b].tolist() for a, b in zip(s.bounds[:-1], s.bounds[1:])]
            assert got == [per_session[i] for i in idx]
            assert s.labels.tolist() == [index.labels[i] for i in idx] and s.keys == [index.keys[i] for i in idx]

    def test_signed_zero_keys(self):
        ds = session_dataset([0.0, -0.0, 1.0, -0.0, 0.0], [-0.0, 0.0, 0.0, 2.0, 2.0],
                             [1.0, 2.0, 3.0, 4.0, 5.0], [0, 0, 1, 1, 0])
        t = self.check(ds, 3)
        assert t.data.shape[0] == 3 and repr(t.keys[0]) == "(0.0, -0.0)"

    def test_empty_and_featureless_tables(self):
        self.check(session_dataset([], [], [], []), 4)
        self.check(Dataset([("user_id", "numeric"), ("day", "numeric"), ("anomaly_label", "label")],
                           {"user_id": [2.0, 1.0, 2.0], "day": [1.0, 1.0, 1.0], "anomaly_label": [0, 1, 0]}), 2)


def test_generate_and_sessionize_memory_is_bounded():
    """The traced peak of generating an event log and sessionizing it stays
    under 3x the bytes of the arrays they return. Whole-array code reads 2.0x
    at this size; per-event Python lists and index dicts read 4.0x."""

    def run(users, days):
        config = GeneratorConfig(anomaly_rate=0.02, seed=42, overrides={"users": users, "days": days})
        events = generate_user_activity(config)
        arrays = [events.column(name) for name, kind in events.columns if kind != "categorical"]
        tensor, = sessionize(events, 50, [group_sessions(events)])
        return arrays + [tensor.data, tensor.lengths, tensor.labels]

    peak = traced_peak(lambda: run(20, 10))
    assert peak <= 3 * sum(a.nbytes for a in run(20, 10))
