import ast
import copy
import csv
import hashlib
import pickle
from pathlib import Path

import numpy as np
import pytest

import threatbench
from conftest import datasets_equal, edge_dataset, load_dataset
from threatbench.errors import DataError
from threatbench.tabular import (
    Dataset,
    RngStream,
    nearest_rank,
    save_dataset,
    stratified_indices,
    writing,
)

SCHEMA = [("bytes", "numeric"), ("proto", "categorical"), ("flag", "binary"), ("y", "label")]


def make_dataset(n=6):
    return Dataset(
        SCHEMA,
        {
            "bytes": [float(i) * 1.5 for i in range(n)],
            "proto": ["TCP" if i % 2 == 0 else "UDP" for i in range(n)],
            "flag": [i % 2 for i in range(n)],
            "y": [1 if i < n // 2 else 0 for i in range(n)],
        },
    )


def random_dataset(rng, n):
    return Dataset(
        SCHEMA,
        {
            "bytes": rng.normal(size=n) * 1e4,
            "proto": [str(rng.choice(["a", "b", "c"])) for _ in range(n)],
            "flag": rng.integers(0, 2, size=n),
            "y": rng.integers(0, 2, size=n),
        },
    )


class TestRngStream:
    def test_same_seed_and_label_identical(self):
        a = RngStream(42, "x").normal(size=10)
        b = RngStream(42, "x").normal(size=10)
        assert np.array_equal(a, b)

    def test_child_independent_of_parent_draw_order(self):
        p1 = RngStream(7)
        p1.normal(size=100)  # consume the parent heavily
        c1 = p1.child("branch").normal(size=5)
        c2 = RngStream(7).child("branch").normal(size=5)
        assert np.array_equal(c1, c2)

    def test_distinct_labels_differ(self):
        assert not np.array_equal(
            RngStream(1, "a").normal(size=5), RngStream(1, "b").normal(size=5)
        )

    def test_copy_and_pickle_continue_the_sequence(self):
        a = RngStream(1, "x")
        a.normal(size=3)
        copies = [copy.deepcopy(a), pickle.loads(pickle.dumps(a))]
        want = a.normal(size=5)
        for b in copies:
            assert (b.seed, b.label) == (a.seed, a.label)
            assert np.array_equal(b.normal(size=5), want)


class TestWriting:
    def test_missing_parent_directories_are_made(self, tmp_path):
        path = tmp_path / "a" / "b" / "x.txt"
        with writing(path) as fh:
            fh.write("x\n")
        assert path.read_bytes() == b"x\n"

    def test_bytes_mode(self, tmp_path):
        with writing(tmp_path / "m" / "x.json", "wb") as fh:
            fh.write(b"{}\r\n")
        assert (tmp_path / "m" / "x.json").read_bytes() == b"{}\r\n"

    def test_parent_that_is_a_file_cannot_be_made(self, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(DataError) as err:
            with writing(tmp_path / "file" / "x.txt"):
                pass
        assert str(err.value).startswith(f"cannot write under {tmp_path / 'file'}: ")

    def test_target_that_is_a_directory_cannot_be_opened(self, tmp_path):
        (tmp_path / "x.txt").mkdir()
        with pytest.raises(DataError) as err:
            with writing(tmp_path / "x.txt"):
                pass
        assert str(err.value).startswith(f"cannot write {tmp_path / 'x.txt'}: ")

    def test_error_while_writing_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError) as err:
            with writing(tmp_path / "x.txt"):
                raise OSError(28, "No space left on device")
        assert str(err.value) == f"cannot write {tmp_path / 'x.txt'}: [Errno 28] No space left on device"

    def test_no_other_body_opens_a_file_or_makes_a_directory(self):
        """Every file the package writes goes through `writing`, every directory
        it makes through `make_dir`, and it reads files only through
        `read_json`; the forked workers' `os.fdopen` pipes open no path."""
        allowed = {("tabular.py", "read_json"), ("tabular.py", "writing"), ("tabular.py", "make_dir")}
        found = []
        for path in sorted(Path(threatbench.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exempt = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                      and (path.name, fn.name) in allowed for node in ast.walk(fn)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and id(node) not in exempt and (
                        isinstance(node.func, ast.Name) and node.func.id == "open"
                        or isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("open", "makedirs", "mkdir", "write_text", "write_bytes")):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_every_imported_name_is_read(self):
        """No module of the package imports a name it never reads, so a
        deletion cannot leave its imports behind."""
        unused = []
        for path in sorted(Path(threatbench.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in read:
                            unused.append(f"{path.name}:{node.lineno} {name}")
        assert unused == []


class TestIO:
    def test_three_row_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("bytes,proto,flag,y\n1.0,TCP,0,1\n2.0,UDP,1,0\n3.5,TCP,0,0\n")
        ds = load_dataset(path, SCHEMA)
        assert ds.n == 3
        assert ds.column("proto") == ["TCP", "UDP", "TCP"]
        assert np.allclose(ds.column("bytes"), [1.0, 2.0, 3.5])

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("bytes,proto,flag,y\n")
        assert load_dataset(path, SCHEMA).n == 0

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("bytes,proto,flag,y\nabc,TCP,0,1\n")
        with pytest.raises(DataError, match=r"row 2.*'bytes'"):
            load_dataset(path, SCHEMA)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "nope.csv", SCHEMA)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("wrong,header\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(path, SCHEMA)

    def test_round_trip_randomized(self, tmp_path, np_rng):
        for i in range(10):
            ds = random_dataset(np_rng, int(np_rng.integers(1, 40)))
            path = tmp_path / f"r{i}.csv"
            save_dataset(ds, path)
            assert datasets_equal(load_dataset(path, SCHEMA), ds)

    def test_empty_round_trip_is_header_only(self, tmp_path):
        ds = Dataset(SCHEMA, {"bytes": [], "proto": [], "flag": [], "y": []})
        path = tmp_path / "e.csv"
        save_dataset(ds, path)
        assert path.read_text() == "bytes,proto,flag,y\n"
        assert load_dataset(path, SCHEMA).n == 0

    def test_two_saves_byte_identical(self, tmp_path, np_rng):
        ds = random_dataset(np_rng, 25)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        d1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        d2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert d1 == d2

    def test_unwritable_path(self, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(DataError, match="cannot write"):
            save_dataset(make_dataset(), tmp_path / "file" / "x.csv")

    def test_block_writer_matches_per_cell_reference(self, tmp_path):
        def cell(value, kind):
            if kind == "numeric":
                return repr(float(value))
            if kind in ("binary", "label"):
                return str(int(value))
            return str(value)

        ds = edge_dataset()
        path, ref = tmp_path / "block.csv", tmp_path / "ref.csv"
        save_dataset(ds, path)
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(ds.column_names)
            for i in range(ds.n):
                writer.writerow([cell(ds.column(name)[i], kind) for name, kind in ds.columns])
        assert path.read_bytes() == ref.read_bytes()


class TestDatasetInvariants:
    def test_duplicate_column_names_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            Dataset([("a", "numeric"), ("a", "binary")], {"a": [1.0]})

    def test_two_label_columns_rejected(self):
        with pytest.raises(DataError, match="label"):
            Dataset([("a", "label"), ("b", "label")], {"a": [1], "b": [0]})

    def test_binary_values_checked(self):
        with pytest.raises(DataError, match="binary"):
            Dataset([("f", "binary")], {"f": [0, 2]})

    def test_ragged_columns_rejected(self):
        with pytest.raises(DataError, match="rows"):
            Dataset([("a", "numeric"), ("b", "numeric")], {"a": [1.0, 2.0], "b": [1.0]})


class TestNearestRank:
    def test_quantiles_nearest_rank_oracle(self, np_rng):
        for _ in range(20):
            vals = np_rng.normal(size=int(np_rng.integers(1, 50)))
            sorted_vals = np.sort(vals)
            for q in (0.25, 0.5, 0.75):
                k = max(1, int(np.ceil(q * len(vals))))
                assert nearest_rank(sorted_vals, q) == sorted_vals[k - 1]


class TestStratifiedSplit:
    """The per-class split, `stratified_indices`: train and test positions."""

    def test_rounding_forced_counts(self):
        labels = np.array([0] * 90 + [1] * 10)
        train, test = stratified_indices(labels, 0.3, RngStream(0, "s"))
        y_test = labels[test]
        assert len(test) == 30 and (y_test == 0).sum() == 27 and (y_test == 1).sum() == 3

    def test_same_seed_identical_partitions(self):
        labels = make_dataset(40).column("y")
        a = stratified_indices(labels, 0.3, RngStream(5, "s"))
        b = stratified_indices(labels, 0.3, RngStream(5, "s"))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_phishing_scale_test_count(self):
        # 10,000 rows at 0.3 must give exactly 3,000 test rows.
        labels = np.array([0] * 8000 + [1] * 2000)
        _, test = stratified_indices(labels, 0.3, RngStream(1, "s"))
        assert len(test) == 3000

    def test_partition_property(self, np_rng):
        for _ in range(10):
            n = int(np_rng.integers(20, 200))
            labels = random_dataset(np_rng, n).column("y")
            if min((labels == 0).sum(), (labels == 1).sum()) < 2:
                continue
            train, test = stratified_indices(labels, 0.3, RngStream(int(np_rng.integers(1e6)), "s"))
            ids = np.concatenate([train, test])
            assert sorted(ids.tolist()) == list(range(n))

    def test_stratification_proportion_bound(self, np_rng):
        for _ in range(10):
            n = int(np_rng.integers(50, 400))
            labels = random_dataset(np_rng, n).column("y")
            if min((labels == 0).sum(), (labels == 1).sum()) < 2:
                continue
            _, test = stratified_indices(labels, 0.3, RngStream(int(np_rng.integers(1e6)), "s"))
            y_test = labels[test]
            for cls in (0, 1):
                full = (labels == cls).mean()
                part = (y_test == cls).mean()
                assert abs(part - full) <= 1.0 / len(test) + 1e-12

    def test_small_class_rejected(self):
        with pytest.raises(DataError, match="members"):
            stratified_indices([0, 0, 1], 0.5, RngStream(0, "s"))

    def test_degenerate_fraction_rejected(self):
        labels = make_dataset(10).column("y")
        for frac in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DataError, match="fraction"):
                stratified_indices(labels, frac, RngStream(0, "s"))
