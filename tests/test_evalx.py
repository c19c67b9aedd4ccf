import ast
from pathlib import Path

import numpy as np
import pytest

import threatbench.evalx
from threatbench.errors import DataError
from threatbench.evalx import classification_report, permutation_importance, roc_auc
from threatbench.tabular import RngStream


def pair_counting_auc(scores, labels):
    """Brute-force oracle: concordant + half of tied pairs over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def counts_for_rates(precision_pct, recall_pct):
    """Integer (tp, fp, fn) realizing exact precision/recall percentages."""
    tp = precision_pct * recall_pct
    fp = recall_pct * (100 - precision_pct)
    fn = precision_pct * (100 - recall_pct)
    return tp, fp, fn


def labels_for_counts(tp, fp, fn, tn):
    """(y_true, y_pred) whose confusion counts are exactly tp, fp, fn and tn."""
    return np.repeat([1, 0, 1, 0], [tp, fp, fn, tn]), np.repeat([1, 1, 0, 0], [tp, fp, fn, tn])


class TestConfusion:
    def test_identity_predictions(self):
        cm = classification_report([1, 0, 1, 0], [1, 0, 1, 0])["confusion"]
        assert cm == {"tp": 2, "fp": 0, "fn": 0, "tn": 2}

    def test_enumeration_example(self):
        cm = classification_report((1, 1, 0, 0), (1, 0, 0, 1))["confusion"]
        assert (cm["tp"], cm["fn"], cm["tn"], cm["fp"]) == (1, 1, 1, 1)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            classification_report([], [])

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            classification_report([1, 0], [1])

    def test_non_binary_rejected(self):
        with pytest.raises(DataError, match="non-binary"):
            classification_report([1, 2], [1, 0])


class TestClassificationReport:
    # the five precision/recall pairs whose F1s the report must reproduce
    # under two-decimal rounding
    PAPER_TRIPLES = [
        (37, 55, 0.44),
        (39, 61, 0.48),
        (80, 49, 0.61),
        (87, 57, 0.69),
        (54, 100, 0.70),
    ]

    @pytest.mark.parametrize("p_pct,r_pct,f1_2dp", PAPER_TRIPLES)
    def test_f1_reproduces_reported_values(self, p_pct, r_pct, f1_2dp):
        tp, fp, fn = counts_for_rates(p_pct, r_pct)
        rep = classification_report(*labels_for_counts(tp, fp, fn, 10 * (tp + fp + fn)))
        assert rep["confusion"] == {"tp": tp, "fp": fp, "fn": fn, "tn": 10 * (tp + fp + fn)}
        threat = rep["per_class"]["1"]
        assert abs(threat["precision"] - p_pct / 100.0) < 1e-12
        assert abs(threat["recall"] - r_pct / 100.0) < 1e-12
        assert round(threat["f1"], 2) == f1_2dp

    def test_zero_denominators_are_zero(self):
        rep = classification_report(*labels_for_counts(0, 0, 5, 5))
        assert rep["per_class"]["1"] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_macro_f1_unweighted_mean(self):
        rep = classification_report([1, 1, 0, 0], [1, 0, 0, 1])
        f0 = rep["per_class"]["0"]["f1"]
        f1 = rep["per_class"]["1"]["f1"]
        assert rep["macro_f1"] == (f0 + f1) / 2.0

    def test_f1_harmonic_of_own_precision_recall(self, np_rng):
        for _ in range(20):
            y = np_rng.integers(0, 2, size=50)
            p = np_rng.integers(0, 2, size=50)
            rep = classification_report(y, p)
            for cls in ("0", "1"):
                pr, rc, f1 = (rep["per_class"][cls][k] for k in ("precision", "recall", "f1"))
                expect = 0.0 if pr + rc == 0 else 2 * pr * rc / (pr + rc)
                assert abs(f1 - expect) < 1e-12

    def test_auc_included_iff_scores_given(self, np_rng):
        y = np.array([0, 1] * 10)
        pred = y.copy()
        assert classification_report(y, pred)["roc_auc"] is None
        scores = np_rng.random(20)
        assert classification_report(y, pred, scores=scores)["roc_auc"] == roc_auc(scores, y)

    def test_report_block_fields(self):
        rep = classification_report([1, 1, 0, 0, 0], [1, 0, 0, 0, 1], positive_label="phish")
        assert list(rep) == ["accuracy", "per_class", "macro_f1", "confusion", "positive_label", "roc_auc"]
        assert rep["accuracy"] == 3 / 5
        assert rep["positive_label"] == "phish"
        assert list(rep["per_class"]) == ["0", "1"]


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_tied_scores(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_hand_counted_example(self):
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_matches_pair_counting_oracle(self, np_rng):
        for _ in range(200):
            n = int(np_rng.integers(4, 51))
            scores = np.round(np_rng.normal(size=n), 1)  # coarse grid forces ties
            labels = np_rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert roc_auc(scores, labels) == pair_counting_auc(scores, labels)

    def test_midranks_match_the_loop_reference(self, np_rng):
        def loop_auc(scores, labels):
            order = np.argsort(scores, kind="stable")
            ranks = np.empty(len(scores))
            sorted_scores = scores[order]
            i = 0
            while i < len(scores):
                j = i
                while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
                    j += 1
                ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
                i = j + 1
            n_pos = int((labels == 1).sum())
            n_neg = int((labels == 0).sum())
            return (float(ranks[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

        for n, grid in ((2, 1), (7, 0), (500, 1), (3000, 2), (3000, 12)):
            scores = np.round(np_rng.normal(size=n), grid)
            scores[::9] = -0.0  # signed zeros tie with 0.0
            labels = np_rng.integers(0, 2, size=n)
            labels[:2] = (0, 1)
            assert roc_auc(scores, labels) == loop_auc(scores, labels)

    def test_invariant_under_monotone_transform(self, np_rng):
        scores = np_rng.normal(size=80)
        labels = np_rng.integers(0, 2, size=80)
        labels[0], labels[1] = 0, 1
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == base
        assert roc_auc(3.0 * scores + 7.0, labels) == base

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="both classes"):
            roc_auc([0.1, 0.2], [1, 1])


class TestPermutationImportance:
    def test_constant_column_importance_exactly_zero(self, np_rng):
        X = np.column_stack([np_rng.normal(size=60), np.full(60, 3.0)])
        y = (X[:, 0] > 0).astype(int)
        pairs = permutation_importance(lambda A: A[:, 0], X, y, repeats=3, rng=RngStream(0, "p"))
        assert dict(pairs)["f1"] == 0.0

    def test_informative_feature_dominates(self, np_rng):
        for seed in range(5):
            X = np.column_stack([np_rng.normal(size=100), np_rng.normal(size=100)])
            y = (X[:, 0] > 0).astype(int)
            pairs = permutation_importance(
                lambda A: 1.0 / (1.0 + np.exp(-3 * A[:, 0])), X, y, repeats=3, rng=RngStream(seed, "p")
            )
            assert [name for name, _ in pairs] == ["f0", "f1"] and pairs[0][1] > pairs[1][1]

    def test_same_seed_identical_report(self, np_rng):
        X = np_rng.normal(size=(50, 3))
        y = (X.sum(axis=1) > 0).astype(int)
        fn = lambda A: A.sum(axis=1)
        assert permutation_importance(fn, X, y, 4, RngStream(7, "p")) == permutation_importance(fn, X, y, 4, RngStream(7, "p"))

    def test_working_copy_matches_a_fresh_copy_per_feature(self, np_rng):
        def fresh_copy_drops(predict_fn, X, y, repeats, rng):
            baseline = roc_auc(predict_fn(X), y)
            drops = np.zeros((repeats, X.shape[-1]))
            for r in range(repeats):
                rr = rng.child(f"repeat/{r}")
                for j in range(X.shape[-1]):
                    perm = rr.permutation(X.shape[0])
                    Xp = X.copy()
                    Xp[..., j] = X[perm, ..., j]
                    drops[r, j] = baseline - roc_auc(predict_fn(Xp), y)
            return drops

        seen = []

        def fn(A):
            seen.append(A.copy())
            return A.reshape(len(A), -1) @ np.linspace(1.0, 2.0, A[0].size)

        for shape in ((60, 4), (30, 5, 3)):
            X = np_rng.normal(size=shape)
            y = (X.reshape(len(X), -1).sum(axis=1) > 0).astype(int)
            before = X.copy()
            pairs = permutation_importance(fn, X, y, 2, RngStream(3, "p"))
            assert np.array_equal(X, before)
            drops = fresh_copy_drops(fn, X, y, 2, RngStream(3, "p"))
            assert dict(pairs) == {f"f{j}": float(drops[:, j].mean()) for j in range(shape[-1])}
            # every scored matrix differs from X in at most the permuted column
            for j, A in enumerate(seen[1 : 1 + 2 * shape[-1]]):
                changed = np.flatnonzero((A != X).reshape(-1, shape[-1]).any(axis=0))
                assert set(changed) <= {j % shape[-1]}
            seen.clear()

    def test_pairs_ranked_by_drop_then_name(self, np_rng):
        X = np.column_stack([np.zeros(40), np_rng.normal(size=40), np.zeros(40)])
        y = (X[:, 1] > 0).astype(int)
        pairs = permutation_importance(lambda A: A[:, 1], X, y, 2, RngStream(0, "p"), feature_names=["c", "b", "a"])
        assert [name for name, _ in pairs] == ["b", "a", "c"]
        assert pairs[0][1] > 0.0 and pairs[1][1] == pairs[2][1] == 0.0
        assert all(isinstance(pair, list) and type(pair[1]) is float for pair in pairs)

    def test_cells_reach_the_map_in_draw_order(self, np_rng):
        """A map that lists the cells and scores them last to first gives the
        same pairs as the builtin one: each cell is (feature, permutation),
        drawn from each repeat's child stream, feature after feature."""
        X = np_rng.normal(size=(40, 3))
        y = (X.sum(axis=1) > 0).astype(int)
        fn = lambda A: A @ np.array([1.0, 0.5, 0.25])
        cells = []

        def backwards(score, drawn):
            cells.extend(drawn)
            return [score(cell) for cell in cells[::-1]][::-1]

        rng = RngStream(5, "p")
        pairs = permutation_importance(fn, X, y, 2, rng, map=backwards)
        assert pairs == permutation_importance(fn, X, y, 2, rng)
        expected = []
        for r in range(2):
            rr = rng.child(f"repeat/{r}")
            expected.extend((j, rr.permutation(40)) for j in range(3))
        assert [j for j, _ in cells] == [j for j, _ in expected]
        assert all(np.array_equal(perm, want) for (_, perm), (_, want) in zip(cells, expected))

    def test_bad_repeats(self, np_rng):
        X = np_rng.normal(size=(10, 2))
        y = np.array([0, 1] * 5)
        with pytest.raises(DataError, match="repeats"):
            permutation_importance(lambda A: A[:, 0], X, y, 0, RngStream(0, "p"))


def test_evalx_starts_no_process():
    """Importance only takes a map; whatever runs its cells elsewhere lives in
    the pipeline, so evalx imports neither `os` nor `pickle`."""
    tree = ast.parse(Path(threatbench.evalx.__file__).read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {(node.module or "").split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"os", "pickle"}
