import math

import numpy as np
import pytest

from threatbench import forest
from threatbench.errors import DataError
from threatbench.evalx import permutation_importance
from threatbench.forest import (
    BoostConfig,
    ForestConfig,
    GradientBoostingModel,
    IsolationForestModel,
    RandomForestModel,
    Tree,
    _BLOCK,
    _boost_best_split,
    _column_codes,
    _gini_best_split,
    _logloss,
    _stable_order,
    average_path_length,
    fit_gradient_boosting,
    fit_isolation_forest,
    fit_random_forest,
    harmonic,
    iforest_score,
)
from threatbench.linear import sigmoid
from threatbench.tabular import RngStream


def exhaustive_gini(X, y, idx, features):
    """Brute-force minimum weighted Gini over all midpoint splits."""
    best = None
    n = len(idx)
    for f in sorted(features):
        vals = np.unique(X[idx, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2.0
            left = idx[X[idx, f] <= thr]
            right = idx[X[idx, f] > thr]
            gini = 0.0
            for part in (left, right):
                p1 = (y[part] == 1).mean()
                gini += len(part) / n * (1.0 - p1**2 - (1.0 - p1) ** 2)
            if best is None or gini < best[2] - 1e-15:
                best = (f, thr, gini)
    return best


def reference_gini_split(X, y, idx, feature_indices):
    """The float-argsort Gini finder that rank codes replaced, kept verbatim."""
    best = None
    n = len(idx)
    total1 = int(y[idx].sum())
    for f in sorted(feature_indices):
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        sy = y[idx][order]
        cut = np.flatnonzero(sv[:-1] != sv[1:])
        if len(cut) == 0:
            continue
        c1 = np.cumsum(sy)[cut]
        nl = cut + 1.0
        nr = n - nl
        c1r = total1 - c1
        gl = 1.0 - (c1 / nl) ** 2 - ((nl - c1) / nl) ** 2
        gr = 1.0 - (c1r / nr) ** 2 - ((nr - c1r) / nr) ** 2
        weighted = (nl * gl + nr * gr) / n
        j = int(np.argmin(weighted))
        if best is None or weighted[j] < best[2]:
            thr = (sv[cut[j]] + sv[cut[j] + 1]) / 2.0
            best = (f, float(thr), float(weighted[j]))
    return best


def reference_boost_split(X, g, h, idx, lam, gamma):
    """The float-argsort second-order finder that rank codes replaced, kept verbatim."""
    G = g[idx].sum()
    H = h[idx].sum()
    parent = G * G / (H + lam)
    best = None
    for f in range(X.shape[1]):
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        sg = g[idx][order]
        sh = h[idx][order]
        cut = np.flatnonzero(sv[:-1] != sv[1:])
        if len(cut) == 0:
            continue
        GL = np.cumsum(sg)[cut]
        HL = np.cumsum(sh)[cut]
        GR = G - GL
        HR = H - HL
        gain = 0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - parent) - gamma
        j = int(np.argmax(gain))
        if gain[j] > 0.0 and (best is None or gain[j] > best[2]):
            thr = (sv[cut[j]] + sv[cut[j] + 1]) / 2.0
            best = (f, float(thr), float(gain[j]))
    return best


def split_search_cases(rng):
    """(X, idx) pairs with heavy ties, signed zeros, bootstrap duplicates,
    constant columns, and one column too wide for 16-bit codes."""
    n = 3000
    ties = np.round(rng.normal(size=(n, 4)) * 2.0)  # about a dozen values per column
    signed = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(n, 3))
    mixed = np.column_stack([ties[:, :2], np.full(n, 7.5), signed[:, 0], rng.normal(size=n)])
    for X in (ties, signed, mixed):
        yield X, np.arange(n)
        yield X, rng.integers(0, n, size=n)  # bootstrap: duplicate rows
        yield X, rng.choice(n, size=n // 3, replace=False)
    wide = np.column_stack([rng.permutation(80_000) / 7.0, np.round(rng.normal(size=80_000))])
    wide[:5000, 0] = wide[5000:10_000, 0]  # ties among the wide column's values too
    yield wide, rng.integers(0, 80_000, size=80_000)


class TestSplitSearchOracle:
    """The rank-code finders return exactly what the float-argsort finders did."""

    def test_wide_column_takes_32_bit_codes(self, np_rng):
        X = next(c for c in split_search_cases(np_rng) if len(c[0]) == 80_000)[0]
        _, codes = _column_codes(X)
        assert codes[0].dtype == np.uint32 and codes[1].dtype == np.uint8

    def test_signed_zeros_share_a_code(self):
        _, codes = _column_codes(np.array([[0.0], [-0.0], [1.0], [-1.0]]))
        assert codes[0].tolist() == [1, 1, 2, 0]

    def test_gini_matches_reference(self, np_rng):
        for X, idx in split_search_cases(np_rng):
            Xc, codes = _column_codes(X)
            y = np_rng.integers(0, 2, size=len(X))
            d = X.shape[1]
            for feats in (list(range(d)), np_rng.choice(d, size=2, replace=False)):
                assert _gini_best_split(Xc, codes, y, idx, feats) == reference_gini_split(X, y, idx, feats)

    def test_boost_matches_reference(self, np_rng):
        for X, idx in split_search_cases(np_rng):
            Xc, codes = _column_codes(X)
            p = 1.0 / (1.0 + np.exp(-np_rng.normal(size=len(X))))
            g = p - np_rng.integers(0, 2, size=len(X))
            h = p * (1.0 - p)
            S = np.array([idx[np.argsort(c[idx], kind="stable")] for c in codes])
            for lam, gamma in ((1.0, 0.0), (0.0, 0.5)):
                got = _boost_best_split(Xc, codes, g, h, idx, S, lam, gamma)
                assert got == reference_boost_split(X, g, h, idx, lam, gamma)
            # lam = 0 with exact-zero gradients and hessians on the rows of
            # column 0's lowest value: its first cut's gain is 0/0, NaN, which
            # refuses column 0, though g makes it the best split elsewhere
            g = np.where(X[:, 0] > np.median(X[idx, 0]), -0.5, 0.5) + 0.01 * np_rng.normal(size=len(X))
            h = np.full(len(X), 0.25)
            lowest = X[:, 0] == X[idx, 0].min()
            g[lowest] = h[lowest] = 0.0
            with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
                reference_boost_split(X, g, h, idx, 0.0, 0.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                got = _boost_best_split(Xc, codes, g, h, idx, S, 0.0, 0.0)
                assert got == reference_boost_split(X, g, h, idx, 0.0, 0.0)
                assert got is None or got[0] != 0

    @pytest.mark.parametrize("n", [500, _BLOCK // 2 + 1])  # all three features in one block; one per block
    def test_boost_ties_go_to_the_lower_feature_then_threshold(self, np_rng, n):
        v = np_rng.integers(0, 4, size=n).astype(float)
        X = np.column_stack([v, v, v])  # equal gains in every column
        g = np.select([v == 0, v == 3], [1.0, -1.0], 0.0)
        h = np.where((v == 1) | (v == 2), 0.0, 1.0)  # equal gains at all three cuts
        idx = np_rng.permutation(n)
        Xc, codes = _column_codes(X)
        S = np.array([idx[np.argsort(c[idx], kind="stable")] for c in codes])
        got = _boost_best_split(Xc, codes, g, h, idx, S, 1.0, 0.0)
        assert got == reference_boost_split(X, g, h, idx, 1.0, 0.0) and got[:2] == (0, 0.5)

    def test_radix_order_matches_stable_argsort(self, np_rng):
        X, idx = next(c for c in split_search_cases(np_rng) if len(c[0]) == 80_000)
        codes = _column_codes(X)[1][0]
        assert codes.dtype == np.uint32 and codes.max() >= 1 << 16
        for c in (codes, codes.take(idx), codes[::-1].copy()):
            assert np.array_equal(_stable_order(c), np.argsort(c, kind="stable"))

    def test_each_node_gets_its_own_stable_sort(self, np_rng, monkeypatch):
        seen, newton = [], forest._newton_node

        def spy(*args):
            seen.append(args[-2:])  # (item, depth)
            return newton(*args)

        monkeypatch.setattr(forest, "_newton_node", spy)
        cfg = BoostConfig(n_rounds=2, early_stopping_rounds=2)
        for X, _ in split_search_cases(np_rng):
            seen.clear()
            y = np_rng.integers(0, 2, size=len(X))
            fit_gradient_boosting(X, y, cfg, validation=(X[:200], y[:200]), rng=RngStream(0, "gb"))
            codes = _column_codes(X)[1]
            for (idx, S), depth in seen:
                if depth == cfg.max_depth:  # leaves below the last split level
                    assert S is None
                    continue
                assert S.dtype == np.min_scalar_type(len(X) - 1)
                for f, c in enumerate(codes):
                    assert np.array_equal(S[f], idx[np.argsort(c[idx], kind="stable")])
            assert max(depth for _, depth in seen) == cfg.max_depth


def random_tree(rng, depth, n_features=3):
    """A tree of at most `depth` levels (a single leaf at depth 0) that splits
    on grid values, so rows land exactly on thresholds, as pre-order arrays:
    node i's left child is i + 1. Leaves carry class counts, a boosted weight
    and a sample count; internal nodes the sums of their children's counts."""
    nodes = []  # per node: feature, threshold, right, value, n, mean, counts

    def grow(depth):
        i = len(nodes)
        if depth == 0 or rng.random() < 0.3:
            counts = rng.integers(0, 9, size=2).astype(float)
            counts[rng.integers(0, 2)] += 1.0
            nodes.append([-1, 0.0, -1, float(rng.normal()), int(rng.integers(1, 40)), 0.0, counts])
            return
        nodes.append([int(rng.integers(0, n_features)), float(rng.integers(-4, 5)) / 2.0, -1, 0.0, 0, 0.0, None])
        grow(depth - 1)
        nodes[i][2] = right = len(nodes)
        grow(depth - 1)
        nodes[i][4] = nodes[i + 1][4] + nodes[right][4]
        nodes[i][6] = nodes[i + 1][6] + nodes[right][6]

    grow(depth)
    return Tree(*(np.array(column) for column in zip(*nodes)))


def edge_rows(rng, n, n_features=3):
    X = rng.integers(-5, 6, size=(n, n_features)) / 2.0  # the threshold grid and one step beyond
    for value, step in ((np.nan, 5), (np.inf, 7), (-np.inf, 11)):
        X.flat[::step] = value
    return X


def scalar_leaf(tree, x):
    """Walks one row down one tree: to node i + 1 iff x <= threshold, else to
    node right[i]. Gives the leaf and its depth."""
    i, depth = 0, 0
    while tree.feature[i] >= 0:
        i = i + 1 if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
        depth += 1
    return i, depth


def reference_sum(trees, leaf_value, X, init=0.0, scale=1.0):
    """Per row, init plus each tree's scaled leaf value, added in tree order."""
    out = np.empty(len(X))
    for i, x in enumerate(X):
        total = np.float64(init)
        for tree in trees:
            total = total + scale * leaf_value(tree, *scalar_leaf(tree, x))
        out[i] = total
    return out


def rf_leaf(tree, i, depth):
    return tree.counts[i][1] / tree.counts[i].sum()


def boost_leaf(tree, i, depth):
    return tree.value[i]


def iforest_leaf(tree, i, depth):
    return depth + average_path_length(int(tree.n[i]))


def assert_same_trees(a, b):
    assert len(a) == len(b)
    for s, t in zip(a, b):
        for name in Tree._fields:
            assert np.array_equal(getattr(s, name), getattr(t, name)), name


class TestFlatForestOracle:
    """The node-table walk gives the bytes of a scalar per-row walk of each
    tree's arrays whose leaf values are summed in tree order."""

    def check_all(self, trees, X, n_features=3):
        rf = RandomForestModel(trees=trees, n_features=n_features, config=ForestConfig())
        p1 = reference_sum(trees, rf_leaf, X) / len(trees)
        assert rf.predict_proba(X).tobytes() == np.column_stack([1.0 - p1, p1]).tobytes()

        cfg = BoostConfig(learning_rate=0.3)
        gb = GradientBoostingModel(base_score=-0.7, trees=trees, best_iteration=0, n_features=n_features, config=cfg)
        for k in sorted({0, 1, max(0, len(trees) - 2), len(trees)}):
            gb.best_iteration = k
            want = reference_sum(trees[:k], boost_leaf, X, -0.7, 0.3)
            assert gb.predict_margin(X).tobytes() == want.tobytes()

        iso = IsolationForestModel(trees=trees, psi=64, n_features=n_features)
        mean_h = reference_sum(trees, iforest_leaf, X) / len(trees)
        assert iforest_score(iso, X).tobytes() == np.power(2.0, -mean_h / iso.c_psi).tobytes()

    def test_mixed_depths_and_edge_values(self, np_rng):
        # shallow trees before deep ones, so walk order differs from tree order
        trees = [random_tree(np_rng, depth) for depth in (0, 1, 5, 2, 6, 0, 3, 6, 4, 1)]
        self.check_all(trees, edge_rows(np_rng, 400))

    def test_row_counts_around_the_block(self, np_rng):
        trees = [random_tree(np_rng, depth) for depth in (2, 0, 4, 3, 1, 4, 2)]
        rows = _BLOCK // len(trees)
        for n in (0, 1, rows - 1, rows, rows + 1):
            self.check_all(trees, edge_rows(np_rng, n))

    def test_more_trees_than_a_block(self, np_rng):
        trees = [random_tree(np_rng, int(depth)) for depth in np_rng.integers(0, 3, size=_BLOCK + 1)]
        self.check_all(trees, edge_rows(np_rng, 3))

    def test_single_leaf_trees(self, np_rng):
        self.check_all([random_tree(np_rng, 0) for _ in range(5)], edge_rows(np_rng, 20))

    def test_fitted_models(self, np_rng):
        X = np.round(np_rng.normal(size=(300, 3)), 1)
        y = (X[:, 0] + 0.5 * np_rng.normal(size=300) > 0).astype(int)
        Xt = np.vstack([X[:50], edge_rows(np_rng, 50)])
        rf = fit_random_forest(X, y, ForestConfig(n_trees=15, max_depth=6), RngStream(0, "rf"))
        p1 = reference_sum(rf.trees, rf_leaf, Xt) / len(rf.trees)
        assert rf.predict_proba(Xt).tobytes() == np.column_stack([1.0 - p1, p1]).tobytes()
        cfg = BoostConfig(n_rounds=30, early_stopping_rounds=30)
        gb = fit_gradient_boosting(X[:200], y[:200], cfg, validation=(X[200:], y[200:]), rng=RngStream(0, "gb"))
        want = reference_sum(gb.trees[: gb.best_iteration], boost_leaf, Xt, gb.base_score, 0.1)
        assert gb.predict_margin(Xt).tobytes() == want.tobytes()
        iso = fit_isolation_forest(X, 20, 64, RngStream(0, "if"))
        mean_h = reference_sum(iso.trees, iforest_leaf, Xt) / len(iso.trees)
        assert iforest_score(iso, Xt).tobytes() == np.power(2.0, -mean_h / iso.c_psi).tobytes()


def changed_matrices(rng, X):
    """Matrices shaped like X that differ from it in 0, 1, 2 or all columns by
    a row permutation, in one column by NaN and infinities, and in one column
    by signed zeros alone."""
    n, d = X.shape
    out = []
    for cols in ([], [d - 1], [0, d // 2], range(d)):
        M = X.copy()
        for c in cols:
            M[:, c] = X[rng.permutation(n), c]
        out.append(M)
    M = X.copy()
    M[::3, 0], M[1::3, 0], M[2::3, 0] = np.nan, np.inf, -np.inf
    out.append(M)
    M = X.copy()
    c = int(np.argmax((X == 0.0).sum(axis=0))) if n else 0
    zeros = M[:, c] == 0.0
    M[zeros, c] = -M[zeros, c]  # 0.0 <-> -0.0: other bytes, the same walk
    out.append(M)
    return out


class TestRememberedWalk:
    """`model.scorer(X)` gives, for every matrix shaped like X, the bytes of
    the model's own scores of that matrix."""

    def check(self, trees, X, rng):
        d = X.shape[1]
        rf = RandomForestModel(trees=trees, n_features=d, config=ForestConfig())
        iso = IsolationForestModel(trees=trees, psi=64, n_features=d)
        cases = [(rf, lambda M: rf.predict_proba(M)[:, 1]), (iso, lambda M: iforest_score(iso, M))]
        for k in sorted({0, 1, len(trees)}):
            gb = GradientBoostingModel(base_score=-0.7, trees=trees, best_iteration=k, n_features=d,
                                       config=BoostConfig(learning_rate=0.3))
            cases.append((gb, lambda M, gb=gb: gb.predict_proba(M)[:, 1]))
            cases.append((gb, lambda M, gb=gb: sigmoid(gb.predict_margin(M))))
        matrices = changed_matrices(rng, X)
        for model, plain in cases:
            scorer = model.scorer(X)
            for M in matrices + matrices[::-1]:  # also back to X after other calls
                assert scorer(M).tobytes() == plain(M).tobytes()

    def test_mixed_depths_and_edge_values(self, np_rng):
        trees = [random_tree(np_rng, depth) for depth in (0, 1, 5, 2, 6, 0, 3, 6, 4, 1)]
        self.check(trees, edge_rows(np_rng, 400), np_rng)

    def test_single_leaf_trees(self, np_rng):
        self.check([random_tree(np_rng, 0) for _ in range(5)], edge_rows(np_rng, 30), np_rng)

    def test_more_than_64_columns(self, np_rng):
        trees = [random_tree(np_rng, 6, n_features=70) for _ in range(12)]
        self.check(trees, edge_rows(np_rng, 300, n_features=70), np_rng)

    def test_row_counts_around_the_block(self, np_rng):
        trees = [random_tree(np_rng, depth) for depth in (2, 0, 4, 3)]
        for n in (0, 1, _BLOCK // 4 - 1, _BLOCK // 4 + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1):
            self.check(trees, edge_rows(np_rng, n), np_rng)

    def test_fitted_models(self, np_rng):
        X = np.round(np_rng.normal(size=(300, 4)), 1)
        y = (X[:, 0] + 0.5 * np_rng.normal(size=300) > 0).astype(int)
        Xt = np.vstack([X[:50], edge_rows(np_rng, 50, n_features=4)])
        rf = fit_random_forest(X, y, ForestConfig(n_trees=15, max_depth=6), RngStream(0, "rf"))
        gb = fit_gradient_boosting(X[:200], y[:200], BoostConfig(n_rounds=30, early_stopping_rounds=30),
                                   validation=(X[200:], y[200:]), rng=RngStream(0, "gb"))
        iso = fit_isolation_forest(X, 20, 64, RngStream(0, "if"))
        plain = [(rf, lambda M: rf.predict_proba(M)[:, 1]), (gb, lambda M: gb.predict_proba(M)[:, 1]),
                 (iso, lambda M: iforest_score(iso, M))]
        for model, score in plain:
            scorer = model.scorer(Xt)
            for M in changed_matrices(np_rng, Xt):
                assert scorer(M).tobytes() == score(M).tobytes()

    def test_walks_only_the_rows_a_permutation_moved(self, np_rng, monkeypatch):
        X = np.round(np_rng.normal(size=(600, 4)), 1)
        X[:, 1] = np_rng.random(600) < 0.2  # binary
        y = (X[:, 0] + 2.0 * X[:, 1] + 0.5 * np_rng.normal(size=600) > 0.7).astype(int)
        rf = fit_random_forest(X, y, ForestConfig(n_trees=10, max_depth=6), RngStream(0, "rf"))
        gb = fit_gradient_boosting(X[:400], y[:400], BoostConfig(n_rounds=20), validation=(X[400:], y[400:]),
                                   rng=RngStream(0, "gb"))
        walked, walk = [], forest._FlatForest.walk

        def spy(flat_forest, flat, pos, offset, walking):
            walked.append(offset // X.shape[1])  # each pair's row
            return walk(flat_forest, flat, pos, offset, walking)

        M = X.copy()
        M[:, 1] = X[np_rng.permutation(len(X)), 1]
        moved = np.flatnonzero(M[:, 1] != X[:, 1])
        assert 0 < len(moved) < len(X) / 2
        for model in (rf, gb):
            scorer = model.scorer(X)
            monkeypatch.setattr(forest._FlatForest, "walk", spy)
            walked.clear()
            scorer(X.copy())
            assert sum(len(rows) for rows in walked) == 0
            scores = scorer(M)
            monkeypatch.undo()
            rows = np.concatenate(walked)
            assert len(rows) and np.isin(rows, moved).all()
            assert scores.tobytes() == model.predict_proba(M)[:, 1].tobytes()

    def test_shape_checks(self, np_rng):
        rf = RandomForestModel(trees=[random_tree(np_rng, 3)], n_features=3, config=ForestConfig())
        scorer = rf.scorer(edge_rows(np_rng, 10))
        with pytest.raises(DataError, match="10 rows"):
            scorer(edge_rows(np_rng, 11))
        with pytest.raises(DataError, match="feature width"):
            scorer(np.zeros((10, 4)))

    def test_permutation_importance_through_the_scorer(self, np_rng):
        X = np.round(np_rng.normal(size=(400, 5)), 1)
        y = (X[:, 0] - X[:, 2] + 0.5 * np_rng.normal(size=400) > 0).astype(int)
        rf = fit_random_forest(X[:300], y[:300], ForestConfig(n_trees=10, max_depth=6), RngStream(0, "rf"))
        gb = fit_gradient_boosting(X[:200], y[:200], BoostConfig(n_rounds=20), validation=(X[200:300], y[200:300]),
                                   rng=RngStream(0, "gb"))
        for model in (rf, gb):
            via_scorer = permutation_importance(model.scorer(X[300:]), X[300:], y[300:], 3, RngStream(1, "imp"))
            plain = permutation_importance(lambda M: model.predict_proba(M)[:, 1], X[300:], y[300:], 3,
                                           RngStream(1, "imp"))
            assert via_scorer == plain


class TestRandomForest:
    def test_separable_one_dim_perfect_train_accuracy(self, np_rng):
        X = np_rng.normal(size=(200, 1))
        y = (X[:, 0] > 0).astype(int)
        model = fit_random_forest(X, y, ForestConfig(n_trees=30), RngStream(1, "rf"))
        preds = (model.predict_proba(X)[:, 1] >= 0.5).astype(int)
        assert np.array_equal(preds, y)

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="single class"):
            fit_random_forest(np.zeros((10, 2)), np.ones(10), ForestConfig(n_trees=2), RngStream(0, "rf"))

    def test_same_seed_identical_models(self, np_rng):
        X = np_rng.normal(size=(80, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        a = fit_random_forest(X, y, ForestConfig(n_trees=10), RngStream(4, "rf"))
        b = fit_random_forest(X, y, ForestConfig(n_trees=10), RngStream(4, "rf"))
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
        assert_same_trees(a.trees, b.trees)

    def test_per_tree_streams_derived_by_index(self, np_rng):
        # growing a larger forest must reproduce the smaller forest's trees
        X = np_rng.normal(size=(60, 3))
        y = (X[:, 2] > 0.2).astype(int)
        small = fit_random_forest(X, y, ForestConfig(n_trees=3), RngStream(8, "rf"))
        large = fit_random_forest(X, y, ForestConfig(n_trees=6), RngStream(8, "rf"))
        assert_same_trees(small.trees, large.trees[:3])

    def test_gini_oracle_small_datasets(self, np_rng):
        for _ in range(25):
            n = int(np_rng.integers(4, 64))
            d = int(np_rng.integers(1, 5))
            X = np.round(np_rng.normal(size=(n, d)), 1)  # force ties
            y = np_rng.integers(0, 2, size=n)
            if len(np.unique(y)) < 2:
                continue
            idx = np.arange(n)
            feats = list(range(d))
            got = _gini_best_split(*_column_codes(X), y, idx, feats)
            want = exhaustive_gini(X, y, idx, feats)
            if want is None:
                assert got is None
                continue
            assert got is not None
            assert abs(got[2] - want[2]) <= 1e-12

    def test_non_finite_features_rejected(self):
        X = np.array([[0.0], [1.0], [np.nan], [3.0]])
        with pytest.raises(DataError, match="non-finite"):
            fit_random_forest(X, np.array([0, 0, 1, 1]), ForestConfig(n_trees=2), RngStream(0, "rf"))

    def test_all_trees_voting_one(self):
        X = np.array([[0.0], [0.1], [10.0], [10.1]])
        y = np.array([0, 0, 1, 1])
        model = fit_random_forest(X, y, ForestConfig(n_trees=15), RngStream(2, "rf"))
        assert model.predict_proba(np.array([[50.0]]))[0, 1] == 1.0

    def test_probability_bounds_sweep(self, np_rng):
        X = np_rng.normal(size=(150, 4))
        y = (X[:, 0] > 0).astype(int)
        model = fit_random_forest(X, y, ForestConfig(n_trees=10), RngStream(3, "rf"))
        P = model.predict_proba(np_rng.normal(size=(1000, 4)) * 3)
        assert (P >= 0.0).all() and (P <= 1.0).all()
        assert np.allclose(P.sum(axis=1), 1.0)

    def test_width_mismatch(self, np_rng):
        X = np_rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(int)
        model = fit_random_forest(X, y, ForestConfig(n_trees=3), RngStream(0, "rf"))
        with pytest.raises(DataError, match="width"):
            model.predict_proba(np.zeros((5, 3)))


class TestGradientBoosting:
    def test_symmetric_gradients_cancel(self):
        # depth-0 tree, lam=0, prior 0.5: G = 0 so the single leaf weight is 0
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1, 1, 0, 0])
        cfg = BoostConfig(n_rounds=1, max_depth=0, lam=0.0, subsample=1.0, early_stopping_rounds=5)
        model = fit_gradient_boosting(X, y, cfg, validation=(X, y), rng=RngStream(0, "gb"))
        assert model.base_score == 0.0
        assert model.trees[0].feature.tolist() == [-1] and model.trees[0].value[0] == 0.0
        assert np.allclose(model.predict_margin(X), 0.0)

    def test_leaf_weights_closed_form(self):
        # perfect depth-1 split; hand-computed -G/(H+lam) per leaf
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        cfg = BoostConfig(n_rounds=1, max_depth=1, lam=1.0, subsample=1.0)
        model = fit_gradient_boosting(X, y, cfg, validation=(X, y), rng=RngStream(0, "gb"))
        tree = model.trees[0]
        # prior 0.5 -> p=0.5 everywhere: g = +-0.5, h = 0.25
        # left leaf: G = 1.0, H = 0.5 -> w = -1/1.5; right: G = -1.0 -> w = +1/1.5
        assert tree.feature.tolist() == [0, -1, -1] and tree.right[0] == 2
        assert math.isclose(tree.value[1], -1.0 / 1.5, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(tree.value[2], 1.0 / 1.5, rel_tol=0, abs_tol=1e-12)

    def test_gain_refused_when_nonpositive(self, np_rng):
        # pure-noise labels with a huge gamma: every split refused, trees are stumps
        X = np_rng.normal(size=(50, 2))
        y = np_rng.integers(0, 2, size=50)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        cfg = BoostConfig(n_rounds=3, gamma=1e9, subsample=1.0)
        model = fit_gradient_boosting(X, y, cfg, validation=(X, y), rng=RngStream(1, "gb"))
        assert all(t.feature.tolist() == [-1] for t in model.trees)

    def test_early_stopping_records_best_round(self, np_rng):
        # inverted validation labels: validation loss rises from round 1,
        # so training stops after patience extra rounds
        X = np_rng.normal(size=(120, 2))
        y = (X[:, 0] > 0).astype(int)
        Xv = np_rng.normal(size=(40, 2))
        yv = (Xv[:, 0] <= 0).astype(int)
        cfg = BoostConfig(n_rounds=50, subsample=1.0, early_stopping_rounds=4)
        model = fit_gradient_boosting(X, y, cfg, validation=(Xv, yv), rng=RngStream(2, "gb"))
        assert model.best_iteration == 1
        assert len(model.val_losses) == model.best_iteration + cfg.early_stopping_rounds
        assert model.val_losses[model.best_iteration - 1] == min(model.val_losses)

    def test_best_iteration_is_argmin(self, np_rng):
        X = np_rng.normal(size=(200, 3))
        y = ((X[:, 0] + 0.3 * np_rng.normal(size=200)) > 0).astype(int)
        Xv = np_rng.normal(size=(60, 3))
        yv = ((Xv[:, 0] + 0.3 * np_rng.normal(size=60)) > 0).astype(int)
        cfg = BoostConfig(n_rounds=40, early_stopping_rounds=5)
        model = fit_gradient_boosting(X, y, cfg, validation=(Xv, yv), rng=RngStream(3, "gb"))
        assert model.val_losses.index(min(model.val_losses)) + 1 == model.best_iteration

    def test_training_loss_descent_full_batch(self, np_rng):
        X = np_rng.normal(size=(150, 3))
        y = ((X[:, 0] - X[:, 1]) > 0).astype(int)
        cfg = BoostConfig(n_rounds=25, subsample=1.0, gamma=0.0, early_stopping_rounds=25)
        model = fit_gradient_boosting(X, y, cfg, validation=(X, y), rng=RngStream(5, "gb"))
        losses = []
        for k in range(1, len(model.trees) + 1):
            model.best_iteration = k
            losses.append(_logloss(y, sigmoid(model.predict_margin(X))))
        for prev, nxt in zip(losses[:-1], losses[1:]):
            assert nxt <= prev + 1e-12

    def test_zero_trees_predicts_prior(self, np_rng):
        X = np_rng.normal(size=(40, 2))
        y = np.array([0, 1] * 20)
        cfg = BoostConfig(n_rounds=1, subsample=1.0)
        model = fit_gradient_boosting(X, y, cfg, validation=(X, y), rng=RngStream(0, "gb"))
        model.best_iteration = 0
        p = model.predict_proba(X)[:, 1]
        assert np.allclose(p, sigmoid(model.base_score))

    def test_missing_validation_rejected(self, np_rng):
        X = np_rng.normal(size=(20, 2))
        y = np.array([0, 1] * 10)
        with pytest.raises(DataError, match="validation"):
            fit_gradient_boosting(X, y, BoostConfig(), validation=None, rng=RngStream(0, "gb"))

    def test_non_finite_features_rejected(self):
        X = np.arange(8.0).reshape(4, 2)
        y = np.array([0, 1, 0, 1])
        bad = X.copy()
        bad[1, 1] = np.inf
        with pytest.raises(DataError, match="X contains"):
            fit_gradient_boosting(bad, y, BoostConfig(n_rounds=1), validation=(X, y), rng=RngStream(0, "gb"))
        bad[1, 1] = np.nan
        with pytest.raises(DataError, match="X_val contains"):
            fit_gradient_boosting(X, y, BoostConfig(n_rounds=1), validation=(bad, y), rng=RngStream(0, "gb"))

    def test_single_class_rejected(self):
        X = np.zeros((10, 1))
        with pytest.raises(DataError, match="single class"):
            fit_gradient_boosting(X, np.ones(10), BoostConfig(), validation=(X, np.ones(10)), rng=RngStream(0, "gb"))


class TestNodeMeans:
    """A leaf's mean is its value, and an internal node's is the row-weighted
    mean of its two children's, as model documents carry them."""

    def assert_means_add_up(self, trees):
        internal = 0
        for tree in trees:
            leaves = tree.feature < 0
            assert np.array_equal(tree.mean[leaves], tree.value[leaves])
            for i in np.flatnonzero(~leaves):
                (nl, ml), (nr, mr) = ((tree.n[c], tree.mean[c]) for c in (i + 1, tree.right[i]))
                assert abs(tree.mean[i] - (nl * ml + nr * mr) / (nl + nr)) <= 1e-12
                internal += 1
        assert internal > len(trees)

    def test_forest(self, np_rng):
        X = np_rng.normal(size=(120, 4))
        y = ((X[:, 0] + 0.5 * X[:, 1]) > 0).astype(int)
        self.assert_means_add_up(fit_random_forest(X, y, ForestConfig(n_trees=12), RngStream(1, "rf")).trees)

    def test_boosting(self, np_rng):
        X = np_rng.normal(size=(150, 3))
        y = ((X[:, 0] - X[:, 2]) > 0).astype(int)
        model = fit_gradient_boosting(X, y, BoostConfig(n_rounds=20, subsample=1.0), validation=(X, y),
                                      rng=RngStream(2, "gb"))
        self.assert_means_add_up(model.trees)

    def test_depth_one_forest_worked_example(self):
        # the bootstrap draws two rows of each class: pure leaves, root mean 2/4
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        tree = fit_random_forest(X, y, ForestConfig(n_trees=1, max_depth=1), RngStream(3, "rf")).trees[0]
        assert tree.feature.tolist() == [0, -1, -1] and tree.n.tolist() == [4, 2, 2]
        assert tree.mean.tolist() == [0.5, 0.0, 1.0]

    def test_depth_one_boosting_worked_example(self):
        # leaf weights -+1/1.5 (see test_leaf_weights_closed_form) on two rows each
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        cfg = BoostConfig(n_rounds=1, max_depth=1, lam=1.0, subsample=1.0)
        tree = fit_gradient_boosting(X, y, cfg, validation=(X, y), rng=RngStream(0, "gb")).trees[0]
        assert tree.n.tolist() == [4, 2, 2]
        assert np.allclose(tree.mean, [0.0, -1.0 / 1.5, 1.0 / 1.5], rtol=0, atol=1e-12)


class TestIsolationForest:
    def test_exact_harmonic_normalizer(self):
        assert average_path_length(2) == 1.0
        # oracle: straight summation
        m = 256
        oracle = 2.0 * sum(1.0 / k for k in range(1, m)) - 2.0 * (m - 1) / m
        assert average_path_length(256) == oracle
        assert abs(oracle - 10.248689925634562) < 1e-12
        assert harmonic(0) == 0.0 and harmonic(1) == 1.0

    def test_c_monotone_increasing(self):
        values = [average_path_length(m) for m in range(2, 600)]
        assert all(b > a for a, b in zip(values[:-1], values[1:]))

    def test_scores_in_unit_interval_and_repeatable(self, np_rng):
        X = np_rng.normal(size=(300, 3))
        model = fit_isolation_forest(X, 50, 128, RngStream(6, "if"))
        s1 = iforest_score(model, X)
        s2 = iforest_score(model, X)
        assert np.array_equal(s1, s2)
        assert (s1 > 0).all() and (s1 < 1).all()

    @pytest.mark.slow
    def test_planted_outlier_gets_top_score(self, np_rng):
        hits = 0
        trials = 20
        for t in range(trials):
            X = np_rng.normal(size=(500, 2))
            X = np.vstack([X, [[10.0, 10.0]]])
            model = fit_isolation_forest(X, 100, 256, RngStream(100 + t, "if"))
            hits += int(np.argmax(iforest_score(model, X)) == 500)
        assert hits >= int(0.95 * trials)

    def test_single_leaf_tree_scores_half(self):
        # identical rows cannot be split: every path length is c(psi) exactly
        X = np.tile([[3.0, 1.0]], (8, 1))
        model = fit_isolation_forest(X, 10, 8, RngStream(0, "if"))
        assert np.allclose(iforest_score(model, X), 0.5)

    def test_psi_larger_than_n_rejected(self, np_rng):
        with pytest.raises(DataError, match="psi"):
            fit_isolation_forest(np_rng.normal(size=(10, 2)), 5, 11, RngStream(0, "if"))

    def test_non_finite_features_rejected(self, np_rng):
        X = np_rng.normal(size=(20, 2))
        X[3, 0] = -np.inf
        with pytest.raises(DataError, match="non-finite"):
            fit_isolation_forest(X, 5, 8, RngStream(0, "if"))

    def test_determinism(self, np_rng):
        X = np_rng.normal(size=(200, 2))
        a = fit_isolation_forest(X, 20, 64, RngStream(9, "if"))
        b = fit_isolation_forest(X, 20, 64, RngStream(9, "if"))
        assert np.array_equal(iforest_score(a, X), iforest_score(b, X))

    def test_width_mismatch(self, np_rng):
        X = np_rng.normal(size=(50, 2))
        model = fit_isolation_forest(X, 5, 32, RngStream(0, "if"))
        with pytest.raises(DataError, match="width"):
            iforest_score(model, np.zeros((3, 4)))
