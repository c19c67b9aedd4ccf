"""Tree ensembles built from scratch: random forest, second-order gradient
boosting, and isolation forest.

All trees share one node type. Classification nodes carry class counts,
boosted-tree leaves carry Newton-step weights, isolation leaves carry training
sample counts. Every node also stores its training-mean prediction so path
attributions telescope exactly (see evalx.tree_path_attribution). Prediction
runs over one flat node table per ensemble (`_FlatForest`) with one walk: a
branch-free walk, one vectorized level at a time, over a list of (tree, row)
pairs. `predict` walks all pairs; a model's `scorer(X)`, made for permutation
importance, re-walks only the pairs a change to X can move (`_RememberedWalk`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DataError, NumericError
from .linear import sigmoid
from .tabular import RngStream


@dataclass
class TreeNode:
    """Internal (feature, threshold: go left iff value <= threshold) or leaf."""

    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0  # leaf payload: class-1 share / boosted weight
    counts: np.ndarray | None = None  # classification trees: class counts
    n_samples: int = 0
    mean: float = 0.0  # training-mean prediction at this node

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


# Pairs of (tree, row) walked together in one block. Larger blocks fall out of
# cache; small ones keep the walk's temporaries a fixed size at any row count.
_BLOCK = 1 << 14


class _FlatForest:
    """One node table holding every tree of an ensemble, for batch prediction.

    Node i tests `x[feature[i]] <= threshold[i]`; its right child is
    `children[2i]` and its left child `children[2i + 1]`. A leaf points both
    slots at itself, so a walk needs no leaf test: one level is
    `pos = children[2 pos + (x[feature[pos]] <= threshold[pos])]` for all
    (tree, row) pairs at once, and NaN goes right because `NaN <= t` is false.
    Trees are numbered in walk order, deepest first, and pairs come in that
    order, so the pairs still walking at a level are a prefix. Leaf values are
    then summed per row in tree order, the order of a loop of
    `total += tree value` over the trees.
    """

    def __init__(self, trees, leaf_value):
        feature, threshold, value, children = [], [], [], []
        starts, depths = [], []

        def walk(node, depth):
            i = len(feature)
            feature.append(0)
            threshold.append(0.0)
            value.append(0.0)
            children.extend((i, i))
            if node.is_leaf:
                value[i] = leaf_value(node, depth)
                return depth
            feature[i] = node.feature
            threshold[i] = node.threshold
            children[2 * i + 1] = i + 1
            below = walk(node.left, depth + 1)
            children[2 * i] = len(feature)
            return max(below, walk(node.right, depth + 1))

        for root in trees:
            starts.append(len(feature))
            depths.append(walk(root, 0))
        self.feature = np.array(feature, dtype=np.int64)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.value = np.array(value, dtype=np.float64)
        self.children = np.array(children, dtype=np.int64)
        self.starts = np.array(starts, dtype=np.int64)
        self.depths = np.array(depths, dtype=np.int64)
        self.order = np.argsort(-self.depths, kind="stable")  # walk order: deepest first
        self.roots = self.starts[self.order]
        # walking[k]: trees in walk order still above their deepest leaf at level k
        self.walking = (self.depths[:, None] > np.arange(self.depths.max(initial=0))).sum(axis=0)
        # the smallest unsigned type that holds a leaf's offset within its tree
        self.offset_type = np.min_scalar_type(int(np.diff(self.starts, append=len(feature)).max(initial=1)) - 1)

    def walk(self, flat, pos, offset, walking) -> np.ndarray:
        """Walks (tree, row) pairs in place from their roots `pos` to their
        leaves. `offset` is a pair's row times the row width of the flat
        row-major matrix; pairs go in walk order, so the first `walking[k]`
        are the pairs still walking at level k."""
        for a in walking:
            p = pos[:a]
            left = flat.take(offset[:a] + self.feature.take(p)) <= self.threshold.take(p)
            pos[:a] = self.children.take(2 * p + left)
        return pos

    def sum(self, leaves, init, scale: float) -> np.ndarray:
        """Per column of `leaves` (leaf nodes, trees in walk order by rows),
        `init + scale * v_0 + scale * v_1 + ...`, added in tree order."""
        terms = np.empty((len(leaves) + 1, leaves.shape[1]))
        terms[0] = init
        terms[1 + self.order] = scale * self.value.take(leaves)
        return np.add.accumulate(terms, axis=0)[-1]

    def predict(self, X: np.ndarray, init=0.0, scale: float = 1.0, leaf=None) -> np.ndarray:
        """Per row, `init + scale * v_0 + scale * v_1 + ...` over the trees'
        leaf values, added left to right; `init` is a scalar or one per row.
        A (trees, rows) array `leaf` also gets each pair's leaf offset."""
        X = np.ascontiguousarray(X)
        (n, d), t, flat = X.shape, len(self.starts), X.ravel()
        init = np.broadcast_to(np.asarray(init, dtype=np.float64), (n,))
        out = np.empty(n)
        rows = max(1, _BLOCK // max(t, 1))
        for r0 in range(0, n, rows):
            b = min(rows, n - r0)
            offset = np.tile(np.arange(r0 * d, (r0 + b) * d, d), t)
            pos = self.walk(flat, np.repeat(self.roots, b), offset, self.walking * b).reshape(t, b)
            if leaf is not None:
                leaf[:, r0 : r0 + b] = pos - self.roots[:, None]
            out[r0 : r0 + b] = self.sum(pos, init[r0 : r0 + b], scale)
        return out


class _RememberedWalk:
    """A tree model's scores of matrices shaped like X, from one remembered walk
    of X: each (tree, row) pair's leaf offset and each row's sum.

    A column moves a pair only if the pair's path tests it. A call flags the
    nodes below a test of a column in which its matrix differs from X, and
    re-walks, by spans of rows holding about `_BLOCK` such pairs, every row of
    a tree whose root is such a test and elsewhere the pairs whose leaf is
    flagged. Only their rows are summed again, in tree order, so a call gives
    the bytes of `finish(flat.predict(matrix, init, scale))`.
    """

    def __init__(self, flat, init, scale, finish, X):
        self.flat, self.scale, self.finish = flat, scale, finish
        self.X = np.ascontiguousarray(X)  # not copied, to keep the memory of one importance call low
        self.init = np.broadcast_to(np.asarray(init, dtype=np.float64), (len(X),))
        self.leaf = np.empty((len(flat.starts), len(X)), flat.offset_type)
        self.out = flat.predict(self.X, self.init, scale, self.leaf)

    def __call__(self, X) -> np.ndarray:
        X = np.ascontiguousarray(_check_width(X, self.X.shape[1]))
        if X.shape != self.X.shape:
            raise DataError(f"scorer holds {self.X.shape[0]} rows, got {X.shape[0]}")
        f, (n, d), flat = self.flat, X.shape, X.ravel()
        internal = f.children[1::2] != np.arange(len(f.feature))
        changed = (X.view(np.uint64) != self.X.view(np.uint64)).any(axis=0)  # bytewise: -0.0 is not 0.0
        tests = internal & changed.take(f.feature)
        flag, level = np.zeros(len(tests), dtype=bool), f.roots
        while len(level):
            level = level[internal.take(level)]
            kids = f.children.reshape(-1, 2)[level]
            flag[kids] = (flag[level] | tests[level])[:, None]
            level = kids.ravel()
        whole = np.flatnonzero(tests.take(f.roots))  # trees by walk-order number
        some = np.flatnonzero(np.logical_or.reduceat(flag, f.starts)[f.order] & ~tests.take(f.roots))
        out, step = self.out.copy(), max(1, _BLOCK // max(len(f.starts), 1))  # rows summed at once
        r0, span, walked = 0, step, 0
        while r0 < n and len(whole) + len(some):
            rows = np.arange(r0, min(n, r0 + span))
            leaf, touched = self.leaf[:, r0 : r0 + len(rows)].copy(), np.full(len(rows), len(whole) > 0)
            if len(whole):
                pos = f.walk(flat, np.repeat(f.roots.take(whole), len(rows)), np.tile(rows * d, len(whole)),
                             np.searchsorted(whole, f.walking) * len(rows))
                leaf[whole] = pos.reshape(len(whole), len(rows)) - f.roots.take(whole)[:, None]
            group, tree, row, pos = max(1, _BLOCK // len(rows)), [whole[:0]], [whole[:0]], None
            for i in range(0, len(some), group):  # at most _BLOCK candidate pairs at a time
                k = some[i : i + group]
                kk, rr = np.nonzero(flag.take(f.roots[k, None] + leaf[k]))
                tree.append(k.take(kk))
                row.append(rr)
            tree, row = np.concatenate(tree), np.concatenate(row)
            if len(tree):
                pos = f.walk(flat, f.roots.take(tree), (row + r0) * d, np.searchsorted(tree, f.walking))
                leaf[tree, row] = pos - f.roots.take(tree)
                touched[row] = True
            walked += len(whole) * len(rows) + len(tree)
            del pos, tree, row  # free the pairs before the sums
            touched = np.flatnonzero(touched)
            for i in range(0, len(touched), step):
                r = touched[i : i + step]
                out[rows[r]] = f.sum(f.roots[:, None] + leaf[:, r], self.init.take(rows[r]), self.scale)
            r0 += len(rows)
            span = step * min(4, max(1, round(_BLOCK * r0 / max(walked, 1) / step)))  # about _BLOCK pairs a span
        return self.finish(out)


class TreeEnsemble:
    """Scoring shared by the tree models. `_walk_parts()` gives a model's node
    table, the `init` and `scale` of its sums, and its map from sums to scores."""

    def scores(self, X) -> np.ndarray:
        flat, init, scale, finish = self._walk_parts()
        return finish(flat.predict(_check_width(X, self.n_features), init, scale))

    def scorer(self, X) -> _RememberedWalk:
        """`scores` of matrices shaped like X, for one permutation-importance
        call; X must not change while the scorer is in use."""
        return _RememberedWalk(*self._walk_parts(), _check_width(X, self.n_features))


def _check_finite(X: np.ndarray, name: str = "X") -> np.ndarray:
    if not np.isfinite(X).all():
        raise DataError(f"{name} contains NaN or infinite values; cannot fit on non-finite features")
    return X


def _check_width(X: np.ndarray, expected: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != expected:
        raise DataError(f"feature width {X.shape[1] if X.ndim == 2 else X.shape} does not match training width {expected}")
    return X


# -- random forest -------------------------------------------------------------


@dataclass
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 12
    min_samples_split: int = 2
    max_features: int | None = None  # default ceil(sqrt(d))


def _column_codes(X):
    """One fit's split-search inputs: a column-major copy of X, and per column
    each row's rank among the column's distinct values.

    Equal codes mean equal values, so a stable sort of a node's codes is the
    permutation a stable sort of its values gives, and all sums that follow
    run in the same order. Codes take the smallest unsigned type that holds
    them; numpy sorts types of 16 bits or less with a linear-time radix sort.
    """
    Xc = np.ascontiguousarray(X.T)
    codes = []
    for col in Xc:
        uniq, inv = np.unique(col, return_inverse=True)
        codes.append(inv.astype(np.min_scalar_type(len(uniq) - 1)))
    return Xc, codes


def _sorted_cuts(ci):
    """Stable order of one node's codes, and the positions in that order after
    which the value changes."""
    order = np.argsort(ci, kind="stable")
    sc = ci.take(order)
    return order, np.flatnonzero(sc[:-1] != sc[1:])


def _gini_best_split(Xc, codes, y, idx, feature_indices):
    """Minimum weighted Gini over midpoint thresholds of the given features.

    `Xc` and `codes` come from `_column_codes`. Returns (feature, threshold,
    weighted_gini) or None when no feature varies. Ties resolve to the lower
    feature index, then the lower threshold.
    """
    best = None
    n = len(idx)
    yi = y[idx]
    total1 = int(yi.sum())
    for f in sorted(feature_indices):
        order, cut = _sorted_cuts(codes[f].take(idx))
        if len(cut) == 0:
            continue
        c1 = np.cumsum(yi.take(order))[cut]
        nl = cut + 1.0
        nr = n - nl
        c1r = total1 - c1
        gl = 1.0 - (c1 / nl) ** 2 - ((nl - c1) / nl) ** 2
        gr = 1.0 - (c1r / nr) ** 2 - ((nr - c1r) / nr) ** 2
        weighted = (nl * gl + nr * gr) / n
        j = int(np.argmin(weighted))
        if best is None or weighted[j] < best[2]:
            thr = (Xc[f, idx[order[cut[j]]]] + Xc[f, idx[order[cut[j] + 1]]]) / 2.0
            best = (f, float(thr), float(weighted[j]))
    return best


def _grow_classification_tree(Xc, codes, y, idx, depth, config, m, rng):
    counts = np.array([float((y[idx] == 0).sum()), float((y[idx] == 1).sum())])
    node = TreeNode(counts=counts, n_samples=len(idx), mean=counts[1] / len(idx), value=counts[1] / len(idx))
    pure = counts[0] == 0 or counts[1] == 0
    if pure or depth >= config.max_depth or len(idx) < config.min_samples_split:
        return node
    feats = rng.choice(len(codes), size=m, replace=False)
    best = _gini_best_split(Xc, codes, y, idx, feats)
    if best is None:
        return node
    f, thr, _ = best
    mask = Xc[f].take(idx) <= thr
    node.feature = int(f)
    node.threshold = thr
    node.left = _grow_classification_tree(Xc, codes, y, idx[mask], depth + 1, config, m, rng)
    node.right = _grow_classification_tree(Xc, codes, y, idx[~mask], depth + 1, config, m, rng)
    return node


@dataclass
class RandomForestModel(TreeEnsemble):
    trees: list
    n_features: int
    config: ForestConfig
    classes: tuple = (0, 1)
    _flat: _FlatForest | None = field(default=None, repr=False, compare=False)

    def _walk_parts(self):
        if self._flat is None:
            self._flat = _FlatForest(self.trees, lambda node, depth: node.counts[1] / node.counts.sum())
        return self._flat, 0.0, 1.0, lambda total: total / len(self.trees)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = self.scores(X)
        return np.column_stack([1.0 - p1, p1])


def fit_random_forest(X, y, config: ForestConfig | None = None, rng: RngStream | None = None) -> RandomForestModel:
    """Bootstrap ensemble of Gini trees, ceil(sqrt(d)) random features per node.

    Per-tree randomness derives from the tree index, so the fitted model does
    not depend on fitting order.
    """
    config = config or ForestConfig()
    rng = rng or RngStream(0, "forest")
    X = _check_finite(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    if n < 2:
        raise DataError(f"need at least 2 rows, got {n}")
    if len(np.unique(y)) < 2:
        raise DataError("labels contain a single class; cannot fit a classifier")
    m = config.max_features or math.ceil(math.sqrt(d))
    m = min(m, d)
    Xc, codes = _column_codes(X)
    trees = []
    for t in range(config.n_trees):
        tr = rng.child(f"tree/{t}")
        boot = tr.integers(0, n, size=n)
        trees.append(_grow_classification_tree(Xc, codes, y, boot, 0, config, m, tr))
    return RandomForestModel(trees=trees, n_features=d, config=config)


# -- gradient boosting -----------------------------------------------------------


@dataclass
class BoostConfig:
    learning_rate: float = 0.1
    n_rounds: int = 200
    max_depth: int = 3
    lam: float = 1.0  # L2 penalty on leaf weights
    gamma: float = 0.0  # minimum split gain
    subsample: float = 0.8
    early_stopping_rounds: int = 10


def _logloss(y, p):
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _boost_best_split(Xc, codes, g, h, idx, lam, gamma):
    """Maximum second-order gain split.

    gain = 1/2 [GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam)] - gamma,
    over midpoint thresholds; splits with gain <= 0 are refused. `Xc` and
    `codes` come from `_column_codes`.
    """
    gi = g[idx]
    hi = h[idx]
    G = gi.sum()
    H = hi.sum()
    parent = G * G / (H + lam)
    best = None
    for f in range(len(codes)):
        order, cut = _sorted_cuts(codes[f].take(idx))
        if len(cut) == 0:
            continue
        GL = np.cumsum(gi.take(order))[cut]
        HL = np.cumsum(hi.take(order))[cut]
        GR = G - GL
        HR = H - HL
        gain = 0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - parent) - gamma
        j = int(np.argmax(gain))
        if gain[j] > 0.0 and (best is None or gain[j] > best[2]):
            thr = (Xc[f, idx[order[cut[j]]]] + Xc[f, idx[order[cut[j] + 1]]]) / 2.0
            best = (f, float(thr), float(gain[j]))
    return best


def _boost_leaf(node, depth):
    return node.value


def _grow_boost_tree(Xc, codes, g, h, idx, depth, config):
    node = TreeNode(n_samples=len(idx))
    if depth < config.max_depth and len(idx) >= 2:
        best = _boost_best_split(Xc, codes, g, h, idx, config.lam, config.gamma)
        if best is not None:
            f, thr, _ = best
            mask = Xc[f].take(idx) <= thr
            node.feature = int(f)
            node.threshold = thr
            node.left = _grow_boost_tree(Xc, codes, g, h, idx[mask], depth + 1, config)
            node.right = _grow_boost_tree(Xc, codes, g, h, idx[~mask], depth + 1, config)
            nl, nr = node.left.n_samples, node.right.n_samples
            node.mean = (nl * node.left.mean + nr * node.right.mean) / (nl + nr)
            return node
    node.value = float(-g[idx].sum() / (h[idx].sum() + config.lam))
    node.mean = node.value
    return node


@dataclass
class GradientBoostingModel(TreeEnsemble):
    base_score: float
    trees: list
    best_iteration: int
    n_features: int
    config: BoostConfig
    val_losses: list = field(default_factory=list)
    _flat: _FlatForest | None = field(default=None, repr=False, compare=False)

    def _walk_parts(self):
        if self._flat is None or len(self._flat.starts) != self.best_iteration:
            self._flat = _FlatForest(self.trees[: self.best_iteration], _boost_leaf)
        return self._flat, self.base_score, self.config.learning_rate, sigmoid

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        flat, init, scale, _ = self._walk_parts()
        return flat.predict(_check_width(X, self.n_features), init, scale)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = sigmoid(self.predict_margin(X))
        return np.column_stack([1.0 - p1, p1])


def fit_gradient_boosting(X, y, config: BoostConfig | None = None, validation=None, rng: RngStream | None = None) -> GradientBoostingModel:
    """Boosted regression trees on logistic gradients with early stopping.

    Each round fits one tree to (g, h) = (p - y, p(1 - p)) on a row subsample,
    with Newton leaf weights -G/(H+lam). Training stops once validation logloss
    has not improved for early_stopping_rounds rounds; best_iteration marks the
    round with the lowest validation loss and prediction uses only those trees.
    """
    config = config or BoostConfig()
    rng = rng or RngStream(0, "boost")
    X = _check_finite(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if len(np.unique(y)) < 2:
        raise DataError("labels contain a single class; cannot fit a classifier")
    if validation is None:
        raise DataError("gradient boosting requires a validation split for early stopping")
    X_val, y_val = validation
    X_val = _check_finite(np.asarray(X_val, dtype=np.float64), "X_val")
    y_val = np.asarray(y_val, dtype=np.float64)
    if X_val.shape[0] == 0:
        raise DataError("validation split is empty")
    if len(np.unique(y_val)) < 2:
        raise DataError("validation labels contain a single class")

    prior = min(max(float(y.mean()), 1e-6), 1.0 - 1e-6)
    base = math.log(prior / (1.0 - prior))
    margins = np.full(n, base)
    val_margins = np.full(X_val.shape[0], base)

    trees = []
    val_losses = []
    best_loss = math.inf
    best_round = 0
    n_sub = max(1, int(math.floor(n * config.subsample + 0.5)))
    Xc, codes = _column_codes(X)
    for t in range(config.n_rounds):
        p = sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        rows = (
            np.arange(n)
            if config.subsample >= 1.0
            else rng.child(f"round/{t}").choice(n, size=n_sub, replace=False)
        )
        tree = _grow_boost_tree(Xc, codes, g, h, rows, 0, config)
        trees.append(tree)
        step = _FlatForest([tree], _boost_leaf)
        margins = step.predict(X, margins, config.learning_rate)
        val_margins = step.predict(X_val, val_margins, config.learning_rate)
        loss = _logloss(y_val, sigmoid(val_margins))
        if not math.isfinite(loss):
            raise NumericError(f"non-finite validation loss at round {t + 1}")
        val_losses.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_round = t + 1
        elif (t + 1) - best_round >= config.early_stopping_rounds:
            break
    return GradientBoostingModel(
        base_score=base,
        trees=trees,
        best_iteration=best_round,
        n_features=X.shape[1],
        config=config,
        val_losses=val_losses,
    )


# -- isolation forest --------------------------------------------------------------


def harmonic(n: int) -> float:
    """Exact n-th harmonic number by summation (H(0) = 0)."""
    return float(sum(1.0 / k for k in range(1, n + 1)))


@lru_cache(maxsize=None)
def average_path_length(m: int) -> float:
    """c(m) = 2 H(m-1) - 2 (m-1)/m, the normalizing expected path length."""
    if m <= 1:
        return 0.0
    return 2.0 * harmonic(m - 1) - 2.0 * (m - 1) / m


def _grow_isolation_tree(X, idx, depth, limit, rng):
    node = TreeNode(n_samples=len(idx))
    if depth >= limit or len(idx) <= 1:
        return node
    lo = X[idx].min(axis=0)
    hi = X[idx].max(axis=0)
    candidates = np.flatnonzero(hi > lo)
    if len(candidates) == 0:
        return node
    f = int(candidates[rng.integers(0, len(candidates))])
    thr = float(rng.uniform(lo[f], hi[f]))
    mask = X[idx, f] <= thr
    node.feature = f
    node.threshold = thr
    node.left = _grow_isolation_tree(X, idx[mask], depth + 1, limit, rng)
    node.right = _grow_isolation_tree(X, idx[~mask], depth + 1, limit, rng)
    return node


@dataclass
class IsolationForestModel(TreeEnsemble):
    trees: list
    psi: int
    n_features: int
    _flat: _FlatForest | None = field(default=None, repr=False, compare=False)

    @property
    def c_psi(self) -> float:
        return average_path_length(self.psi)

    def _walk_parts(self):
        if self._flat is None:
            self._flat = _FlatForest(self.trees, lambda node, depth: depth + average_path_length(node.n_samples))
        return self._flat, 0.0, 1.0, lambda total: np.power(2.0, -(total / len(self.trees)) / self.c_psi)


def fit_isolation_forest(X, n_trees: int = 100, psi: int = 256, rng: RngStream | None = None) -> IsolationForestModel:
    """Random-split trees on psi-subsamples, height-limited to ceil(log2 psi)."""
    rng = rng or RngStream(0, "iforest")
    X = _check_finite(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    if psi < 2:
        raise DataError(f"psi must be >= 2, got {psi}")
    if psi > n:
        raise DataError(f"psi={psi} exceeds the {n} available rows")
    limit = math.ceil(math.log2(psi))
    trees = []
    for t in range(n_trees):
        tr = rng.child(f"tree/{t}")
        idx = tr.choice(n, size=psi, replace=False)
        trees.append(_grow_isolation_tree(X, idx, 0, limit, tr))
    return IsolationForestModel(trees=trees, psi=psi, n_features=X.shape[1])


def iforest_score(model: IsolationForestModel, X) -> np.ndarray:
    """Anomaly scores 2^(-mean path length / c(psi)), in (0, 1)."""
    return model.scores(X)
