"""Tree ensembles built from scratch: random forest, second-order gradient
boosting, and isolation forest.

Every tree is a `Tree` of pre-order node arrays, grown depth first by
`grow_tree` from one split rule per family. Each node keeps its training row
count and training-mean prediction, which model documents carry; a parent's
mean is the row-weighted mean of its children's. Prediction runs over one
flat node table per ensemble (`_FlatForest`), the trees' arrays end to end,
with one walk: a branch-free walk, one vectorized level at a time, over a
list of (tree, row) pairs. `predict` walks all pairs; a model's `scorer(X)`,
made for permutation importance, re-walks only the pairs of the rows a change
to X moved whose paths test a changed column (`_RememberedWalk`).

Splits are exact, over each column's distinct values (`_column_codes`). A
boosting round sorts each feature's rows once (`_presort`); each child takes a
stable partition of its parent's order, which is its own stable sort, and a
node searches its features in blocks of about `_BLOCK` (feature, row) cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericError
from .linear import sigmoid
from .tabular import RngStream, check_finite, round_half_up


class Tree(NamedTuple):
    """One tree's nodes in pre-order, root first. Internal node i goes left iff
    `x[feature[i]] <= threshold[i]`; its left child is node i + 1 and its right
    child node `right[i]`. A leaf has feature and right -1."""

    feature: np.ndarray  # int64
    threshold: np.ndarray
    right: np.ndarray  # int64
    value: np.ndarray  # leaf payload: class-1 share / boosted weight; 0 at internal nodes
    n: np.ndarray  # int64 training rows at the node
    mean: np.ndarray  # training-mean prediction at the node
    counts: np.ndarray | None  # classification trees: (nodes, 2) class counts


def grow_tree(root, node) -> Tree:
    """Builds one tree depth first, left subtree before right, from `root`.

    `node(item, depth)` gives one node as (n, value, mean, counts, split):
    split is None at a leaf, else (feature, threshold, left item, right item).
    Items are a node's training rows (for boosting, with their order per
    feature) when a tree is fitted and its document when one is loaded. A
    mean of None is filled from the children's as
    `(nl * mean_l + nr * mean_r) / (nl + nr)`."""
    nodes, stack = [], [(root, 0, -1)]  # stack: item, depth, the node whose right child it is
    while stack:
        item, depth, parent = stack.pop()
        if parent >= 0:
            nodes[parent][2] = len(nodes)
        n, value, mean, counts, split = node(item, depth)
        if split is None:
            nodes.append([-1, 0.0, -1, value, n, mean, counts])  # Tree's fields, in order
        else:
            feature, threshold, left, right = split
            nodes.append([feature, threshold, -1, 0.0, n, mean, counts])
            stack += [(right, depth + 1, len(nodes) - 1), (left, depth + 1, -1)]
    for i in reversed(range(len(nodes))):  # children come after their parent
        if nodes[i][5] is None:
            (nl, ml), (nr, mr) = nodes[i + 1][4:6], nodes[nodes[i][2]][4:6]
            nodes[i][5] = (nl * ml + nr * mr) / (nl + nr)
    columns = zip(zip(*nodes), (np.int64, np.float64, np.int64, np.float64, np.int64, np.float64))
    return Tree(*(np.array(c, dtype=t) for c, t in columns),
                None if nodes[0][6] is None else np.array([row[6] for row in nodes], dtype=np.float64))


def _partition(column, idx, f, thr):
    """A split that sends the rows `idx` with `column <= thr` left."""
    mask = column <= thr
    return int(f), thr, idx[mask], idx[~mask]


# Pairs of (tree, row) walked together, or (feature, row) cells searched
# together, in one block. Larger blocks fall out of cache; small ones keep the
# temporaries a fixed size at any row count.
_BLOCK = 1 << 14


def _concat(trees, name, dtype):
    return np.concatenate([np.empty(0, dtype)] + [getattr(t, name) for t in trees])


class _FlatForest:
    """One node table holding every tree of an ensemble, for batch prediction:
    the trees' arrays end to end, tree t from node `starts[t]`. Node i tests
    `x[feature[i]] <= threshold[i]`; its right child is `children[2i]` and its
    left child `children[2i + 1]`. A leaf tests feature 0 and points both slots
    at itself, so a walk needs no leaf test: one level is
    `pos = children[2 pos + (x[feature[pos]] <= threshold[pos])]` for all
    (tree, row) pairs at once, and NaN goes right because `NaN <= t` is false.
    `leaf_value(tree, depth)` gives a tree's leaf values from its arrays and
    node depths. Trees are numbered in walk order, deepest first, and pairs
    come in that order, so the pairs still walking at a level are a prefix.
    Leaf values are then summed per row in tree order, the order of a loop of
    `total += tree value` over the trees."""

    def __init__(self, trees, leaf_value):
        sizes = np.array([len(t.feature) for t in trees], dtype=np.int64)
        self.starts = np.cumsum(sizes) - sizes
        feature = _concat(trees, "feature", np.int64)
        node, leaf = np.arange(len(feature)), feature < 0
        right = _concat(trees, "right", np.int64) + np.repeat(self.starts, sizes)
        self.feature = np.where(leaf, 0, feature)
        self.threshold = _concat(trees, "threshold", np.float64)
        self.children = np.column_stack([np.where(leaf, node, right), np.where(leaf, node, node + 1)]).ravel()
        depth, level = np.zeros(len(node), dtype=np.int64), self.starts
        while len(level):
            level = level[~leaf.take(level)]
            kids = self.children.reshape(-1, 2)[level]
            depth[kids] = depth[level, None] + 1
            level = kids.ravel()
        values = [leaf_value(t, depth[s : s + len(t.feature)]) for t, s in zip(trees, self.starts)]
        self.value = np.concatenate([np.empty(0)] + values)
        self.depths = np.maximum.reduceat(depth, self.starts)
        self.order = np.argsort(-self.depths, kind="stable")  # walk order: deepest first
        self.roots = self.starts[self.order]
        # walking[k]: trees in walk order still above their deepest leaf at level k
        self.walking = (self.depths[:, None] > np.arange(self.depths.max(initial=0))).sum(axis=0)
        # the smallest unsigned type that holds a leaf's offset within its tree
        self.offset_type = np.min_scalar_type(int(sizes.max(initial=1)) - 1)

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

    A pair's path depends only on its own row, and a column moves it only if
    the path tests that column. A call compares its matrix with X bytewise: a
    row whose bytes are all equal keeps its remembered leaves and sum, the
    bytes a fresh walk would give. It flags the nodes below a test of a column
    in which the matrix differs, and re-walks only the moved rows, by spans
    holding about `_BLOCK` such pairs: every moved row of a tree whose root is
    such a test, and elsewhere the moved rows' pairs whose leaf is flagged.
    Only their rows are summed again, in tree order, so a call gives the bytes
    of `finish(flat.predict(matrix, init, scale))`. A permuted binary column
    with a share p of ones moves only about 2p(1 - p) of the rows.
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
        f, d, flat = self.flat, X.shape[1], X.ravel()
        internal = f.children[1::2] != np.arange(len(f.feature))
        differs = X.view(np.uint64) != self.X.view(np.uint64)  # bytewise: -0.0 is not 0.0
        changed, moved = differs.any(axis=0), np.flatnonzero(differs.any(axis=1))  # columns; rows to re-walk
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
        while r0 < len(moved) and len(whole) + len(some):
            rows = moved[r0 : r0 + span]
            leaf, touched = self.leaf.take(rows, axis=1), np.full(len(rows), len(whole) > 0)
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
                pos = f.walk(flat, f.roots.take(tree), rows.take(row) * d, np.searchsorted(tree, f.walking))
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


def _stable_order(c):
    """`np.argsort(c, kind="stable")`. numpy radix-sorts keys of 16 bits or
    fewer only, so 32-bit codes take two stable 16-bit passes, the low half and
    then the high half (an LSD radix sort): the same permutation, ties
    included."""
    if c.dtype != np.uint32:
        return np.argsort(c, kind="stable")
    low = np.argsort((c & 0xFFFF).astype(np.uint16), kind="stable")
    return low.take(np.argsort((c.take(low) >> 16).astype(np.uint16), kind="stable"))


def _sorted_cuts(ci):
    """Stable order of one node's codes, and the positions in that order after
    which the value changes."""
    order = _stable_order(ci)
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


def _gini_node(Xc, codes, y, config, m, choice, idx, depth):
    """A random-forest node: class counts, and a Gini split over `m` features
    drawn by `choice` unless the node is pure, at max_depth or below
    min_samples_split rows."""
    yi = y[idx]
    counts = np.array([float((yi == 0).sum()), float((yi == 1).sum())])
    share, split = counts[1] / len(idx), None
    if counts[0] and counts[1] and depth < config.max_depth and len(idx) >= config.min_samples_split:
        best = _gini_best_split(Xc, codes, y, idx, choice(len(codes), size=m, replace=False))
        if best is not None:
            split = _partition(Xc[best[0]].take(idx), idx, *best[:2])
    return len(idx), share, share, counts, split


@dataclass
class RandomForestModel(TreeEnsemble):
    trees: list
    n_features: int
    config: ForestConfig
    _flat: _FlatForest | None = field(default=None, repr=False, compare=False)

    def _walk_parts(self):
        if self._flat is None:
            self._flat = _FlatForest(self.trees, lambda tree, depth: tree.counts[:, 1] / tree.counts.sum(axis=1))
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
    X = check_finite(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    if n < 2:
        raise DataError(f"need at least 2 rows, got {n}")
    if len(np.unique(y)) < 2:
        raise DataError("labels contain a single class; cannot fit a classifier")
    m = min(config.max_features or math.ceil(math.sqrt(d)), d)
    Xc, codes = _column_codes(X)
    trees = []
    for t in range(config.n_trees):
        tr = rng.child(f"tree/{t}")
        boot = tr.integers(0, n, size=n)
        trees.append(grow_tree(boot, partial(_gini_node, Xc, codes, y, config, m, tr.gen.choice)))
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


def _presort(codes, rows, ids):
    """Per feature f, `rows` in the stable order of their codes `codes[f]`, as
    a (features, rows) array of row ids of type `ids`."""
    S = np.empty((len(codes), len(rows)), ids)
    for f, c in enumerate(codes):
        S[f] = rows.take(_stable_order(c.take(rows)))
    return S


def _stable_split(S, side, left, right):
    """Each row of S split, in order, into its ids in `left` and those in
    `right`, through the per-row mask `side`. It works on about `_BLOCK`
    cells at a time: numpy copies a narrow index array to intp, and for a
    whole presort of a 10x run that copy would take 7 MB."""
    side[left], side[right] = True, False
    kids = np.empty((len(S), len(left)), S.dtype), np.empty((len(S), len(right)), S.dtype)
    step = max(1, _BLOCK // max(S.shape[1], 1))
    for f0 in range(0, len(S), step):
        block = S[f0 : f0 + step]
        goes = side.take(block)
        kids[0][f0 : f0 + step] = block[goes].reshape(len(block), -1)
        kids[1][f0 : f0 + step] = block[~goes].reshape(len(block), -1)
    return kids


def _boost_best_split(Xc, codes, g, h, idx, S, lam, gamma):
    """Maximum second-order gain split.

    gain = 1/2 [GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam)] - gamma,
    over midpoint thresholds; splits with gain <= 0 are refused, and so is a
    feature any of whose gains is NaN. `Xc` comes from `_column_codes`; `S[f]`
    is the node's rows `idx` in the stable order of feature f's values.
    Features are searched in blocks of about `_BLOCK` (feature, row) cells,
    all cuts of a block at once. The first maximum wins: the lower feature,
    then the lower threshold.
    """
    G = g[idx].sum()
    H = h[idx].sum()
    parent = G * G / (H + lam)
    m, best = S.shape[1], None
    step = max(1, _BLOCK // max(m, 1))  # features per block
    for f0 in range(0, len(S), step):
        block = S[f0 : f0 + step]
        sc = np.stack([codes[f0 + i].take(rows) for i, rows in enumerate(block)])  # sorted codes
        cut = np.zeros(block.shape, dtype=bool)
        np.not_equal(sc[:, :-1], sc[:, 1:], out=cut[:, :-1])
        at = np.flatnonzero(cut)  # the cells after which a feature's value changes
        if len(at) == 0:
            continue
        GL = np.cumsum(g.take(block), axis=1).ravel().take(at)
        HL = np.cumsum(h.take(block), axis=1).ravel().take(at)
        GR = G - GL
        HR = H - HL
        gain = 0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - parent) - gamma
        nan = np.isnan(gain)
        if nan.any():
            refused = np.zeros(len(block), dtype=bool)
            refused[at[nan] // m] = True
            gain[refused.take(at // m)] = -np.inf
        j = int(np.argmax(gain))
        if gain[j] > 0.0 and (best is None or gain[j] > best[2]):
            i, pos = divmod(int(at[j]), m)
            thr = (Xc[f0 + i, block[i, pos]] + Xc[f0 + i, block[i, pos + 1]]) / 2.0
            best = (f0 + i, float(thr), float(gain[j]))
    return best


def _boost_leaf(tree, depth):
    return tree.value


def _newton_node(Xc, codes, g, h, config, side, item, depth):
    """A boosted-tree node: the best second-order split above max_depth, else
    a leaf with Newton weight -G/(H+lam). An internal node's mean is filled
    from its children.

    `item` is (idx, S): the node's rows, in their order in the round's draw,
    and `S`, per feature those rows in the stable order of their values. A
    child's `S` is a stable partition of its parent's, which is the child's own
    stable sort because its rows keep their parent's order; children at
    max_depth are leaves and get None. `side` is a reusable per-row mask."""
    idx, S = item
    if depth < config.max_depth and len(idx) >= 2:
        best = _boost_best_split(Xc, codes, g, h, idx, S, config.lam, config.gamma)
        if best is not None:
            f, thr, left, right = _partition(Xc[best[0]].take(idx), idx, *best[:2])
            kids = None, None
            if depth + 1 < config.max_depth:
                kids = _stable_split(S, side, left, right)
            return len(idx), 0.0, None, None, (f, thr, (left, kids[0]), (right, kids[1]))
    value = float(-g[idx].sum() / (h[idx].sum() + config.lam))
    return len(idx), value, value, None, None


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
    X = check_finite(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if len(np.unique(y)) < 2:
        raise DataError("labels contain a single class; cannot fit a classifier")
    if validation is None:
        raise DataError("gradient boosting requires a validation split for early stopping")
    X_val, y_val = validation
    X_val = check_finite(np.asarray(X_val, dtype=np.float64), "X_val")
    y_val = np.asarray(y_val, dtype=np.float64)
    if X_val.shape[0] == 0:
        raise DataError("validation split is empty")
    if len(np.unique(y_val)) < 2:
        raise DataError("validation labels contain a single class")

    prior = min(max(float(y.mean()), 1e-6), 1.0 - 1e-6)
    base = math.log(prior / (1.0 - prior))
    margins = np.full(n, base)
    val_margins = np.full(X_val.shape[0], base)

    trees, val_losses, best_loss, best_round = [], [], math.inf, 0
    n_sub = max(1, round_half_up(n * config.subsample))
    Xc, codes = _column_codes(X)
    ids, side = np.min_scalar_type(n - 1), np.zeros(n, dtype=bool)
    for t in range(config.n_rounds):
        p = sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        rows = np.arange(n) if config.subsample >= 1.0 else rng.child(f"round/{t}").choice(n, size=n_sub, replace=False)
        tree = grow_tree((rows, _presort(codes, rows, ids)), partial(_newton_node, Xc, codes, g, h, config, side))
        trees.append(tree)
        step = _FlatForest([tree], _boost_leaf)
        margins = step.predict(X, margins, config.learning_rate)
        val_margins = step.predict(X_val, val_margins, config.learning_rate)
        loss = _logloss(y_val, sigmoid(val_margins))
        if not math.isfinite(loss):
            raise NumericError(f"non-finite validation loss at round {t + 1}")
        val_losses.append(loss)
        if loss < best_loss:
            best_loss, best_round = loss, t + 1
        elif (t + 1) - best_round >= config.early_stopping_rounds:
            break
    return GradientBoostingModel(base_score=base, trees=trees, best_iteration=best_round, n_features=X.shape[1],
                                 config=config, val_losses=val_losses)


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


def _isolation_node(X, limit, integers, uniform, idx, depth):
    """An isolation-tree node: below `limit` depth, a split of 2 or more rows
    on a feature drawn by `integers` among those that vary, at a threshold
    drawn by `uniform` between its extremes."""
    split = None
    if depth < limit and len(idx) > 1:
        rows = X[idx]
        lo, hi = rows.min(axis=0), rows.max(axis=0)
        candidates = np.flatnonzero(hi > lo)
        if len(candidates):
            f = int(candidates[integers(0, len(candidates))])
            split = _partition(rows[:, f], idx, f, float(uniform(lo[f], hi[f])))
    return len(idx), 0.0, 0.0, None, split


def _isolation_leaf(tree, depth):
    """A leaf's path length: its depth plus c(n) for the rows it holds."""
    return depth + np.array([average_path_length(k) for k in tree.n.tolist()])


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
            self._flat = _FlatForest(self.trees, _isolation_leaf)
        return self._flat, 0.0, 1.0, lambda total: np.power(2.0, -(total / len(self.trees)) / self.c_psi)


def fit_isolation_forest(X, n_trees: int = 100, psi: int = 256, rng: RngStream | None = None) -> IsolationForestModel:
    """Random-split trees on psi-subsamples, height-limited to ceil(log2 psi)."""
    rng = rng or RngStream(0, "iforest")
    X = check_finite(np.asarray(X, dtype=np.float64))
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
        trees.append(grow_tree(idx, partial(_isolation_node, X, limit, tr.gen.integers, tr.gen.uniform)))
    return IsolationForestModel(trees=trees, psi=psi, n_features=X.shape[1])


def iforest_score(model: IsolationForestModel, X) -> np.ndarray:
    """Anomaly scores 2^(-mean path length / c(psi)), in (0, 1)."""
    return model.scores(X)
