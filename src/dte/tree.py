"""CART-style classification tree with quantile-binned split search.

Split rule: at each node the candidate thresholds for a feature are the
boundaries of an equiprobable binning of that feature's values at the node
(at most num_bins - 1 of them), and the accepted split is the one with the
largest Gini impurity decrease, subject to both children holding at least
min_leaf_size rows and the decrease being strictly positive. Ties go to the
lowest threshold, then to the lowest feature index. Routing is
x[j] < threshold -> left, else right. A node is a leaf when it holds fewer
than 2 * min_leaf_size rows, is pure, or sits at max_depth.

Growth is level by level on presorted columns. Each feature is sorted once,
at the root, as in SLIQ (Mehta, Agrawal & Rissanen, 1996). Every node then
owns one segment of each feature's sorted list, and all nodes of a depth are
searched together in one vectorized pass over nodes x features x candidates,
like LightGBM's node-parallel split search (Ke et al., 2017). A split
partitions each list stably into the children's segments, so no node sorts
again, and a child that is already a leaf leaves the lists. Leaves are
numbered in pre-order once growth ends. The candidates, scores and
tie-breaks use the same floating-point arithmetic as a search over each
node's own sorted values, so growing node by node gives the same trees;
tests/test_tree_golden.py pins them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .data import Dataset


@dataclass(frozen=True)
class TreeConfig:
    min_leaf_size: int = 10
    num_bins: int = 30
    max_depth: int | None = None

    def __post_init__(self):
        if self.min_leaf_size < 1:
            raise ValueError("min_leaf_size must be >= 1")
        if self.num_bins < 2:
            raise ValueError("num_bins must be >= 2")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0 or None")

    def to_dict(self) -> dict:
        return {"min_leaf_size": self.min_leaf_size, "num_bins": self.num_bins,
                "max_depth": self.max_depth}

    @staticmethod
    def from_dict(d: dict) -> "TreeConfig":
        return TreeConfig(d["min_leaf_size"], d["num_bins"], d.get("max_depth"))


@dataclass
class SplitNode:
    feature: int
    threshold: float
    left: Union["SplitNode", "LeafNode", None] = None
    right: Union["SplitNode", "LeafNode", None] = None


@dataclass
class LeafNode:
    leaf_id: int
    histogram: np.ndarray          # class counts, index c-1 -> class c; rows are not kept

    @property
    def majority(self) -> int:
        """Majority class id; ties resolve to the smallest id."""
        return int(np.argmax(self.histogram)) + 1

    @property
    def size(self) -> int:
        return int(self.histogram.sum())


@dataclass
class DecisionTree:
    root: Union[SplitNode, LeafNode]
    leaves: list[LeafNode]         # position j holds the leaf with leaf_id j
    n_features: int
    n_classes: int
    config: TreeConfig

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def partition(self, X):
        """Yield (leaf, the ascending rows of X routed to it) for each leaf X reaches."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got shape {X.shape}")
        if X.size and not np.all(np.isfinite(X)):
            raise ValueError("inputs must be finite")
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if isinstance(node, LeafNode):
                yield node, idx
            else:
                goes_left = X[idx, node.feature] < node.threshold
                stack.append((node.left, idx[goes_left]))
                stack.append((node.right, idx[~goes_left]))

    def apply(self, X) -> np.ndarray | int:
        """Leaf id reached by each row of X (or by a single vector)."""
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        out = np.empty(X.shape[:1], dtype=np.int64)  # partition rejects X unless 2-D
        for leaf, rows in self.partition(X):
            out[rows] = leaf.leaf_id
        return int(out[0]) if single else out

    def predict(self, X) -> np.ndarray | int:
        """Majority-class label of the reached leaf."""
        ids = self.apply(X)
        majorities = np.array([leaf.majority for leaf in self.leaves], dtype=np.int64)
        if np.isscalar(ids) or np.ndim(ids) == 0:
            return int(majorities[ids])
        return majorities[ids]

    def to_dict(self) -> dict:
        def node_dict(node):
            if isinstance(node, LeafNode):
                return {"leaf_id": node.leaf_id, "histogram": node.histogram.tolist()}
            return {"feature": node.feature, "threshold": node.threshold,
                    "left": node_dict(node.left), "right": node_dict(node.right)}
        return {"n_features": self.n_features, "n_classes": self.n_classes,
                "config": self.config.to_dict(), "root": node_dict(self.root)}

    @staticmethod
    def from_dict(d: dict) -> "DecisionTree":
        leaves: list[LeafNode] = []

        def build(nd):
            if "leaf_id" in nd:
                leaf = LeafNode(nd["leaf_id"], np.asarray(nd["histogram"], dtype=np.int64))
                leaves.append(leaf)
                return leaf
            return SplitNode(nd["feature"], nd["threshold"],
                             build(nd["left"]), build(nd["right"]))

        root = build(d["root"])
        leaves.sort(key=lambda lf: lf.leaf_id)
        if [lf.leaf_id for lf in leaves] != list(range(len(leaves))):
            raise ValueError("leaf ids must be 0..m-1 without gaps")
        return DecisionTree(root, leaves, d["n_features"], d["n_classes"],
                            TreeConfig.from_dict(d["config"]))


def fit_tree(ds: Dataset, cfg: TreeConfig = TreeConfig()) -> DecisionTree:
    """Fit a classification tree on the dataset. Deterministic given (ds, cfg)."""
    return fit_tree_arrays(ds.features, ds.labels, ds.n_classes, cfg)


def fit_tree_arrays(X: np.ndarray, y: np.ndarray, n_classes: int,
                    cfg: TreeConfig = TreeConfig()) -> DecisionTree:
    """Fit on raw arrays; used for bootstrap resamples that may miss classes."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y0 = np.asarray(y, dtype=np.int64) - 1
    n, p = X.shape
    sizes = np.array([n])
    counts = np.bincount(y0, minlength=n_classes)[None, :]
    gini, searched = _search_runs(sizes, counts, 0, cfg)
    if not searched[0] or p == 0:
        leaf = LeafNode(0, counts[0])
        return DecisionTree(leaf, [leaf], p, n_classes, cfg)
    col = _Columns(X, y0, n_classes)

    holder = SplitNode(-1, 0.0)  # sentinel; its .left becomes the root
    targets = [(holder, "left")]  # where each node of the level attaches
    # Row j of `lists` holds, for each node of the level, the node's rows in
    # feature j's order, as positions in the presorted columns; node v owns
    # entries starts[v] .. starts[v] + sizes[v] - 1 of every row.
    lists = np.arange(p * n).reshape(p, n)
    starts = np.zeros(1, dtype=np.int64)
    depth = 0
    while targets:
        feat, thr, left_n, left_counts = _best_splits(col, lists, starts, sizes, counts, gini, cfg)
        split = np.flatnonzero(feat >= 0)
        stay = np.flatnonzero(feat < 0)
        # + 0.0 saves a -0.0 threshold as 0.0, which routes the same, so the
        # bytes do not depend on the order of tied -0.0 and 0.0 values
        nodes = [SplitNode(int(feat[v]), float(thr[v]) + 0.0) for v in split]
        for v, node in zip(split, nodes):
            setattr(*targets[v], node)

        # children: the lefts of the split nodes in node order, then the rights
        width = lists.shape[1]
        seg = feat[split] * width + starts[split]   # each split node's list on its feature
        child_start = np.concatenate([seg, seg + left_n[split]])
        child_sizes = np.concatenate([left_n[split], sizes[split] - left_n[split]])
        child_counts = np.concatenate([left_counts[split], counts[split] - left_counts[split]])
        child_gini, keep = _search_runs(child_sizes, child_counts, depth + 1, cfg)
        child_targets = [(node, "left") for node in nodes] + [(node, "right") for node in nodes]

        # children that stop, and searched nodes that found no split, become leaves
        drop = np.flatnonzero(~keep)
        leaf_targets = [child_targets[c] for c in drop] + [targets[v] for v in stay]
        leaf_counts = np.concatenate([child_counts[drop], counts[stay]])
        for target, hist in zip(leaf_targets, leaf_counts):
            setattr(*target, LeafNode(-1, hist))  # numbered once growth ends

        # stable partition of every row of `lists` into the kept children's entries
        kept = np.flatnonzero(keep)
        side = np.zeros(n, dtype=np.int8)  # 1: row goes to a kept left child, 2: kept right
        side[col.rows(lists, child_start[kept], child_sizes[kept])] = np.repeat(
            np.where(kept < len(split), 1, 2).astype(np.int8), child_sizes[kept])
        flat = lists.ravel()
        side_at = side[col.row_at[flat]]
        lists = np.concatenate([np.compress(side_at == 1, flat).reshape(p, -1),
                                np.compress(side_at == 2, flat).reshape(p, -1)], axis=1)
        targets = [child_targets[c] for c in kept]
        sizes, counts, gini = child_sizes[kept], child_counts[kept], child_gini[kept]
        starts = np.cumsum(sizes) - sizes
        depth += 1

    return DecisionTree(holder.left, _number_leaves(holder.left), p, n_classes, cfg)


class _Columns:
    """The training columns, each sorted once.

    Position j * n + q names the q-th smallest row of feature j: `row_at`
    gives that row, `val` its value, `key` the pair (j, value), so one
    searchsorted places values of any feature, and `word` its class packed
    as a digit in base n + 1, so one prefix sum counts several classes.
    Equal values may come in any order: the search reads only values and
    counts, so the tree does not depend on it.
    """

    def __init__(self, X, y0, n_classes):
        n, p = X.shape
        XT = X.T.copy()
        self.row_at = np.argsort(XT, axis=1).ravel()
        self.key = np.empty(p * n, dtype=np.complex128)
        self.key.real = np.repeat(np.arange(p), n)
        self.key.imag = XT.ravel()[self.row_at + np.repeat(np.arange(p) * n, n)]
        self.val = self.key.imag
        self.n = n
        self.base = n + 1
        self.digits = 1          # classes per int64 word: n * base**(digits-1) < 2**63
        while n * self.base ** self.digits < 2 ** 63 and self.digits < n_classes:
            self.digits += 1
        cls = np.arange(n_classes)
        power = np.array([self.base ** d for d in range(self.digits)])[cls % self.digits]
        self.word = [np.where(cls // self.digits == w, power, 0)[y0][self.row_at]
                     for w in range(-(-n_classes // self.digits))]

    def rows(self, lists, starts, lengths):
        """Training rows at entries starts[i] .. starts[i] + lengths[i] - 1 of `lists`."""
        ends = np.cumsum(lengths)
        at = np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - lengths), lengths)
        return self.row_at[lists.ravel()[at]]

    def class_counts(self, lists, begin, end, n_classes):
        """Class counts of entries begin[i] .. end[i] - 1 of `lists` (one row each)."""
        p, width = lists.shape
        prefix = np.zeros((p, width + 1), dtype=np.int64)
        row = begin // width
        b, e = begin + row, end + row    # positions in `prefix`, one column wider
        out = np.empty((len(begin), n_classes), dtype=np.int64)
        for w, word in enumerate(self.word):
            np.cumsum(word[lists], axis=1, out=prefix[:, 1:])
            packed = prefix.ravel()[e] - prefix.ravel()[b]
            for c in range(w * self.digits, min(n_classes, (w + 1) * self.digits)):
                out[:, c] = packed // self.base ** (c % self.digits) % self.base
        return out


def _search_runs(sizes, counts, depth, cfg):
    """Gini impurity of each node, and whether its split search runs.

    It does unless the node is too small to hold two leaves, is at the
    depth cap, or is pure.
    """
    gini = 1.0 - ((counts / np.maximum(sizes, 1)[:, None]) ** 2).sum(axis=1)
    runs = (sizes >= 2 * cfg.min_leaf_size) & (gini != 0.0)
    if cfg.max_depth is not None and depth >= cfg.max_depth:
        runs[:] = False
    return gini, runs


def _best_splits(col, lists, starts, sizes, counts, gini, cfg):
    """Best split of every node of one level, searched together.

    Returns per node the feature (-1 when no split has a positive Gini
    decrease), the threshold, the left child's size and its class counts.
    Candidates and scores use the same arithmetic as a per-node search over
    the node's sorted values sv: boundaries sv[lo] (1 - f) + sv[lo + 1] f of
    an equiprobable binning at ranks lo + f = i (n - 1) / B, kept when
    strictly inside (sv[0], sv[-1]) and when both sides hold min_leaf_size
    rows. The largest decrease wins; ties go to the lowest feature, then to
    the lowest threshold.
    """
    m, (p, width) = len(sizes), lists.shape
    bins, k, mls = cfg.num_bins, counts.shape[1], cfg.min_leaf_size
    flat = lists.ravel()

    pos = np.arange(1, bins) * (sizes - 1)[:, None] / bins   # (m, B-1)
    lo = pos.astype(np.int64)
    frac = (pos - lo)[:, None, :]
    seg = starts[:, None] + np.arange(p) * width              # (m, p): node v's entries on feature j
    at = seg[:, :, None] + lo[:, None, :]                     # lo <= n - 2 as i < B
    below, above = col.val[flat[at]], col.val[flat[at + 1]]
    cand = below * (1.0 - frac) + above * frac
    cand.sort(axis=2)
    # below sv[-1]; above sv[0] follows from left_n >= min_leaf_size >= 1
    idx = np.flatnonzero(cand < col.val[flat[seg + (sizes - 1)[:, None]]][:, :, None])

    # left_n: rows of the node with a value below the candidate. The checks
    # read the node's values at the paired rank, so they hold for a sorted
    # candidate paired with a neighbour's rank too.
    node, j = idx // (p * (bins - 1)), idx // (bins - 1) % p
    c, a, b, at = cand.ravel()[idx], below.ravel()[idx], above.ravel()[idx], at.ravel()[idx]
    begin = j * width + starts[node]
    left_n = at - begin + 1                                   # a < c <= b
    hard = np.flatnonzero((c <= a) | (c > b))
    if hard.size:
        # c == a opening a's run: left_n = lo; otherwise search the node
        opens = (c[hard] == a[hard]) & (col.val[flat[at[hard] - 1]] < a[hard])
        left_n[hard[opens]] -= 1
        hard = hard[~opens]
    if hard.size:
        probe = np.empty(hard.size, dtype=np.complex128)
        probe.real, probe.imag = j[hard], c[hard]
        in_column = np.searchsorted(col.key, probe)           # j * n + rows of the column below c
        # (j, node, column position) sorts the level's entries; find c's place among them
        level = lists + (np.arange(p)[:, None] * (m - 1) + np.repeat(np.arange(m), sizes)) * col.n
        left_n[hard] = np.searchsorted(level.ravel(), in_column + (j[hard] * (m - 1)
                                                                  + node[hard]) * col.n) - begin[hard]
    # keep candidates leaving min_leaf_size rows on both sides, and of those
    # with equal left_n on one node and feature (equal scores) the lowest
    ok = (left_n >= mls) & (sizes[node] - left_n >= mls)
    ok[1:] &= (left_n[1:] != left_n[:-1]) | (begin[1:] != begin[:-1])
    idx, node, c, left_n, begin = idx[ok], node[ok], c[ok], left_n[ok], begin[ok]

    left_counts = col.class_counts(lists, begin, begin + left_n, k)
    right_counts = counts[node] - left_counts
    ln = left_n.astype(np.float64)
    nn = sizes[node].astype(np.float64)
    rn = nn - ln
    gini_l = 1.0 - ((left_counts / ln[:, None]) ** 2).sum(axis=1)
    gini_r = 1.0 - ((right_counts / rn[:, None]) ** 2).sum(axis=1)
    dec = gini[node] - (ln / nn) * gini_l - (rn / nn) * gini_r

    score = np.full((m, p * (bins - 1)), -np.inf)
    score.ravel()[idx] = dec
    best = score.argmax(axis=1)       # first maximum: lowest feature, then lowest threshold
    wins = score[np.arange(m), best] > 0.0
    pick = np.searchsorted(idx, best + np.arange(m) * p * (bins - 1))[wins]
    feat = np.full(m, -1, dtype=np.int64)
    feat[wins] = best[wins] // (bins - 1)
    thr, chosen_n, chosen_counts = np.zeros(m), np.zeros(m, np.int64), np.zeros((m, k), np.int64)
    thr[wins], chosen_n[wins], chosen_counts[wins] = c[pick], left_n[pick], left_counts[pick]
    return feat, thr, chosen_n, chosen_counts


def _number_leaves(root):
    """The leaves in pre-order, with leaf_id set to their position."""
    ordered = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, LeafNode):
            node.leaf_id = len(ordered)
            ordered.append(node)
        else:
            stack += [node.right, node.left]
    return ordered

