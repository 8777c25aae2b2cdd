"""CART-style classification tree with quantile-binned split search.

Split rule: at each node the candidate thresholds for a feature are the
boundaries of an equiprobable binning of that feature's values at the node
(at most num_bins - 1 of them), and the accepted split is the one with the
largest Gini impurity decrease, subject to both children holding at least
min_leaf_size rows and the decrease being strictly positive. Ties go to the
lowest threshold, then to the lowest feature index. Routing is
x[j] < threshold -> left, else right. A node is a leaf when it holds fewer
than 2 * min_leaf_size rows, is pure, or sits at max_depth.

Growth is level by level on presorted columns. Each feature's rows are
sorted once, at the root, as in SLIQ (Mehta, Agrawal & Rissanen, 1996), and a
level's lists hold, per feature, each node's row ids in that order. All nodes
of a depth are searched together in one vectorized pass over nodes x features
x candidates, like LightGBM's node-parallel split search (Ke et al., 2017); a
candidate on a run of tied values bisects its node's values. A split marks
each row's side in one n-entry array and partitions each list stably into the
children's segments, so no node sorts again, and a child that is already a
leaf leaves the lists. Leaves are numbered in pre-order once growth ends. The
candidates, scores and tie-breaks use the same floating-point arithmetic as a
search over each node's own sorted values, so growing node by node gives the
same trees; tests/test_tree_golden.py pins them.

The trees of several samples (the folds of a cross-validation) grow together:
their roots are just more nodes of each level. The rows of all roots of a
batch are sorted once, then partitioned stably by root, so each root owns its
own segment of every sorted column from the start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .data import Dataset, feature_rows


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


@dataclass(repr=False, eq=False)  # generated repr and == would recurse once per level
class SplitNode:
    feature: int
    threshold: float
    left: Union["SplitNode", "LeafNode", None] = None
    right: Union["SplitNode", "LeafNode", None] = None


@dataclass(eq=False)
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


@dataclass(eq=False)
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
        X = feature_rows(X, self.n_features)
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
        """The nodes in pre-order as flat lists, like scikit-learn's ``tree_``: ``feature``
        per node (-1 at a leaf), ``threshold`` per split and ``histogram`` per leaf."""
        feature, threshold, histogram = [], [], []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, LeafNode):
                feature.append(-1)
                histogram.append(node.histogram.tolist())
            else:
                feature.append(node.feature)
                threshold.append(node.threshold)
                stack += [node.right, node.left]
        return {"n_features": self.n_features, "n_classes": self.n_classes,
                "config": self.config.to_dict(), "feature": feature,
                "threshold": threshold, "histogram": histogram}

    @staticmethod
    def from_dict(d: dict) -> "DecisionTree":
        """Rebuild the nodes of ``to_dict``; rejects lists that are not exactly one tree."""
        p, k = d["n_features"], d["n_classes"]
        feature, threshold, histogram = (np.asarray(d[key]) for key in
                                         ("feature", "threshold", "histogram"))
        if feature.ndim != 1 or feature.dtype.kind != "i" or not np.all(
                (feature >= -1) & (feature < p)):
            raise ValueError(f"tree feature must be a list of -1 or 0..{p - 1}")
        m = int(np.count_nonzero(feature < 0))
        if feature.size != 2 * m - 1 or threshold.shape != (m - 1,) \
                or threshold.dtype.kind not in "if" or not np.all(np.isfinite(threshold)):
            raise ValueError("a tree of m leaves needs 2m - 1 nodes and m - 1 finite thresholds")
        if histogram.shape != (m, k) or histogram.dtype.kind != "i" or np.any(histogram < 0):
            raise ValueError(f"tree histogram must be {k} counts >= 0 per leaf")
        # built from the last node back, so a split's subtrees exist before it
        splits, counts = iter(threshold.tolist()[::-1]), iter(histogram[::-1])
        built, leaves = [], []   # subtrees awaiting a parent, the next left child last
        for f in reversed(feature.tolist()):
            if f < 0:
                leaves.append(LeafNode(m - 1 - len(leaves), next(counts)))
                built.append(leaves[-1])
            elif len(built) < 2:  # with 2m - 1 nodes, this is the only way to fail
                raise ValueError("tree lists are not the pre-order of one tree")
            else:
                built.append(SplitNode(f, next(splits), built.pop(), built.pop()))
        return DecisionTree(built[0], leaves[::-1], p, k, TreeConfig.from_dict(d["config"]))


def fit_tree(ds: Dataset, cfg: TreeConfig = TreeConfig()) -> DecisionTree:
    """Fit a classification tree on the dataset. Deterministic given (ds, cfg)."""
    return fit_tree_arrays(ds.features, ds.labels, ds.n_classes, cfg)


# Roots grown together hold at most this many entries per level, both in the
# level lists (p per row) and among the candidates (p * (num_bins - 1) per
# searched node, which has at least 2 * min_leaf_size rows). More roots per
# batch pay the fixed cost of a level's numpy calls fewer times; larger
# batches raise the peak memory. 2**16 grows breast_cancer's 455-row fold
# roots (~19.8k entries each) 3 to a batch; it is the largest power of two
# that holds the bundled-data cross-validation's peak RSS within 1 MiB of
# 2**14's, and larger budgets ran it no faster in a sweep (CHANGES.md).
_BATCH_ENTRIES = 1 << 16


def fit_tree_arrays(X: np.ndarray, y: np.ndarray, n_classes: int,
                    cfg: TreeConfig = TreeConfig()) -> DecisionTree:
    """Fit on raw arrays; used for bootstrap resamples that may miss classes."""
    return fit_trees_arrays(X, y, [slice(None)], n_classes, cfg)[0]


def fit_trees_arrays(X: np.ndarray, y: np.ndarray, samples, n_classes: int,
                     cfg: TreeConfig = TreeConfig()) -> list[DecisionTree]:
    """One tree per sample, each equal to ``fit_tree_arrays(X[s], y[s], ...)``.

    A sample is a row-index array into X (repeated rows allowed) or a slice.
    The roots are grown together, in batches of at most _BATCH_ENTRIES
    entries per level, as more nodes of each level.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y0 = np.asarray(y, dtype=np.int64) - 1
    p = X.shape[1]
    ys = [y0[s] for s in samples]
    sizes = np.array([v.size for v in ys], dtype=np.int64)
    counts = np.array([np.bincount(v, minlength=n_classes) for v in ys],
                      dtype=np.int64).reshape(len(ys), n_classes)
    gini, searched = _search_runs(sizes, counts, 0, cfg)
    per_row = p * max(1.0, (cfg.num_bins - 1) / (2 * cfg.min_leaf_size))  # worst case, per level
    trees, batches, total = [], [], np.inf
    for i, (size, runs) in enumerate(zip(sizes.tolist(), searched.tolist())):
        if not runs or p == 0:
            leaf = LeafNode(0, counts[i])
            trees.append(DecisionTree(leaf, [leaf], p, n_classes, cfg))
            continue
        trees.append(None)
        if total + size * per_row > _BATCH_ENTRIES:
            batches.append([])
            total = 0.0
        batches[-1].append(i)
        total += size * per_row
    ids = np.arange(len(y0))
    for batch in batches:
        rows = np.concatenate([ids[samples[i]] for i in batch])
        roots = _grow(X, y0, rows, sizes[batch], counts[batch], gini[batch], cfg)
        for i, root in zip(batch, roots):
            trees[i] = DecisionTree(root, _number_leaves(root), p, n_classes, cfg)
    return trees


def _grow(X, y0, rows, sizes, counts, gini, cfg):
    """The root nodes of trees grown level by level from roots whose search runs.

    Root r owns the rows rows[sizes[:r].sum():sizes[:r + 1].sum()] of (X, y0).
    """
    n, p = len(rows), X.shape[1]
    col = _Columns(X, y0, rows, counts.shape[1])
    holders = [SplitNode(-1, 0.0) for _ in sizes]  # sentinels; each .left becomes a root
    targets = [(holder, "left") for holder in holders]  # where each node of the level attaches
    # Row j of `lists` holds, for each node of the level, the node's training
    # rows in feature j's order; node v owns entries starts[v] .. starts[v] +
    # sizes[v] - 1 of every row.
    lists = col.sorted_rows(sizes)
    starts = sizes.cumsum() - sizes
    depth = 0
    while targets:
        feat, thr, left_n, left_counts = _best_splits(col, lists, starts, sizes, counts, gini, cfg)
        split = (feat >= 0).nonzero()[0]
        stay = (feat < 0).nonzero()[0]
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
        drop = (~keep).nonzero()[0]
        leaf_targets = [child_targets[c] for c in drop] + [targets[v] for v in stay]
        leaf_counts = np.concatenate([child_counts[drop], counts[stay]])
        for target, hist in zip(leaf_targets, leaf_counts):
            setattr(*target, LeafNode(-1, hist))  # numbered once growth ends

        # stable partition of every row of `lists` into the kept children's entries
        kept, flat = keep.nonzero()[0], lists.ravel()
        sizes, counts, gini = child_sizes[kept], child_counts[kept], child_gini[kept]
        starts = sizes.cumsum() - sizes
        at = np.arange(sizes.sum()) + (child_start[kept] - starts).repeat(sizes)
        side = np.zeros(n, dtype=np.int8)  # 1: row goes to a kept left child, 2: kept right
        side[flat[at]] = np.where(kept < len(split), 1, 2).astype(np.int8).repeat(sizes)
        side_at = side[flat]
        halves = [flat.compress(side_at == 1).reshape(p, -1),
                  flat.compress(side_at == 2).reshape(p, -1)]
        del lists, flat, side_at   # the level's lists go before the children's are joined
        lists = np.concatenate(halves, axis=1)
        del halves
        targets = [child_targets[c] for c in kept]
        depth += 1

    return [holder.left for holder in holders]


class _Columns:
    """The training columns of a batch and their classes, indexed by row id.

    Row id r is the batch's r-th row, X[rows[r]]. `val` is the batch's rows
    transposed and flattened, so row r's value of feature j is val[j * n + r]
    (`offset[j]` is j * n). `word` holds each row's class packed as a digit
    in base n + 1, so one prefix sum counts several classes.
    """

    def __init__(self, X, y0, rows, n_classes):
        self.val = X.T.take(rows, axis=1).ravel()
        n, p = len(rows), X.shape[1]
        self.offset = np.arange(p) * n
        self.base = n + 1
        self.digits = 1          # classes per int64 word: n * base**(digits-1) < 2**63
        while n * self.base ** self.digits < 2 ** 63 and self.digits < n_classes:
            self.digits += 1
        cls = np.arange(n_classes)
        power = np.array([self.base ** d for d in range(self.digits)])[cls % self.digits]
        self.word = [np.where(cls // self.digits == w, power, 0)[y0[rows]]
                     for w in range(-(-n_classes // self.digits))]

    def sorted_rows(self, root_sizes):
        """Row j lists the row ids from feature j's smallest value up, within one
        segment per root: root r owns the next root_sizes[r] row ids. Equal
        values may come in any order: the search reads only values and counts,
        so the tree does not depend on it."""
        order = np.argsort(self.val.reshape(len(self.offset), -1), axis=1)
        if len(root_sizes) > 1:
            # the smallest unsigned ids, which numpy's stable sort orders by radix
            root = np.repeat(np.arange(len(root_sizes), dtype=np.min_scalar_type(
                len(root_sizes) - 1)), root_sizes)
            order = np.take_along_axis(
                order, np.argsort(root[order], axis=1, kind="stable"), axis=1)
        return order

    def class_counts(self, lists, begin, end, n_classes):
        """Class counts of entries begin[i] .. end[i] - 1 of `lists` (one row each),
        each run holding at least one entry."""
        total = np.empty(lists.shape, dtype=np.int64)   # running counts along each row
        flat = total.ravel()
        first = begin % lists.shape[1] == 0             # no entry before the run in its row
        out = np.empty((len(begin), n_classes), dtype=np.int64)
        for w, word in enumerate(self.word):
            np.take(word, lists, out=total, mode="wrap")   # ids are in range; unbuffered
            total.cumsum(axis=1, out=total)
            packed = flat[end - 1] - np.where(first, 0, flat[begin - 1])
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
    off = col.offset[:, None]
    below, above = col.val[flat[at] + off], col.val[flat[at + 1] + off]
    cand = above * frac
    cand += below * (1.0 - frac)     # below (1 - f) + above f, one level-sized temporary
    cand.sort(axis=2)
    # below sv[-1]; above sv[0] follows from left_n >= min_leaf_size >= 1
    inside = cand < col.val[flat[seg + (sizes - 1)[:, None]] + col.offset][:, :, None]
    idx = inside.ravel().nonzero()[0]

    # left_n: rows of the node with a value below the candidate. The checks
    # read the node's values at the paired rank, so they hold for a sorted
    # candidate paired with a neighbour's rank too.
    node, j = idx // (p * (bins - 1)), idx // (bins - 1) % p
    c, a, b, at = cand.ravel()[idx], below.ravel()[idx], above.ravel()[idx], at.ravel()[idx]
    del cand, below, above, inside   # the level's candidate arrays, before the counts
    begin = j * width + starts[node]
    left_n = at - begin + 1                                   # a < c <= b
    hard = ((c <= a) | (c > b)).nonzero()[0]
    if hard.size:
        # c == a opening a's run: left_n = lo; otherwise search the node
        opens = (c[hard] == a[hard]) & (col.val[flat[at[hard] - 1] + col.offset[j[hard]]] < a[hard])
        left_n[hard[opens]] -= 1
        hard = hard[~opens]
    if hard.size:
        left_n[hard] = _count_below(col, flat, j[hard], begin[hard], sizes[node[hard]], c[hard])
    # keep candidates leaving min_leaf_size rows on both sides, and of those
    # with equal left_n on one node and feature (equal scores) the lowest
    ok = (left_n >= mls) & (sizes[node] - left_n >= mls)
    ok[1:] &= (left_n[1:] != left_n[:-1]) | (begin[1:] != begin[:-1])
    idx, node, c, left_n, begin = idx[ok], node[ok], c[ok], left_n[ok], begin[ok]
    del j, a, b, at

    left_counts = col.class_counts(lists, begin, begin + left_n, k)
    right_counts = counts[node] - left_counts
    ln = left_n.astype(np.float64)
    nn = sizes[node].astype(np.float64)
    rn = nn - ln
    gini_l = 1.0 - _sum_sq(left_counts / ln[:, None])
    gini_r = 1.0 - _sum_sq(right_counts / rn[:, None])
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


def _count_below(col, flat, j, begin, size, c):
    """How many of the entries begin .. begin + size - 1 of `flat` (a node's
    rows on feature j, ascending) hold a value below c, for c below the last.

    The last entry below c is found in as many halving steps as the largest
    node needs (in a batch, another root's nodes may be larger); a probe past
    the node is capped at its last entry, which c never takes.
    """
    pos, last, shift = begin - 1, begin + size - 1, col.offset[j]
    for step in 1 << np.arange(int(size.max()).bit_length())[::-1]:
        probe = np.minimum(pos + step, last)
        pos = np.where(col.val[flat[probe] + shift] < c, probe, pos)
    return pos + 1 - begin


def _sum_sq(q):
    """Row sums of q**2, bit for bit as .sum(axis=1), which adds in turn below 8 columns."""
    q = q * q
    return q.sum(axis=1) if q.shape[1] >= 8 else sum(q.T[1:], q.T[0])


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

