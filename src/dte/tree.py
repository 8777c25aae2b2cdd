"""CART-style classification tree with quantile-binned split search.

Split rule: at each node the candidate thresholds for a feature are the
boundaries of an equiprobable binning of that feature's values at the node
(at most num_bins - 1 of them), and the accepted split is the one with the
largest Gini impurity decrease, subject to both children holding at least
min_leaf_size rows and the decrease being strictly positive. Ties go to the
lowest feature index, then to the lowest threshold. Routing is
x[j] < threshold -> left, else right. A node is a leaf when it holds fewer
than 2 * min_leaf_size rows, is pure, or sits at max_depth.

Growth is level by level on presorted columns. Each feature's rows are sorted
once, at the root, as in SLIQ (Mehta, Agrawal & Rissanen, 1996), and a level's
lists hold, per feature, each node's row ids in that order. All nodes of a
depth are searched together, like LightGBM's node-parallel split search (Ke et
al., 2017), on one grid of nodes x features x candidate ranks that the
candidates keep through scoring: a candidate on a run of tied values bisects
its node's values, class counts come class-major from one prefix sum per list
row, and a dead cell (outside its node's range, or leaving too few rows on a
side) scores -inf. Cells with equal left sizes on one node and feature score
the same bits, so the first maximum keeps the lowest threshold without a
dedupe. Each row carries the id of the node it is in, overwritten as the row
enters a child, and a row whose node stops keeps that id as its leaf. A split
reads each row's side from a table over node ids and partitions each list
stably into the children's segments, so no node sorts again, and a child that
is already a leaf leaves the lists. One walk over the recorded splits then
lays out each tree's pre-order lists (the model file's layout) and numbers its
leaves, so growth ends knowing each training row's leaf id. The candidates use
the same floating-point arithmetic as a search over each node's own sorted
values, and each cell's score is one division of exact integer sums of squared
class counts, so equal decreases tie exactly and growing node by node with
exact Gini decreases gives the same trees (provably so at nodes under about
2,300 rows, see _best_splits); tests/test_tree_golden.py pins them, taken from
such a grower (tests/reference_tree.py).

The trees of several samples (the folds of a cross-validation) grow together:
their roots are just more nodes of each level. Each root's rows are sorted on
their own, into the root's segment of every sorted column, so each root owns
its segment from the start.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .data import Dataset, feature_rows, json_numbers, json_object


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
        d = json_object(d, "tree config")
        mls, bins, depth = d["min_leaf_size"], d["num_bins"], d.get("max_depth")
        if not (type(mls) is int and type(bins) is int and (depth is None or type(depth) is int)):
            raise ValueError("tree config min_leaf_size and num_bins must be integers, "
                             "max_depth an integer or null")
        return TreeConfig(mls, bins, depth)


# The linked view that DecisionTree.root builds; perfbench/counts.py tree_stats walks it.
@dataclass(repr=False, eq=False)  # generated repr and == would recurse once per level
class SplitNode:
    feature: int
    threshold: float
    left: Union["SplitNode", "LeafNode"]
    right: Union["SplitNode", "LeafNode"]


# A leaf of DecisionTree.root's linked view; perfbench/counts.py tree_stats reads it.
@dataclass(eq=False)
class LeafNode:
    leaf_id: int
    histogram: np.ndarray          # class counts, index c-1 -> class c; rows are not kept


@dataclass(eq=False)
class DecisionTree:
    """A fitted tree as the pre-order lists of its model file, like scikit-learn's
    ``tree_``: ``feature`` per node (-1 at a leaf), ``threshold`` per split and
    ``histogram`` per leaf, a leaf's id being its position among the leaves. ``apply``
    and ``root`` (the only linked view) read ``_walk``'s per-node places and right children."""

    feature: np.ndarray            # int64, one per node in pre-order
    threshold: np.ndarray          # float64, one per split in pre-order
    histogram: np.ndarray          # int64 (leaves, n_classes); index c-1 -> class c
    n_features: int
    config: TreeConfig

    @property
    def n_leaves(self) -> int:
        return len(self.histogram)

    @property
    def n_classes(self) -> int:
        return self.histogram.shape[1]

    @property
    def root(self) -> Union[SplitNode, LeafNode]:
        """The tree as linked SplitNode and LeafNode objects, built from the last node back."""
        feature, threshold, right, place = self._walk
        built = [None] * len(feature)   # node i's subtree, built after its children's
        for i in range(len(feature) - 1, -1, -1):
            built[i] = (LeafNode(place[i], self.histogram[place[i]]) if feature[i] < 0 else
                        SplitNode(feature[i], threshold[place[i]], built[i + 1], built[right[i]]))
        return built[0]

    @cached_property
    def _walk(self) -> tuple[list, list, list, list]:
        """The feature and threshold lists, and per node its right child (0 at a leaf) and
        its place (a split's threshold index, a leaf's id), which apply and root read. From
        the last node back, the places count down and each split's left subtree has just closed."""
        feature = self.feature.tolist()
        right, place, ends = [0] * len(feature), [0] * len(feature), []   # ends of closed subtrees
        splits, leaves = len(self.threshold), self.n_leaves
        for i in range(len(feature) - 1, -1, -1):
            if feature[i] < 0:
                leaves -= 1
                place[i] = leaves
                ends.append(i + 1)
            else:   # its left subtree ends where its right child starts
                splits -= 1
                place[i] = splits
                right[i] = ends.pop()
        return feature, self.threshold.tolist(), right, place

    def apply(self, X) -> np.ndarray | int:
        """Leaf id reached by each row of X (or by a single vector), visiting
        only the nodes that some row reaches."""
        X = np.asarray(X, dtype=np.float64)
        rows = feature_rows(X[None, :] if X.ndim == 1 else X, self.n_features)
        feature, threshold, right, place = self._walk
        out = np.empty(rows.shape[0], dtype=np.int64)
        stack = [(0, np.arange(rows.shape[0]))]   # (node, rows); the left child pops first
        while stack:
            node, idx = stack.pop()
            if not idx.size:   # no row reaches the subtree
                continue
            f = feature[node]
            if f < 0:
                out[idx] = place[node]
            else:
                goes_left = rows[idx, f] < threshold[place[node]]
                stack += [(right[node], idx[~goes_left]), (node + 1, idx[goes_left])]
        return int(out[0]) if X.ndim == 1 else out

    def predict(self, X) -> np.ndarray | int:
        """Majority-class label of the reached leaf; ties resolve to the smallest id."""
        majority = (self.histogram.argmax(axis=1) + 1)[self.apply(X)]
        return int(majority) if np.ndim(majority) == 0 else majority

    def to_dict(self) -> dict:
        return {"n_features": self.n_features, "n_classes": self.n_classes,
                "config": self.config.to_dict(), "feature": self.feature.tolist(),
                "threshold": self.threshold.tolist(), "histogram": self.histogram.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "DecisionTree":
        """The tree of ``to_dict``'s lists; rejects lists that are not exactly one tree."""
        p, k = d["n_features"], d["n_classes"]
        if not (type(p) is int and p >= 1 and type(k) is int and k >= 1):
            raise ValueError("tree n_features and n_classes must be integers >= 1")
        feature, threshold, histogram = (json_numbers(d[key], integers=key != "threshold")
                                         for key in ("feature", "threshold", "histogram"))
        if feature is None or feature.ndim != 1 or not np.all((feature >= -1) & (feature < p)):
            raise ValueError(f"tree feature must be a list of -1 or 0..{p - 1}")
        m = int(np.count_nonzero(feature < 0))
        if threshold is None or feature.size != 2 * m - 1 or threshold.shape != (m - 1,) \
                or not np.all(np.isfinite(threshold)):
            raise ValueError("a tree of m leaves needs 2m - 1 nodes and m - 1 finite thresholds")
        if histogram is None or histogram.shape != (m, k) or np.any(histogram < 0):
            raise ValueError(f"tree histogram must be {k} counts >= 0 per leaf")
        # +1 per split and -1 per leaf: one tree's pre-order first sums below 0 at its last node
        if np.any(np.where(feature < 0, -1, 1).cumsum()[:-1] < 0):
            raise ValueError("tree lists are not the pre-order of one tree")
        return DecisionTree(feature, threshold, histogram, p, TreeConfig.from_dict(d["config"]))


def fit_tree(ds: Dataset, cfg: TreeConfig = TreeConfig()) -> DecisionTree:
    """Fit a classification tree on the dataset. Deterministic given (ds, cfg)."""
    return fit_tree_arrays(ds.features, ds.labels, ds.n_classes, cfg)


# Roots grown together hold at most this many entries per level, both in the
# level lists (p per row) and among the candidates (p * (num_bins - 1) per
# searched node, which has at least 2 * min_leaf_size rows). A level costs
# about 0.3 ms of numpy calls whatever its size, so more roots per batch grow
# in fewer levels; larger batches raise the peak memory. A sweep on a 2-vCPU
# x86-64 host, numpy 2.4: levels and in-process ms of perfbench cv-bundled's
# nine cross-validation calls (seed 7); the largest growth peak of the three
# 150-root fold sets of test_growth_peak_is_bounded_by_the_batch_budget
# (bound 4 MiB); cv-bundled's peak RSS, the median of 3 perfbench runs:
#
#   budget      levels   ms    growth peak   peak RSS
#   2^14          1397   979     1.14 MiB    43.4 MiB
#   2^16           508   704     1.93        44.9
#   2^17           279   663     3.45        46.3
#   17 * 2^13      244   642     3.57        46.5
#   9 * 2^14       244   645     3.75        46.6
#   5 * 2^15       220   639     4.26        46.9
#   2^18           145   635     6.10        50.0
#
# 2^17 is the largest that keeps that peak RSS within 1 MiB of the 45.5 MiB
# that int64 class counts read at 2^16 (CHANGES.md). pipeline.cross_validate
# also grows consecutive replicates in one call while their samples hold at
# most this many row ids.
_BATCH_ENTRIES = 1 << 17


def fit_tree_arrays(X: np.ndarray, y: np.ndarray, n_classes: int,
                    cfg: TreeConfig = TreeConfig(), leaf_ids: list | None = None) -> DecisionTree:
    """Fit one tree on raw arrays, whose rows may repeat and classes be missing;
    each tree of fit_embedding grows in one call here, where perfbench traces
    growth. A list passed as leaf_ids receives the leaf id of each row of X."""
    return fit_trees_arrays(X, y, [slice(None)], n_classes, cfg, leaf_ids)[0]


def fit_trees_arrays(X: np.ndarray, y: np.ndarray, samples, n_classes: int,
                     cfg: TreeConfig = TreeConfig(),
                     leaf_ids: list | None = None) -> list[DecisionTree]:
    """One tree per sample, each equal to ``fit_tree_arrays(X[s], y[s], ...)``.

    A sample is a row-index array into X (repeated rows allowed) or a slice.
    The roots are grown together, in batches of at most _BATCH_ENTRIES
    entries per level, as more nodes of each level. A list passed as
    leaf_ids receives, for each sample in turn, the leaf id of each of the
    sample's rows, as the grower placed them: ``tree.apply(X[s])``.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y0 = np.asarray(y, dtype=np.int64) - 1
    p = X.shape[1]
    counts = np.zeros((len(samples), n_classes), dtype=np.int64)
    for i, s in enumerate(samples):   # no sample's labels outlive its count
        counts[i] = np.bincount(y0[s], minlength=n_classes)
    sizes = counts.sum(axis=1)
    searched = _search_runs(sizes, counts, 0, cfg)
    per_row = p * max(1.0, (cfg.num_bins - 1) / (2 * cfg.min_leaf_size))  # worst case, per level
    trees, leaves, batches, total = [None] * len(samples), [None] * len(samples), [], np.inf
    for i, (size, runs) in enumerate(zip(sizes.tolist(), searched.tolist())):
        if not runs or p == 0:
            trees[i] = DecisionTree(np.array([-1]), np.empty(0), counts[i:i + 1], p, cfg)
            leaves[i] = np.zeros(size, dtype=np.int64)
            continue
        if total + size * per_row > _BATCH_ENTRIES:
            batches.append([])
            total = 0.0
        batches[-1].append(i)
        total += size * per_row
    ids = np.arange(len(y0))
    for batch in batches:
        grown = _grow(X, y0, np.concatenate([ids[samples[i]] for i in batch]),
                      sizes[batch], counts[batch], cfg)
        for i, (*lists, leaf) in zip(batch, grown):
            trees[i], leaves[i] = DecisionTree(*lists, p, cfg), leaf
    if leaf_ids is not None:
        leaf_ids += leaves
    return trees


def _grow(X, y0, rows, sizes, counts, cfg):
    """Trees grown level by level from roots whose search runs, as _lay_out yields them.

    Root r owns the rows rows[sizes[:r].sum():sizes[:r + 1].sum()] of (X, y0).
    """
    p = X.shape[1]
    col = _Columns(X, y0, rows, counts.shape[1])
    del rows   # the columns hold what growth reads of the batch's rows
    # Row j of `lists` holds, for each node of the level, the node's training
    # rows in feature j's order; node v owns entries starts[v] .. starts[v] +
    # sizes[v] - 1 of every row.
    lists = col.sorted_rows(sizes)
    starts = sizes.cumsum() - sizes
    # nodes are numbered as they are made, the roots first, so node_counts
    # holds their class counts in order; node_at holds the node each row id is in
    ids, n_nodes, root_sizes = np.arange(len(sizes)), len(sizes), sizes
    splits, node_counts, node_at = [], [counts], ids.repeat(sizes)
    depth = 0
    while ids.size:
        feat, thr, left_n, left_counts = _best_splits(col, lists, starts, sizes, counts, cfg)
        split = (feat >= 0).nonzero()[0]

        # children: the lefts of the split nodes in node order, then the rights
        child_ids = np.arange(n_nodes, n_nodes + 2 * len(split))
        n_nodes += child_ids.size
        # + 0.0 saves a -0.0 threshold as 0.0, which routes the same, so the
        # bytes do not depend on the order of tied -0.0 and 0.0 values
        splits.append((ids[split], feat[split], thr[split] + 0.0, child_ids.reshape(2, -1)))
        width = lists.shape[1]
        seg = feat[split] * width + starts[split]   # each split node's list on its feature
        child_start = np.concatenate([seg, seg + left_n[split]])
        child_sizes = np.concatenate([left_n[split], sizes[split] - left_n[split]])
        child_counts = np.concatenate([left_counts[split], counts[split] - left_counts[split]])
        node_counts.append(child_counts)
        keep = _search_runs(child_sizes, child_counts, depth + 1, cfg)

        # rows enter their child; a row whose node stops or finds no split keeps its id
        flat = lists.ravel()
        node_at[flat[_entries(child_start, child_sizes)]] = child_ids.repeat(child_sizes)

        # stable partition of every row of `lists` into the kept children's entries
        kept = keep.nonzero()[0]
        sizes, counts = child_sizes[kept], child_counts[kept]
        starts = sizes.cumsum() - sizes
        side = np.zeros(n_nodes, dtype=np.int8)  # 1: a kept left child, 2: a kept right
        side[child_ids[kept]] = np.where(kept < len(split), 1, 2)
        side_at = side[node_at][flat]   # per row id, then an int8 gather over the lists
        halves = [flat.compress(side_at == 1).reshape(p, -1),
                  flat.compress(side_at == 2).reshape(p, -1)]
        del lists, flat, side_at   # the level's lists go before the children's are joined
        lists = np.concatenate(halves, axis=1)
        del halves
        ids = child_ids[kept]
        depth += 1

    return _lay_out(splits, node_counts, np.split(node_at, root_sizes.cumsum()[:-1]))


def _lay_out(splits, node_counts, node_at):
    """Yields per root r (node r) its (feature, threshold, histogram) pre-order
    lists and its rows' leaf ids, node_at[r] naming their leaf nodes, from one
    walk over the recorded splits (node, feature, threshold, left over right children)."""
    node, feat, thr, kid = (np.concatenate(part, axis=-1) for part in zip(*splits))
    hist = np.concatenate(node_counts)
    feature, threshold = np.full(len(hist), -1, dtype=np.int64), np.zeros(len(hist))
    feature[node], threshold[node] = feat, thr
    kids = dict(zip(node.tolist(), kid[::-1].T.tolist()))   # right, then left: the left pops first
    leaf_id = np.empty(len(hist), dtype=np.int64)
    for root, at in enumerate(node_at):
        order, stack = [], [root]
        while stack:
            order.append(stack.pop())
            stack += kids.get(order[-1], ())
        order = np.array(order)
        f = feature[order]
        leaf = order[f < 0]
        leaf_id[leaf] = np.arange(leaf.size)
        yield f, threshold[order[f >= 0]], hist[leaf], leaf_id[at]


def _entries(begin, sizes):
    """The flat positions begin[i] .. begin[i] + sizes[i] - 1 of every run, in turn."""
    return np.arange(sizes.sum()) + (begin - (sizes.cumsum() - sizes)).repeat(sizes)


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
        val = self.val.reshape(len(self.offset), -1)
        order, ends = np.empty(val.shape, dtype=np.int64), root_sizes.cumsum()
        for begin, end in zip((ends - root_sizes).tolist(), ends.tolist()):
            np.add(np.argsort(val[:, begin:end], axis=1), begin, out=order[:, begin:end])
        return order

    def class_counts(self, lists, seg, left_n, n_classes):
        """Class-major counts (n_classes, m, p, B - 1) of the first left_n[v, j, r]
        entries of segment seg[v, j] of `lists` (node v's rows on feature j), in
        left_n's dtype; the counts of a cell whose left_n is 0 mean nothing.
        The running counts along each row go before the counts are unpacked."""
        total = np.empty(lists.shape, dtype=np.int64)   # running counts along each row
        flat = total.ravel()
        first = seg % lists.shape[1] == 0               # no entry before the segment in its row
        last = seg[:, :, None] + left_n
        last -= 1
        packed = []
        for word in self.word:
            np.take(word, lists, out=total, mode="wrap")   # ids are in range; unbuffered
            total.cumsum(axis=1, out=total)
            packed.append(flat[last])
            packed[-1] -= np.where(first, 0, flat[seg - 1])[:, :, None]
        del total, flat, last
        out = np.empty((n_classes,) + left_n.shape, dtype=left_n.dtype)
        for w, word in enumerate(packed):
            top = min(n_classes, (w + 1) * self.digits) - 1    # the word's last class
            for c in range(w * self.digits, top):
                np.divmod(word, self.base, out=(word, out[c]))
            out[top] = word
        return out


def _search_runs(sizes, counts, depth, cfg):
    """Whether each node's split search runs: it does unless the node is too
    small to hold two leaves, is at the depth cap, or is pure."""
    runs = (sizes >= 2 * cfg.min_leaf_size) & (np.count_nonzero(counts, axis=1) > 1)
    if cfg.max_depth is not None and depth >= cfg.max_depth:
        runs[:] = False
    return runs


def _best_splits(col, lists, starts, sizes, counts, cfg):
    """Best split of every node of one level, searched together.

    Returns per node the feature (-1 when no split has a positive Gini
    decrease), the threshold, the left child's size and its class counts.
    Candidates use the same arithmetic as a per-node search over the node's
    sorted values sv: boundaries sv[lo] (1 - f) + sv[lo + 1] f of an
    equiprobable binning at ranks lo + f = i (n - 1) / B, kept when strictly
    inside (sv[0], sv[-1]) and when both sides hold min_leaf_size rows.

    n times a cell's Gini decrease is Lsq / ln + Rsq / rn - Psq / n, where
    Lsq, Rsq and Psq are the sums of squared class counts of the left child
    (ln rows), the right child (rn rows) and the node, summed in int64. A
    cell scores the first two terms as one division, (Lsq rn + Rsq ln) /
    (ln rn), and the node splits on its best cell when that score beats
    Psq / n. The largest decrease wins; ties go to the lowest feature, then
    to the lowest threshold. The numerator's two products are formed as
    float64, so no node size overflows, and the scores are exact up to the
    one rounding of the division:
    - the numerator is an integer of at most n^3 / 4, so every product and
      sum is exact below 2^53 for nodes under about 3e5 rows, and there
      equal decreases score equal bits and the tie rule picks among them;
    - two different scores differ by at least 16 / n^4, so they cannot round
      to the same float at nodes under about 2,300 rows;
    - the split-or-leaf test compares numbers at least 4 / n^3 apart, so it
      is exact under about 11,000 rows.

    The candidates stay on one (node, feature, rank) grid of m x p x (B - 1)
    cells through scoring, sorted along the rank axis; a dead cell (outside
    the node's range, or leaving too few rows on a side) scores -inf. Cells
    with equal left sizes on one node and feature have equal class counts,
    so equal scores, and argmax's first maximum keeps the lowest of their
    thresholds without a dedupe.
    """
    m, (p, width) = len(sizes), lists.shape
    bins, k, mls = cfg.num_bins, counts.shape[1], cfg.min_leaf_size
    flat, val = lists.ravel(), col.val
    # left sizes and class counts, at most the largest node's size, take the
    # narrowest signed type that holds it
    small = np.min_scalar_type(-int(sizes.max()) - 1)

    pos = np.arange(1, bins) * (sizes - 1)[:, None] / bins   # (m, B-1)
    lo = pos.astype(np.int64)
    frac = (pos - lo)[:, None, :]
    seg = starts[:, None] + np.arange(p) * width              # (m, p): node v's entries on feature j
    at = seg[:, :, None] + lo[:, None, :]                     # lo <= n - 2 as i < B
    off = col.offset[:, None]
    below = val[flat[at] + off]
    at += 1
    above = val[flat[at] + off]
    del at
    cand = above * frac
    cand += below * (1.0 - frac)     # below (1 - f) + above f, one level-sized temporary
    cand.sort(axis=2)

    # left_n: rows of the node with a value below the candidate, lo + 1 when
    # below < cand <= above. These checks read the node's values at the paired
    # rank, so they hold for a sorted candidate paired with a neighbour's rank too.
    left_n = np.broadcast_to((lo + 1).astype(small)[:, None, :], cand.shape).copy()
    # below sv[-1]; above sv[0] follows from left_n >= min_leaf_size >= 1
    inside = cand < val[flat[seg + (sizes - 1)[:, None]] + col.offset][:, :, None]
    tied = cand <= below
    tied |= cand > above
    del above
    tied &= inside
    hard = tied.ravel().nonzero()[0]
    del tied
    c = cand.ravel()[hard]
    opens = c == below.ravel()[hard]
    del below
    pair = hard // (bins - 1)                                 # the cell's node * p + feature
    cells = left_n.ravel()
    # c equal to `below` opening that value's run (the value before rank lo =
    # cells - 1 is below c): left_n = lo; otherwise search the node. Each tie
    # array goes once read, and the search's own arrays hold its cells alone.
    opens &= val[flat[seg.ravel()[pair] + cells[hard] - 2] + col.offset[pair % p]] < c
    del c, pair
    cells[hard[opens]] -= 1
    rest = hard[~opens]
    del hard, opens
    if rest.size:
        pair = rest // (bins - 1)
        cells[rest] = _count_below(val, flat, col.offset[pair % p], seg.ravel()[pair],
                                   sizes[pair // p], cand.ravel()[rest])
        del rest, pair
    dead = np.logical_not(inside, out=inside)
    dead |= left_n < mls
    dead |= left_n > (sizes - mls)[:, None, None]
    np.maximum(left_n, 1, out=left_n)   # a dead cell may hold no row on the left

    left = col.class_counts(lists, seg, left_n, k)             # (k, m, p, B-1)
    psq = (counts * counts).sum(axis=1)
    lsq, rsq = np.zeros((2,) + left_n.shape, dtype=np.int64)   # Lsq; sum_c C_c l_c, then Rsq
    buf = np.empty(left_n.shape, dtype=np.int64)
    for c in range(k):
        lsq += np.square(left[c], out=buf, dtype=np.int64)
        rsq += np.multiply(left[c], counts[:, c, None, None], out=buf)
    rsq *= -2
    rsq += psq[:, None, None]
    rsq += lsq                                   # Rsq = Psq - 2 sum_c C_c l_c + Lsq
    # Lsq rn + Rsq ln: each term is an integer of at most 4 n^3 / 27, formed
    # in float64 in the int64 buffers that rsq and buf free; rn and the
    # denominator ln rn are exact in float64 too
    rsq_ln = np.multiply(rsq, left_n, dtype=np.float64, out=buf.view(np.float64))
    rn = np.subtract(sizes[:, None, None], left_n, dtype=np.float64,
                     out=rsq.view(np.float64))   # a dead cell's may be 0 or below
    den = np.multiply(rn, left_n)
    score = np.multiply(lsq, rn, out=rn)
    score += rsq_ln
    np.maximum(den, 1, out=den)
    score /= den
    del left_n, den
    score[dead] = -np.inf
    score = score.reshape(m, -1)
    best = score.argmax(axis=1)       # first maximum: lowest feature, then lowest threshold
    v = np.arange(m)
    wins = score[v, best] > psq / sizes   # a searched node holds rows
    j, r = np.divmod(best, bins - 1)
    feat = np.where(wins, j, -1)
    chosen = left[:, v, j, r].T.astype(np.int64)
    return feat, cand[v, j, r], chosen.sum(axis=1), chosen


def _count_below(val, flat, shift, begin, size, c):
    """How many of the entries begin .. begin + size - 1 of `flat` (a node's
    rows on one feature, ascending, whose values are val[row + shift]) hold a
    value below c, for c below the last.

    The last entry below c is found in as many halving steps as the largest
    node needs (in a batch, another root's nodes may be larger); a probe past
    the node is capped at its last entry, which c never takes.
    """
    pos, last = begin - 1, begin + size - 1
    for step in 1 << np.arange(int(size.max()).bit_length())[::-1]:
        probe = np.minimum(pos + step, last)
        pos = np.where(val[flat[probe] + shift] < c, probe, pos)
    return pos + 1 - begin
