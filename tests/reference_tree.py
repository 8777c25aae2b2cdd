"""Exact per-node reference for the tree grower's split rule.

``reference_split`` searches one node on its own: per feature, the candidates
sv[lo] (1 - f) + sv[lo + 1] f at ranks lo + f = i (n - 1) / bins of the sorted
values sv, kept strictly inside (sv[0], sv[-1]) and leaving mls rows on both
sides, scored by their Gini decrease as an exact fraction. The first maximum
over features, then ascending thresholds, wins if it is positive.
``reference_tree`` grows a whole tree with it, one node at a time.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from dte import DecisionTree, TreeConfig


def gini(counts) -> Fraction:
    """Exact Gini impurity 1 - sum_c (n_c / n)**2 of a node's class counts."""
    counts = [int(c) for c in counts]
    n = sum(counts)
    return 1 - Fraction(sum(c * c for c in counts), n * n)


def reference_split(x, y0, k, mls, bins):
    """(feature, threshold, left class counts) of the node's best split, or None."""
    n, counts = len(y0), np.bincount(y0, minlength=k)
    if n < 2 * mls or np.count_nonzero(counts) < 2:
        return None
    parent, best = gini(counts), None
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        sv, sy = x[order, j], y0[order]
        cands = []
        for i in range(1, bins):
            pos = i * (n - 1) / bins
            lo = int(pos)
            f = pos - lo
            cands.append(sv[lo] * (1.0 - f) + sv[lo + 1] * f)
        for c in sorted(set(cands)):   # equal thresholds score alike; -0.0 saves as 0.0
            nl = int(np.searchsorted(sv, c))
            if not sv[0] < c < sv[-1] or nl < mls or n - nl < mls:
                continue
            left = np.bincount(sy[:nl], minlength=k)
            dec = parent - Fraction(nl, n) * gini(left) - Fraction(n - nl, n) * gini(counts - left)
            if best is None or dec > best[0]:
                best = (dec, j, c + 0.0, left)
    return best[1:] if best is not None and best[0] > 0 else None


def reference_tree(X, y, k: int, cfg: TreeConfig) -> DecisionTree:
    """The tree that reference_split grows on (X, y), node by node in pre-order."""
    X, y0 = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64) - 1
    feature, threshold, histogram = [], [], []
    stack = [(np.arange(len(y0)), 0)]   # (rows, depth); the left child pops first
    while stack:
        rows, depth = stack.pop()
        split = None
        if cfg.max_depth is None or depth < cfg.max_depth:
            split = reference_split(X[rows], y0[rows], k, cfg.min_leaf_size, cfg.num_bins)
        if split is None:
            feature.append(-1)
            histogram.append(np.bincount(y0[rows], minlength=k))
            continue
        j, t, _ = split
        feature.append(j)
        threshold.append(t)
        goes_left = X[rows, j] < t
        stack += [(rows[~goes_left], depth + 1), (rows[goes_left], depth + 1)]
    return DecisionTree(np.array(feature, dtype=np.int64), np.array(threshold, dtype=np.float64),
                        np.array(histogram, dtype=np.int64), X.shape[1], cfg)
