"""Leaf-mean anchor embeddings.

A fitted tree routes the training rows to its leaves; the per-leaf sample
means become anchor rows of a matrix W with intercepts b_j = -||W_j||^2 / 2,
and inputs are embedded affinely as Z = X W^T + 1 b^T. The half-norm
intercept makes coordinate j order points by closeness to anchor j:
Z_j(x) - Z_k(x) = (||x-mu_k||^2 - ||x-mu_j||^2) / 2, so the largest
coordinate names the nearest anchor. (Downstream linear classification is
invariant to the intercept convention, which only shifts the embedded cloud
by a constant vector.) Ensembles concatenate the anchors of one tree fitted
on the data itself and t-1 trees fitted on bootstrap resamples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, bootstrap
from .tree import DecisionTree, TreeConfig, fit_tree_arrays

EMBEDDING_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Embedding:
    """Anchor matrix, intercept, and the trees they came from.

    anchors[j] is the mean of the training rows its owning tree routes to
    leaf j; intercept[j] == -||anchors[j]||^2 / 2. Column blocks follow tree
    order, with leaf_counts[s] columns for tree s.
    """

    anchors: np.ndarray
    intercept: np.ndarray
    leaf_counts: tuple[int, ...]
    trees: tuple[DecisionTree, ...]

    def __post_init__(self):
        object.__setattr__(self, "anchors", np.asarray(self.anchors, dtype=np.float64))
        object.__setattr__(self, "intercept", np.asarray(self.intercept, dtype=np.float64))
        if self.anchors.ndim != 2 or self.intercept.shape != (self.anchors.shape[0],):
            raise ValueError("anchors must be (m, p) with one intercept per row")
        if sum(self.leaf_counts) != self.anchors.shape[0]:
            raise ValueError("leaf_counts must sum to the anchor count")

    @property
    def m(self) -> int:
        return self.anchors.shape[0]

    @property
    def p(self) -> int:
        return self.anchors.shape[1]

    @property
    def n_trees(self) -> int:
        return len(self.leaf_counts)

    def to_dict(self) -> dict:
        return {
            "version": EMBEDDING_FORMAT_VERSION,
            "t": self.n_trees,
            "leaf_counts": list(self.leaf_counts),
            "W": self.anchors.tolist(),
            "b": self.intercept.tolist(),
            "trees": [tree.to_dict() for tree in self.trees],
        }

    @staticmethod
    def from_dict(d: dict) -> "Embedding":
        return Embedding(np.asarray(d["W"], dtype=np.float64),
                         np.asarray(d["b"], dtype=np.float64),
                         tuple(d["leaf_counts"]),
                         tuple(DecisionTree.from_dict(t) for t in d["trees"]))


def _leaf_means_arrays(X: np.ndarray, tree: DecisionTree) -> np.ndarray:
    means = {leaf.leaf_id: X[rows].mean(axis=0) for leaf, rows in tree.partition(X)}
    for j in range(tree.n_leaves):
        if j not in means:
            raise ValueError(f"leaf {j} received no rows; was the tree fitted on this data?")
    return np.array([means[j] for j in range(tree.n_leaves)])


def anchor_intercept(anchors: np.ndarray) -> np.ndarray:
    """Intercept vector -||anchor||^2 / 2 paired with an anchor matrix."""
    return -0.5 * (anchors ** 2).sum(axis=1)


def fit_embedding(ds: Dataset, cfg: TreeConfig, t: int, seed) -> Embedding:
    """Fit the anchors: tree 1 on the data, trees 2..t on bootstrap resamples.

    Anchor blocks are concatenated in tree order; each bootstrap tree's leaf
    means are taken over its own resampled rows (duplicates counted with
    multiplicity). No row is embedded; `project` does that.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if ds.n_classes < 2:
        raise ValueError("supervised fitting needs at least two classes")
    if isinstance(seed, np.random.SeedSequence):
        entropy, spawn_key = seed.entropy, tuple(seed.spawn_key)
    else:
        entropy, spawn_key = seed, ()
    # stateless per-tree streams keyed by the seed's own spawn key plus the
    # tree index, so repeated fits with the same seed object stay identical
    # and sibling seeds from SeedSequence.spawn draw different resamples
    samples = [slice(None)] + [
        bootstrap(ds, np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key + (s,))).indices
        for s in range(t - 1)]
    trees, anchor_blocks = [], []
    for rows in samples:
        X, y = ds.features[rows], ds.labels[rows]
        tree = fit_tree_arrays(X, y, ds.n_classes, cfg)
        trees.append(tree)
        anchor_blocks.append(_leaf_means_arrays(X, tree))

    anchors = np.vstack(anchor_blocks)
    return Embedding(anchors, anchor_intercept(anchors),
                     tuple(tree.n_leaves for tree in trees), tuple(trees))


def dte_t(ds: Dataset, cfg: TreeConfig, t: int, seed):
    """The DTE-t map of the training rows: returns (Z, Embedding).

    Z embeds the original rows through all anchor blocks of
    `fit_embedding(ds, cfg, t, seed)`.
    """
    emb = fit_embedding(ds, cfg, t, seed)
    return project(emb, ds.features), emb


def project(emb: Embedding, X) -> np.ndarray:
    """Affine embedding X W^T + 1 b^T of new rows; no tree traversal."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != emb.p:
        raise ValueError(f"expected (q, {emb.p}) inputs, got shape {X.shape}")
    if X.size and not np.all(np.isfinite(X)):
        raise ValueError("inputs must be finite")
    return X @ emb.anchors.T + emb.intercept
