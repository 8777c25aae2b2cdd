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

from .data import Dataset, bootstrap, feature_rows
from .tree import DecisionTree, TreeConfig, fit_tree_arrays

@dataclass(frozen=True, eq=False)
class Embedding:
    """Anchor matrix, intercept, and the trees they came from.

    anchors[j] is the mean of the training rows its owning tree routes to
    leaf j; intercept[j] == -||anchors[j]||^2 / 2. Row blocks follow tree
    order, one row per leaf, so the leaf counts are read from the trees.
    """

    anchors: np.ndarray
    intercept: np.ndarray
    trees: tuple[DecisionTree, ...]

    def __post_init__(self):
        object.__setattr__(self, "anchors", np.asarray(self.anchors, dtype=np.float64))
        object.__setattr__(self, "intercept", np.asarray(self.intercept, dtype=np.float64))
        if self.anchors.ndim != 2 or self.intercept.shape != (self.anchors.shape[0],):
            raise ValueError("anchors must be (m, p) with one intercept per row")
        if sum(self.leaf_counts) != self.anchors.shape[0]:
            raise ValueError("leaf_counts must sum to the anchor count")
        if not np.all(np.isfinite(self.anchors)):
            raise ValueError("non-finite values in W")
        if any((tree.n_features, tree.n_classes) != (self.p, self.trees[0].n_classes)
               for tree in self.trees):
            raise ValueError(f"every tree must read W's {self.p} columns and share one class count")

    @property
    def m(self) -> int:
        return self.anchors.shape[0]

    @property
    def p(self) -> int:
        return self.anchors.shape[1]

    @property
    def leaf_counts(self) -> tuple[int, ...]:
        return tuple(tree.n_leaves for tree in self.trees)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def to_dict(self) -> dict:
        """The anchors and the trees; `from_dict` derives the intercept and leaf counts."""
        return {"W": self.anchors.tolist(), "trees": [tree.to_dict() for tree in self.trees]}

    @staticmethod
    def from_dict(d: dict) -> "Embedding":
        anchors = np.asarray(d["W"], dtype=np.float64)
        trees = tuple(DecisionTree.from_dict(t) for t in d["trees"])
        return Embedding(anchors, anchor_intercept(anchors), trees)


def _leaf_means_arrays(X: np.ndarray, tree: DecisionTree) -> np.ndarray:
    """The mean of the rows of X that the tree routes to each leaf.

    Each leaf's sum starts at 0.0 and adds its rows in ascending order, as
    numpy's X[rows].mean(axis=0) does for two or more columns, so those
    means are equal bit for bit (numpy sums a single column pairwise).
    """
    leaf = tree.apply(X)
    counts = np.bincount(leaf, minlength=tree.n_leaves)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ValueError(f"leaf {empty[0]} received no rows; was the tree fitted on this data?")
    sums = np.zeros((tree.n_leaves, X.shape[1]))
    np.add.at(sums, leaf, X)
    return sums / counts[:, None]


def anchor_intercept(anchors: np.ndarray) -> np.ndarray:
    """Intercept vector -||anchor||^2 / 2 paired with an anchor matrix."""
    return -0.5 * (anchors ** 2).sum(axis=1)


def tree_samples(ds: Dataset, t: int, seed) -> list:
    """The rows each of t trees fits: all of ds's rows, then t - 1 bootstrap resamples."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if ds.n_classes < 2:
        raise ValueError("supervised fitting needs at least two classes")
    # the SeedSequence numpy makes of any seed it accepts (a SeedSequence is kept
    # as is); stateless per-tree streams keyed by its spawn key plus the tree
    # index, so repeated fits with the same seed object stay identical and
    # sibling seeds from SeedSequence.spawn draw different resamples
    root = np.random.default_rng(seed).bit_generator.seed_seq
    return [slice(None)] + [
        bootstrap(ds, np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, s)))
        for s in range(t - 1)]


def anchor_embedding(X: np.ndarray, samples, trees) -> Embedding:
    """The embedding whose anchor blocks, in tree order, are the leaf means of
    each tree over the rows X[s] of its sample s, which it was fitted on."""
    anchors = np.vstack([_leaf_means_arrays(X[rows], tree) for rows, tree in zip(samples, trees)])
    return Embedding(anchors, anchor_intercept(anchors), tuple(trees))


def fit_embedding(ds: Dataset, cfg: TreeConfig, t: int, seed) -> Embedding:
    """Fit the anchors: tree 1 on the data, trees 2..t on bootstrap resamples.

    Anchor blocks are concatenated in tree order; each bootstrap tree's leaf
    means are taken over its own resampled rows (duplicates counted with
    multiplicity). No row is embedded; `project` does that.
    """
    samples = tree_samples(ds, t, seed)
    trees = [fit_tree_arrays(ds.features[rows], ds.labels[rows], ds.n_classes, cfg)
             for rows in samples]
    return anchor_embedding(ds.features, samples, trees)


def dte_t(ds: Dataset, cfg: TreeConfig, t: int, seed):
    """The DTE-t map of the training rows: returns (Z, Embedding).

    Z embeds the original rows through all anchor blocks of
    `fit_embedding(ds, cfg, t, seed)`.
    """
    emb = fit_embedding(ds, cfg, t, seed)
    return project(emb, ds.features), emb


def project(emb: Embedding, X) -> np.ndarray:
    """Affine embedding X W^T + 1 b^T of new rows; no tree traversal."""
    return feature_rows(X, emb.p) @ emb.anchors.T + emb.intercept
