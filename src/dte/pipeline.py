"""End-to-end classifier (embedding + LDA) and the cross-validation harness."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, stratified_folds
# dte_t, project and fit_tree are unused here; perfbench/spans.py traces them as
# pipeline attributes
from .embed import (Embedding, anchor_embedding, dte_t, fit_embedding, project,  # noqa: F401
                    tree_samples)
from .lda import LdaModel, fit_lda, predict_lda
from .tree import TreeConfig, fit_tree, fit_trees_arrays  # noqa: F401


@dataclass(frozen=True, eq=False)
class DteClassifier:
    """Embedding plus the LDA rule, which acts on the input features x."""

    embedding: Embedding
    lda: LdaModel
    config: TreeConfig
    n_trees: int
    seed: object

    def __post_init__(self):
        if self.lda.dim != self.embedding.p:
            raise ValueError("LDA dimension must equal the embedding's feature count")
        if any(tree.n_classes != self.lda.n_classes for tree in self.embedding.trees):
            raise ValueError(f"LDA class count {self.lda.n_classes} must equal the trees' class count")
        if self.n_trees != self.embedding.n_trees:
            raise ValueError(f"n_trees {self.n_trees} must equal the embedding's "
                             f"{self.embedding.n_trees} trees")
        if any(tree.config != self.config for tree in self.embedding.trees):
            raise ValueError(f"every tree must be grown with the classifier's config {self.config}")


def fit(ds_train: Dataset, cfg: TreeConfig = TreeConfig(), t: int = 1, seed=0) -> DteClassifier:
    """Fit the anchors and the linear classifier (see _anchor_span_lda) on the training rows."""
    emb = fit_embedding(ds_train, cfg, t, seed)
    return DteClassifier(emb, _anchor_span_lda(emb, ds_train), cfg, t, seed)


def _anchor_span_lda(emb: Embedding, ds_train: Dataset) -> LdaModel:
    """The LDA rule on x that pseudoinverse LDA on Z = X W^T + b amounts to.

    That LDA is invariant under the affine map, so it equals LDA on x
    restricted to span(W), and Z is never formed. It is fitted on X Q, for
    Q an orthonormal basis of the anchor span (SVD of W, numpy's rank
    tolerance), and its means and pseudoinverse are lifted back to x.
    Directions outside the span keep a zero column of Q, so all-zero
    anchors leave a zero covariance and the rule falls back to the priors.
    """
    _, sv, vt = np.linalg.svd(emb.anchors, full_matrices=False)
    q = vt.T * (sv > sv[0] * max(emb.anchors.shape) * np.finfo(np.float64).eps)
    span = fit_lda(ds_train.features @ q, ds_train.labels)
    return LdaModel(span.means @ q.T, q @ span.cov_pinv @ q.T, span.log_priors)


def predict(clf: DteClassifier, X) -> np.ndarray:
    """Affine-only inference: the LDA rule on x, one (q, p) x (p, K) product."""
    return predict_lda(clf.lda, X)


@dataclass
class CvReport:
    """Per-fold error rates and timings for one method on one dataset.

    std_error is the sample standard deviation (ddof=1) across all
    replicates x folds fold errors. A fold's train_seconds is the method's
    own anchors and LDA plus t / t_max of the fold's shared time (its sample
    drawing and an equal share of its replicate's tree growth) when the
    method reads t of the t_max trees the fold grew for its call, so a
    method run alone is charged all of it. test_seconds is the wall-clock
    time of the fold's own predictions.
    """

    method: str
    errors: np.ndarray          # (replicates, folds)
    train_seconds: np.ndarray
    test_seconds: np.ndarray
    leaf_counts: np.ndarray     # embedding width (or tree leaves) per fit
    n: int
    p: int
    n_classes: int

    @property
    def mean_error(self) -> float:
        return float(self.errors.mean())

    @property
    def std_error(self) -> float:
        return float(self.errors.std(ddof=1)) if self.errors.size > 1 else 0.0

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "dataset": {"n": self.n, "p": self.p, "k": self.n_classes},
            "mean_error": self.mean_error,
            "std_error": self.std_error,
            "mean_train_seconds": float(self.train_seconds.mean()),
            "mean_test_seconds": float(self.test_seconds.mean()),
            "leaf_counts": self.leaf_counts.tolist(),
            "errors": self.errors.tolist(),
        }

    def rows(self, dataset_name: str):
        """Flat (dataset, method, replicate, fold, error, train_ms, test_ms) rows."""
        out = []
        for r in range(self.errors.shape[0]):
            for f in range(self.errors.shape[1]):
                out.append((dataset_name, self.method, r, f,
                            float(self.errors[r, f]),
                            float(self.train_seconds[r, f] * 1e3),
                            float(self.test_seconds[r, f] * 1e3)))
        return out


def _trees_read(name: str) -> int:
    """How many of a fold's trees a method reads: 1 for ``tree``, t for ``dte-<t>``
    with t in ASCII digits; case is ignored."""
    key = name.lower()
    digits = key[4:] if key.startswith("dte-") else ""
    t = 1 if key == "tree" else int(digits) if digits.isascii() and digits.isdigit() else 0
    if t < 1:
        raise ValueError(f"unknown method {name!r}; expected 'tree' or 'dte-<t>'")
    return t


def cross_validate(ds: Dataset, methods: Sequence[str], replicates: int = 10,
                   folds: int = 5, seed: int = 42,
                   cfg: TreeConfig = TreeConfig()) -> list[CvReport]:
    """Repeated stratified cross-validation on one shared fold plan,
    ``stratified_folds(ds, replicates, folds, seed)``.

    Every method sees the same train/test splits and the same per-fold
    derived seeds, so reports are identical under reordering or
    parallel execution. A fold grows its trees once for all methods: the
    first fits the fold's rows and tree s its bootstrap resample s, so
    ``tree`` reads the first and ``dte-<t>`` the first t (the default
    ``dte-1,dte-3,tree`` grows 3 per fold). A replicate's folds grow them
    together in one ``fit_trees_arrays`` call, each equal to the tree the
    fold's own fit grows. See CvReport for how the shared time is charged.
    """
    counts = [_trees_read(name) for name in methods]
    plan = stratified_folds(ds, replicates, folds, seed)
    if not counts:
        return []
    t_max = max(counts)
    plain = [name.lower() == "tree" for name in methods]
    errors, train_s, test_s = np.empty((3, len(methods), plan.replicates, plan.folds))
    widths = np.empty(errors.shape, dtype=np.int64)
    for r in range(plan.replicates):
        fits, tree_rows = [], []   # (train, fold seed, tree samples) per fold; rows of ds
        shared = np.empty(plan.folds)
        for f in range(plan.folds):
            rows = plan.train_rows(r, f)
            train = ds.subset(rows)
            fold_seed = np.random.SeedSequence([seed, r, f])
            t0 = time.perf_counter()
            # `tree` alone draws no resample, so it runs on one-class folds as fit_tree does
            samples = [slice(None)] if all(plain) else tree_samples(train, t_max, fold_seed)
            tree_rows += [rows[s] for s in samples]
            fits.append((train, fold_seed, samples))
            shared[f] = time.perf_counter() - t0
        t0 = time.perf_counter()
        trees = fit_trees_arrays(ds.features, ds.labels, tree_rows, ds.n_classes, cfg)
        shared += (time.perf_counter() - t0) / plan.folds
        for f, (train, fold_seed, samples) in enumerate(fits):
            test_rows = plan.test_rows(r, f)
            fold_trees = trees[f * t_max:(f + 1) * t_max]
            for i, t in enumerate(counts):
                t0 = time.perf_counter()
                if plain[i]:
                    model, widths[i, r, f] = fold_trees[0], fold_trees[0].n_leaves
                    t1 = time.perf_counter()
                    preds = model.predict(ds.features[test_rows])
                else:
                    emb = anchor_embedding(train.features, samples[:t], fold_trees[:t])
                    model = DteClassifier(emb, _anchor_span_lda(emb, train), cfg, t, fold_seed)
                    widths[i, r, f] = emb.m
                    t1 = time.perf_counter()
                    preds = predict(model, ds.features[test_rows])
                t2 = time.perf_counter()
                errors[i, r, f] = float(np.mean(preds != ds.labels[test_rows]))
                train_s[i, r, f] = t1 - t0 + shared[f] * t / t_max
                test_s[i, r, f] = t2 - t1
    return [CvReport(name, errors[i], train_s[i], test_s[i], widths[i], ds.n, ds.p, ds.n_classes)
            for i, name in enumerate(methods)]


def timing_sweep(generator: Callable[[int], Dataset], sizes: Sequence[int],
                 cfg: TreeConfig = TreeConfig(), t: int = 1, seed: int = 0):
    """Fit-and-predict wall times for ascending synthetic sample sizes.

    Returns one dict per size: {n, train_seconds, test_seconds, m}.
    """
    sizes = list(sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    rows = []
    for n in sizes:
        ds = generator(n)
        t0 = time.perf_counter()
        clf = fit(ds, cfg, t, seed)
        t1 = time.perf_counter()
        predict(clf, ds.features)
        t2 = time.perf_counter()
        rows.append({"n": n, "train_seconds": t1 - t0, "test_seconds": t2 - t1,
                     "m": clf.embedding.m})
    return rows
