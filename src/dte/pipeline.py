"""End-to-end classifier (embedding + LDA) and the cross-validation harness."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, FoldPlan, stratified_folds
# dte_t and project are unused here; perfbench/spans.py traces them as pipeline attributes
from .embed import Embedding, dte_t, fit_embedding, project  # noqa: F401
from .lda import LdaModel, fit_lda, predict_lda
from .tree import TreeConfig, fit_tree


@dataclass(frozen=True)
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


def fit(ds_train: Dataset, cfg: TreeConfig = TreeConfig(), t: int = 1, seed=0) -> DteClassifier:
    """Fit the anchors and the linear classifier on the training rows.

    Pseudoinverse LDA on Z = X W^T + b is invariant under that affine map,
    so it equals LDA on x restricted to span(W), and Z is never formed. It
    is fitted on X Q, for Q an orthonormal basis of the anchor span (SVD of
    W, numpy's rank tolerance), and its means and pseudoinverse are lifted
    back to x.
    Directions outside the span keep a zero column of Q, so all-zero
    anchors leave a zero covariance and the rule falls back to the priors.
    """
    emb = fit_embedding(ds_train, cfg, t, seed)
    _, sv, vt = np.linalg.svd(emb.anchors, full_matrices=False)
    q = vt.T * (sv > sv[0] * max(emb.anchors.shape) * np.finfo(np.float64).eps)
    span = fit_lda(ds_train.features @ q, ds_train.labels)
    lda = LdaModel(span.means @ q.T, q @ span.cov_pinv @ q.T, span.log_priors)
    return DteClassifier(emb, lda, cfg, t, seed)


def predict(clf: DteClassifier, X) -> np.ndarray:
    """Affine-only inference: the LDA rule on x, one (q, p) x (p, K) product."""
    return predict_lda(clf.lda, X)


@dataclass
class CvReport:
    """Per-fold error rates and timings for one method on one dataset.

    std_error is the sample standard deviation (ddof=1) across all
    replicates x folds fold errors.
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


def _method_runner(name: str, cfg: TreeConfig):
    """Map a method name to (fit, predict, width) callables."""
    key = name.lower()
    if key == "tree":
        def fit_fn(ds, seed):
            return fit_tree(ds, cfg)

        return fit_fn, lambda tree, X: tree.predict(X), lambda tree: tree.n_leaves
    if key.startswith("dte-"):
        try:
            t = int(key[4:])
        except ValueError:
            raise ValueError(f"unknown method {name!r}") from None
        if t < 1:
            raise ValueError(f"unknown method {name!r}")

        def fit_fn(ds, seed):
            return fit(ds, cfg, t, seed)

        return fit_fn, predict, lambda clf: clf.embedding.m
    raise ValueError(f"unknown method {name!r}; expected 'tree' or 'dte-<t>'")


def cross_validate(ds: Dataset, methods: Sequence[str], replicates: int = 10,
                   folds: int = 5, seed: int = 42,
                   cfg: TreeConfig = TreeConfig(),
                   plan: FoldPlan | None = None) -> list[CvReport]:
    """Repeated stratified cross-validation with one shared fold plan.

    Every method sees the same train/test splits and the same per-fold
    derived seeds, so reports are identical under reordering or
    parallel execution; timings are wall-clock per fold.
    """
    if plan is None:
        plan = stratified_folds(ds, replicates, folds, seed)
    reports = []
    for name in methods:
        fit_fn, predict_fn, width_fn = _method_runner(name, cfg)
        errors = np.empty((plan.replicates, plan.folds))
        train_s = np.empty_like(errors)
        test_s = np.empty_like(errors)
        widths = np.empty((plan.replicates, plan.folds), dtype=np.int64)
        for r in range(plan.replicates):
            for f in range(plan.folds):
                train = ds.subset(plan.train_rows(r, f))
                test_rows = plan.test_rows(r, f)
                fold_seed = np.random.SeedSequence([seed, r, f])
                t0 = time.perf_counter()
                model = fit_fn(train, fold_seed)
                t1 = time.perf_counter()
                preds = predict_fn(model, ds.features[test_rows])
                t2 = time.perf_counter()
                errors[r, f] = float(np.mean(preds != ds.labels[test_rows]))
                train_s[r, f] = t1 - t0
                test_s[r, f] = t2 - t1
                widths[r, f] = width_fn(model)
        reports.append(CvReport(name, errors, train_s, test_s, widths,
                                ds.n, ds.p, ds.n_classes))
    return reports


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
