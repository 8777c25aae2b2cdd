import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dte import (DteClassifier, TreeConfig, cross_validate, fit, fit_lda,
                 from_arrays, load_csv, predict, predict_lda, project, timing_sweep)
from dte.data import stratified_folds
from dte.oracle import sample_mixture, three_cluster_spec

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def blob_dataset(rng, n=80, k=2, spread=10.0, p=2):
    y = np.concatenate([np.full(n // k, c + 1) for c in range(k)])
    X = rng.normal(scale=spread, size=(k, p))[y - 1] + rng.normal(size=(n, p))
    return from_arrays(X, y)


def flip_intercept(emb):
    return dataclasses.replace(emb, intercept=-emb.intercept)


class TestFitPredict:
    def test_separable_blobs_have_zero_training_error(self, rng):
        ds = blob_dataset(rng)
        clf = fit(ds, TreeConfig(min_leaf_size=5))
        assert np.array_equal(predict(clf, ds.features), ds.labels)

    def test_composition_matches_module_oracles(self, iris):
        # the pipeline's rule on x equals pseudoinverse LDA fitted on the
        # embedded rows, whichever sign the intercept takes
        clf = fit(iris, TreeConfig(), t=2, seed=3)
        for emb in (clf.embedding, flip_intercept(clf.embedding)):
            lda_z = fit_lda(project(emb, iris.features), iris.labels)
            assert np.array_equal(predict(clf, iris.features),
                                  predict_lda(lda_z, project(emb, iris.features)))

    def test_single_row_equals_batch_row(self, iris):
        clf = fit(iris, TreeConfig(), seed=0)
        batch = predict(clf, iris.features)
        for i in (0, 50, 149):
            assert predict(clf, iris.features[i:i + 1])[0] == batch[i]

    def test_intercept_sign_flip_leaves_predictions_unchanged(self, rng):
        spec = three_cluster_spec()
        for s in range(20):
            train = sample_mixture(spec, 80, [21, s])
            test = sample_mixture(spec, 60, [22, s])
            clf = fit(train, TreeConfig(), seed=s)
            for emb in (clf.embedding, flip_intercept(clf.embedding)):
                lda_z = fit_lda(project(emb, train.features), train.labels)
                assert np.array_equal(predict(clf, test.features),
                                      predict_lda(lda_z, project(emb, test.features)))

    def test_fit_allocates_no_rows_by_anchors_matrix(self):
        # Z = X W^T + b alone would take n * m * 8 bytes; the fit needs only W
        train = _deep_mixture()[0].subset(np.arange(10_000))
        tracemalloc.start()
        try:
            clf = fit(train, TreeConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < train.n * clf.embedding.m * 8 / 2

    def test_lda_dim_must_match_embedding(self, iris):
        clf = fit(iris, TreeConfig())
        bad_lda = fit_lda(np.random.default_rng(0).normal(size=(30, clf.embedding.m + 1)),
                          np.r_[np.ones(15, int), np.full(15, 2)])
        with pytest.raises(ValueError, match="dimension"):
            DteClassifier(clf.embedding, bad_lda, clf.config, 1, 0)


def _split(ds, seed=0):
    """One stratified 80/20 split: (training Dataset, held-out features)."""
    plan = stratified_folds(ds, 1, 5, seed)
    return ds.subset(plan.train_rows(0, 0)), ds.features[plan.test_rows(0, 0)]


def _standardized(name, label):
    ds = load_csv(DATA_DIR / f"{name}.csv", label)
    X = (ds.features - ds.features.mean(axis=0)) / ds.features.std(axis=0)
    return _split(from_arrays(X, ds.labels))


def _three_cluster(s):
    spec = three_cluster_spec()
    return sample_mixture(spec, 100, [31, s]), sample_mixture(spec, 100, [32, s]).features


def _deep_mixture():
    """20k training rows of six overlapping components owned by three classes."""
    means = np.random.default_rng(20251202).normal(size=(6, 10))
    rng = np.random.default_rng([7, 3])
    comp = rng.integers(0, 6, size=25_000)
    X = means[comp] + rng.standard_normal((25_000, 10))
    y = np.array([1, 2, 3, 1, 2, 3])[comp]
    return from_arrays(X[:20_000], y[:20_000]), X[20_000:]


IDENTITY_CASES = {
    "iris": lambda: _split(load_csv(DATA_DIR / "iris.csv", "species")),
    "three_cluster_0": lambda: _three_cluster(0),
    "three_cluster_1": lambda: _three_cluster(1),
    "three_cluster_2": lambda: _three_cluster(2),
    "wine_standardized": lambda: _standardized("wine", "cultivar"),
    "cancer_standardized": lambda: _standardized("breast_cancer", "diagnosis"),
}


class TestAnchorSpanIdentity:
    """The rule on x equals pseudoinverse LDA on Z = X W^T + b (the paper's
    classifier) on every training and held-out row, wherever the Z-space
    pseudoinverse keeps all rank(W) directions."""

    @staticmethod
    def check(train, held_out, t):
        clf = fit(train, TreeConfig(), t=t, seed=t)
        lda_z = fit_lda(project(clf.embedding, train.features), train.labels)
        assert (np.linalg.matrix_rank(lda_z.cov_pinv, hermitian=True)
                == np.linalg.matrix_rank(clf.embedding.anchors))
        for X in (train.features, held_out):
            assert np.array_equal(predict(clf, X),
                                  predict_lda(lda_z, project(clf.embedding, X)))

    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
    def test_matches_z_space_lda(self, case, t):
        self.check(*IDENTITY_CASES[case](), t)

    def test_matches_z_space_lda_on_deep_trees(self):
        # one ~500-leaf tree; the Z-space side holds 20k x m floats twice
        self.check(*_deep_mixture(), 1)


class TestCrossValidate:
    def test_constant_predictor_sits_at_chance(self):
        # constant features -> single leaf -> prior fallback -> one label
        X = np.zeros((40, 2))
        y = np.r_[np.ones(20, int), np.full(20, 2)]
        reports = cross_validate(from_arrays(X, y), ["dte-1"], replicates=2,
                                 folds=5, seed=0)
        assert reports[0].mean_error == pytest.approx(0.5, abs=1e-12)

    def test_reports_reproducible_and_folds_shared(self, iris):
        a = cross_validate(iris, ["dte-1", "tree"], replicates=2, folds=5, seed=11)
        b = cross_validate(iris, ["dte-1", "tree"], replicates=2, folds=5, seed=11)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.errors, rb.errors)
        # explicit shared plan gives the same numbers
        plan = stratified_folds(iris, 2, 5, seed=11)
        c = cross_validate(iris, ["dte-1", "tree"], replicates=2, folds=5,
                           seed=11, plan=plan)
        assert np.array_equal(a[0].errors, c[0].errors)

    def test_report_accounting(self, iris):
        rep = cross_validate(iris, ["dte-1"], replicates=3, folds=5, seed=2)[0]
        assert rep.errors.shape == (3, 5)
        assert rep.mean_error == pytest.approx(rep.errors.mean(), rel=1e-15)
        assert rep.std_error == pytest.approx(rep.errors.std(ddof=1), rel=1e-12)
        rows = rep.rows("iris")
        assert len(rows) == 15
        assert rep.mean_error == pytest.approx(np.mean([r[4] for r in rows]), rel=1e-15)
        assert np.all((rep.errors >= 0) & (rep.errors <= 1))

    def test_plain_tree_iris_error_in_expected_band(self, iris):
        rep = cross_validate(iris, ["tree"], replicates=10, folds=5, seed=42)[0]
        assert 0.03 <= rep.mean_error <= 0.09

    def test_unknown_method_rejected(self, iris):
        with pytest.raises(ValueError, match="unknown method"):
            cross_validate(iris, ["forest"], replicates=2, folds=5, seed=0)


class TestTimingSweep:
    def test_rows_and_positive_times(self):
        spec = three_cluster_spec()

        def gen(n):
            return sample_mixture(spec, n, [1, n])

        rows = timing_sweep(gen, [200, 400, 800])
        assert len(rows) == 3
        assert [r["n"] for r in rows] == [200, 400, 800]
        assert all(r["train_seconds"] > 0 and r["test_seconds"] > 0 for r in rows)

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            timing_sweep(lambda n: None, [100, 100])
