import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dte.pipeline
from dte import (DteClassifier, Embedding, LdaModel, TreeConfig, cross_validate, fit,
                 fit_lda, fit_tree, from_arrays, load_csv, predict, predict_lda, project,
                 timing_sweep)
from dte import tree as tree_module
from dte.cli import main as cli_main
from dte.data import stratified_folds
from dte.oracle import sample_mixture, three_cluster_spec
from dte.tree import fit_trees_arrays

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

    def test_deep_root_growth_peak_does_not_rise(self):
        # one lib-deep-sized root grows alone in its batch, whatever the budget;
        # 6,975,116 bytes is its peak with int64 counts and a 2^16 budget (numpy 2.4)
        train = _deep_mixture()[0]
        tracemalloc.start()
        try:
            fit_tree(train, TreeConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6_975_116, peak

    def test_lda_dim_must_match_embedding(self, iris):
        clf = fit(iris, TreeConfig())
        bad_lda = fit_lda(np.random.default_rng(0).normal(size=(30, clf.embedding.m + 1)),
                          np.r_[np.ones(15, int), np.full(15, 2)])
        with pytest.raises(ValueError, match="dimension"):
            DteClassifier(clf.embedding, bad_lda, clf.config, 1, 0)

    @pytest.mark.parametrize("config, n_trees, message", [
        (TreeConfig(min_leaf_size=3), 7, "n_trees 7 must equal the embedding's 1 trees"),
        (TreeConfig(), 7, "n_trees 7"),
        (TreeConfig(min_leaf_size=3), 1, "grown with the classifier's config"),
    ], ids=["both", "n_trees", "config"])
    def test_config_and_tree_count_are_the_trees(self, iris, config, n_trees, message):
        clf = fit(iris, TreeConfig())
        with pytest.raises(ValueError, match=message):
            DteClassifier(clf.embedding, clf.lda, config, n_trees, 0)

    @pytest.mark.parametrize("X, message", [(np.zeros((3, 5)), "4 features"),
                                            (np.full((3, 4), np.nan), "finite")],
                             ids=["width", "nan"])
    def test_model_parts_check_rows_alike(self, iris, X, message):
        # the tree, the embedding and the LDA rule share one check of the rows they read
        clf = fit(iris, TreeConfig(), t=2)
        messages = []
        for read in (lambda X: clf.embedding.trees[0].apply(X),
                     lambda X: project(clf.embedding, X),
                     lambda X: predict_lda(clf.lda, X)):
            with pytest.raises(ValueError) as exc:
                read(X)
            messages.append(str(exc.value))
        assert len(set(messages)) == 1, messages
        assert message in messages[0]

    def test_equality_is_identity(self, iris):
        # generated == would compare arrays elementwise and raise
        clf = fit(iris, TreeConfig())
        assert clf == clf and clf != fit(iris, TreeConfig())


def _widen(tree, k):
    tree.update(n_classes=k, histogram=[h + [0] * (k - len(h)) for h in tree["histogram"]])


class TestLoadedParts:
    """A classifier rebuilt from its saved parts is checked as it is built."""

    @pytest.mark.parametrize("edit, message", [
        (lambda emb, lda: lda["cov_pinv"][0].__setitem__(0, float("nan")),
         "non-finite values in lda cov_pinv"),
        (lambda emb, lda: lda.update(log_priors=lda["log_priors"][:1]), "log_priors"),
        (lambda emb, lda: lda.update(means=lda["means"][0]), "log_priors"),
        (lambda emb, lda: emb["W"][0].__setitem__(0, float("inf")), "non-finite values in W"),
        (lambda emb, lda: emb["trees"][0].update(n_features=7), "W's 4 columns"),
        (lambda emb, lda: _widen(emb["trees"][1], 4), "one class count"),
        (lambda emb, lda: [_widen(tree, 4) for tree in emb["trees"]], "LDA class count 3"),
        (lambda emb, lda: emb["W"][0].__setitem__(0, True), "W must hold numbers"),
        (lambda emb, lda: lda["log_priors"].__setitem__(0, False),
         "lda log_priors must hold numbers"),
        (lambda emb, lda: lda["cov_pinv"][0].__setitem__(0, True), "lda cov_pinv must hold"),
        (lambda emb, lda: emb["trees"][2]["feature"].__setitem__(0, True), "tree feature"),
    ], ids=["nan-cov_pinv", "short-log_priors", "1d-means", "inf-W", "wide-tree",
            "trees-disagree", "lda-class-count", "bool-W", "bool-log_priors", "bool-cov_pinv",
            "bool-feature"])
    def test_inconsistent_parts_rejected(self, iris, edit, message):
        clf = fit(iris, TreeConfig(), t=3)
        emb, lda = json.loads(json.dumps([clf.embedding.to_dict(), clf.lda.to_dict()]))
        edit(emb, lda)
        with pytest.raises(ValueError, match=message):
            DteClassifier(Embedding.from_dict(emb), LdaModel.from_dict(lda), clf.config, 3, 0)

    def test_round_trip_predicts_alike(self, iris):
        clf = fit(iris, TreeConfig(), t=3)
        again = DteClassifier(Embedding.from_dict(clf.embedding.to_dict()),
                              LdaModel.from_dict(clf.lda.to_dict()), clf.config, 3, 0)
        assert np.array_equal(predict(again, iris.features), predict(clf, iris.features))


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


CORNERS = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])


class TestDegenerateInputs:
    """Inputs at the edge of the method fit and predict, and ``dte train`` /
    ``dte predict`` on their CSV reproduce the in-process labels."""

    @staticmethod
    def fit_and_round_trip(tmp_path, X, y, t, seed):
        path = tmp_path / "train.csv"
        header = ",".join(f"x{j}" for j in range(X.shape[1]))
        path.write_text(header + ",y\n" + "".join(
            ",".join(map(repr, row)) + f",c{c}\n" for row, c in zip(X.tolist(), y)))
        (tmp_path / "features.csv").write_text(header + "\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in X.tolist()))
        ds = load_csv(path, "y")
        assert np.array_equal(ds.features, X) and np.array_equal(ds.labels, y)
        clf = fit(ds, TreeConfig(), t, seed)
        labels = predict(clf, X)
        argv = ["train", "--data", str(path), "--label", "y", "--trees", str(t),
                "--seed", str(seed), "--out", str(tmp_path / "model.json")]
        assert cli_main(argv) == 0
        assert cli_main(["predict", "--model", str(tmp_path / "model.json"), "--data",
                         str(tmp_path / "features.csv"), "--out", str(tmp_path / "p.csv")]) == 0
        written = (tmp_path / "p.csv").read_text().split()
        assert written[1:] == [ds.label_names[c - 1] for c in labels]
        return clf, labels

    @pytest.mark.parametrize("t", [1, 3])
    def test_one_row_class(self, tmp_path, t):
        # a bootstrap resample of these 60 rows misses the one row of class 3 about 36% of the time
        y = np.array([1] * 30 + [2] * 29 + [3])
        X = CORNERS[y - 1] + np.random.default_rng(7).normal(size=(60, 2))
        clf, labels = self.fit_and_round_trip(tmp_path, X, y, t, seed=5)
        # at seed 5 the second resample misses class 3: its tree's histograms hold no row of it
        sizes = [int(tree.histogram[:, 2].sum()) for tree in clf.embedding.trees]
        assert sizes[0] == 1 and (t == 1 or sizes[2] == 0)
        assert clf.lda.log_priors[2] == np.log(1 / 60)
        assert np.mean(labels == y) > 0.9

    @pytest.mark.parametrize("t", [1, 3])
    def test_constant_column(self, tmp_path, t):
        y = np.repeat([1, 2, 3], 20)
        X = CORNERS[y - 1] + np.random.default_rng(7).normal(size=(60, 2))
        X = np.insert(X, 1, 2.5, axis=1)   # a constant column between the two informative ones
        clf, labels = self.fit_and_round_trip(tmp_path, X, y, t, seed=0)
        assert np.all(clf.embedding.anchors[:, 1] == 2.5)
        assert np.mean(labels == y) > 0.9

    @pytest.mark.parametrize("t", [1, 3])
    def test_zero_within_class_scatter_falls_back_to_the_priors(self, tmp_path, t):
        # one integer point per class; with p = 1 the span basis is +-1, so every
        # class mean is exact and the pooled covariance is 0
        y = np.repeat([1, 2, 3], [10, 25, 15])
        X = np.array([0.0, 4.0, 8.0])[y - 1][:, None]
        clf, labels = self.fit_and_round_trip(tmp_path, X, y, t, seed=0)
        assert np.array_equal(clf.lda.cov_pinv, np.zeros((1, 1)))
        assert np.all(labels == 2)   # the largest class: 25 of 50 rows


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

    @pytest.mark.parametrize("name", ["iris", "wine"])
    def test_reports_equal_single_method_calls(self, name, request):
        # the methods of one call share each fold's trees; every report must
        # be what the method's own call gives, whatever the subset and order
        ds = request.getfixturevalue(name)
        alone = {m: cross_validate(ds, [m], replicates=2, seed=42)[0]
                 for m in ("dte-1", "dte-3", "tree")}
        for methods in (["dte-1", "dte-3", "tree"], ["tree", "dte-3", "dte-1"],
                        ["dte-3", "dte-1", "dte-3"]):
            reports = cross_validate(ds, methods, replicates=2, seed=42)
            assert [rep.method for rep in reports] == methods
            for rep in reports:
                assert np.array_equal(rep.errors, alone[rep.method].errors), methods
                assert np.array_equal(rep.leaf_counts, alone[rep.method].leaf_counts), methods

    @staticmethod
    def growth_calls(monkeypatch, ds, methods, replicates):
        """The sample count of each fit_trees_arrays call of a 5-fold cross_validate."""
        calls = []

        def counting(X, y, samples, *args):
            calls.append(len(samples))
            return fit_trees_arrays(X, y, samples, *args)

        monkeypatch.setattr(dte.pipeline, "fit_trees_arrays", counting)
        cross_validate(ds, methods, replicates=replicates, folds=5, seed=42)
        monkeypatch.undo()
        return calls

    @pytest.mark.parametrize("methods, per_fold", [
        (["dte-1", "dte-3", "tree"], 3), (["dte-3"], 3), (["tree"], 1), (["dte-1", "tree"], 1),
        ([f"dte-{t}" for t in range(1, 11)], 10)],
        ids=["default", "dte-3", "tree", "dte-1,tree", "dte-1..dte-10"])
    def test_each_fold_grows_its_distinct_trees_once(self, iris, monkeypatch, methods, per_fold):
        calls = self.growth_calls(monkeypatch, iris, methods, 2)
        assert sum(calls) == 2 * 5 * per_fold
        assert len(calls) == 1   # iris's two replicates share one call

    @pytest.mark.parametrize("fill", [0, 1], ids=["half-bound", "over-half"])
    def test_replicates_share_a_call_within_the_batch_bound(self, monkeypatch, fill):
        # a dte-3 replicate's fold samples hold 3 * 4 * n row ids; two
        # replicates share a call while they hold at most _BATCH_ENTRIES
        n = tree_module._BATCH_ENTRIES // (2 * 3 * 4) + fill
        ds = from_arrays(np.arange(2.0 * n).reshape(n, 2), np.arange(n) * 2 // n + 1)
        calls = self.growth_calls(monkeypatch, ds, ["dte-3"], 3)
        assert calls == ([30, 15] if fill == 0 else [15] * 3)

    def test_output_does_not_depend_on_the_batch_budget(self, wine, cancer, monkeypatch):
        # the budget sets which roots grow together and which replicates share a
        # call: 2^14 grows breast_cancer's fold roots one per batch and its
        # replicates 2 + 1, 2^30 every root of a call in one batch
        def run(ds, budget):
            grown = []

            def grow(*args):
                trees = fit_trees_arrays(*args)
                grown.extend(json.dumps(tree.to_dict()) for tree in trees)
                return trees

            with monkeypatch.context() as m:
                m.setattr(tree_module, "_BATCH_ENTRIES", budget)
                m.setattr(dte.pipeline, "_BATCH_ENTRIES", budget)
                m.setattr(dte.pipeline, "fit_trees_arrays", grow)
                reports = cross_validate(ds, ["dte-1", "dte-3", "tree"], replicates=3)
            return [(r.errors.tolist(), r.leaf_counts.tolist()) for r in reports], grown

        for ds in (wine, cancer):
            runs = [run(ds, budget) for budget in (1 << 14, tree_module._BATCH_ENTRIES, 1 << 30)]
            assert len(runs[0][1]) == 3 * 5 * 3
            assert runs[0] == runs[1] == runs[2]

    def test_growth_peak_does_not_grow_with_replicates(self):
        # each replicate's fold samples fill more than half the batch bound,
        # so replicates grow one per call and the peak is one replicate's
        n = tree_module._BATCH_ENTRIES // (2 * 3 * 4) + 1
        rng = np.random.default_rng(0)
        y = rng.integers(1, 4, size=n)
        ds = from_arrays(rng.normal(size=(3, 8))[y - 1] * 6 + rng.normal(size=(n, 8)), y)
        peaks = []
        for replicates in (1, 3):
            tracemalloc.start()
            try:
                cross_validate(ds, ["dte-3", "tree"], replicates=replicates, folds=5, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks

    def test_a_group_holds_nothing_of_the_last_while_it_grows(self, monkeypatch):
        # one replicate per call; the previous group's trees, leaf ids, fold rows
        # and models are gone before the next grows, which held ~100 KiB more
        # here. What stays is numpy's small-block caches, ~3 KiB per call once
        # a first run has warmed them.
        n = tree_module._BATCH_ENTRIES // (2 * 3 * 4) + 1
        rng = np.random.default_rng(0)
        y = rng.integers(1, 4, size=n)
        ds = from_arrays(rng.normal(size=(3, 4))[y - 1] * 6 + rng.normal(size=(n, 4)), y)
        cross_validate(ds, ["dte-3", "tree"], replicates=1, folds=5, seed=1)
        alive = []

        def entry(*args):
            alive.append(tracemalloc.get_traced_memory()[0])
            return fit_trees_arrays(*args)

        monkeypatch.setattr(dte.pipeline, "fit_trees_arrays", entry)
        tracemalloc.start()
        try:
            cross_validate(ds, ["dte-3", "tree"], replicates=4, folds=5, seed=0)
        finally:
            tracemalloc.stop()
        assert len(alive) == 4 and max(alive) - alive[0] <= 16 * 1024, alive

    def test_tree_alone_runs_on_one_class_data(self):
        ds = from_arrays(np.arange(40.0).reshape(20, 2), np.ones(20, int))
        assert cross_validate(ds, ["tree"], replicates=2)[0].mean_error == 0.0
        with pytest.raises(ValueError, match="two classes"):
            cross_validate(ds, ["tree", "dte-1"], replicates=2)

    def test_no_methods_give_no_reports(self, iris):
        assert cross_validate(iris, [], replicates=2) == []

    @pytest.mark.parametrize("name", ["dte-1_0", "dte- 2", "DTE-+3", "dte-\u0663", "dte-3 "])
    def test_tree_count_must_be_ascii_digits(self, iris, monkeypatch, name):
        # int() would read these as dte-10, dte-2, dte-3 (Arabic-Indic three), dte-3
        def no_growth(*args):
            raise AssertionError("trees grown for a misspelt method")

        monkeypatch.setattr(dte.pipeline, "fit_trees_arrays", no_growth)
        with pytest.raises(ValueError, match="unknown method"):
            cross_validate(iris, [name], replicates=2)

    def test_method_names_ignore_case_and_leading_zeros(self, iris):
        spelt = cross_validate(iris, ["TREE", "DTE-3", "dte-03"], replicates=2, seed=42)
        plain = cross_validate(iris, ["tree", "dte-3"], replicates=2, seed=42)
        for rep, ref in zip(spelt, plain + plain[1:]):
            assert np.array_equal(rep.errors, ref.errors)
            assert np.array_equal(rep.leaf_counts, ref.leaf_counts)

    def test_unknown_method_rejected_before_any_growth(self, iris, monkeypatch):
        def no_growth(*args):
            raise AssertionError("trees grown before every method name was checked")

        monkeypatch.setattr(dte.pipeline, "fit_trees_arrays", no_growth)
        for methods in (["dte-1", "forest"], ["tree", "dte-0"], ["dte-x"]):
            with pytest.raises(ValueError, match="unknown method"):
                cross_validate(iris, methods, replicates=2)

    @pytest.mark.parametrize("name", ["iris", "wine", "cancer"])
    def test_batched_folds_equal_a_per_fold_loop(self, name, request):
        # cross_validate grows the folds' trees together; each fold must get
        # what its own fit (or fit_tree) and predict give
        ds, cfg, seed = request.getfixturevalue(name), TreeConfig(), 42
        plan = stratified_folds(ds, 2, 5, seed)
        reports = cross_validate(ds, ["dte-1", "dte-3", "tree"], replicates=2, folds=5, seed=seed)
        for rep in reports:
            errors = np.empty((2, 5))
            widths = np.empty((2, 5), dtype=np.int64)
            for r in range(2):
                for f in range(5):
                    train = ds.subset(plan.train_rows(r, f))
                    test_rows = plan.test_rows(r, f)
                    X_test = ds.features[test_rows]
                    if rep.method == "tree":
                        model = fit_tree(train, cfg)
                        preds, widths[r, f] = model.predict(X_test), model.n_leaves
                    else:
                        fold_seed = np.random.SeedSequence([seed, r, f])
                        model = fit(train, cfg, int(rep.method[4:]), fold_seed)
                        preds, widths[r, f] = predict(model, X_test), model.embedding.m
                    errors[r, f] = np.mean(preds != ds.labels[test_rows])
            assert np.array_equal(rep.errors, errors), rep.method
            assert np.array_equal(rep.leaf_counts, widths), rep.method
            assert np.all(np.isfinite(rep.train_seconds)) and np.all(rep.train_seconds >= 0)


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
