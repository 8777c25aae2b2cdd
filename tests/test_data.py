import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dte import DataError, bootstrap, from_arrays, load_csv, stratified_folds
from dte.data import Dataset, FoldPlan


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_labels_reindexed_by_first_appearance(self, tmp_path):
        path = write(tmp_path, "x,y\n1.0,a\n2.0,b\n3.0,a\n")
        ds = load_csv(path, "y")
        assert ds.labels.tolist() == [1, 2, 1]
        assert ds.n_classes == 2
        assert ds.label_names == ("a", "b")

    def test_iris_shape(self, iris):
        assert (iris.n, iris.p, iris.n_classes) == (150, 4, 3)
        assert all(c.kind == "numeric" for c in iris.schema)

    def test_one_hot_expansion(self, tmp_path):
        path = write(tmp_path, "c,lab\nx,1\ny,2\nz,1\n")
        ds = load_csv(path, "lab")
        assert ds.p == 3
        assert [c.name for c in ds.schema] == ["c=x", "c=y", "c=z"]
        assert ds.features[1].tolist() == [0.0, 1.0, 0.0]

    def test_wrong_arity_reports_line(self, tmp_path):
        path = write(tmp_path, "x,y\n1,a\n2,b,extra\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, "y")

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path, "x,y\n1.0,a\nnan,b\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path, "y")

    def test_missing_value_rejected(self, tmp_path):
        path = write(tmp_path, "x,y\n1.0,a\n,b\n")
        with pytest.raises(DataError, match="missing"):
            load_csv(path, "y")

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "x,y\n1.0,a\n2.0,a\n")
        with pytest.raises(DataError, match="one class"):
            load_csv(path, "y")

    def test_unknown_label_column(self, tmp_path):
        path = write(tmp_path, "x,y\n1.0,a\n2.0,b\n")
        with pytest.raises(DataError, match="'nope'"):
            load_csv(path, "nope")

    def test_headerless_label_by_index(self, tmp_path):
        path = write(tmp_path, "1.0,a\n2.0,b\n", name="plain.csv")
        ds = load_csv(path, 1, has_header=False)
        assert ds.labels.tolist() == [1, 2]
        assert ds.schema[0].name == "c0"

    def test_duplicate_column_name_rejected(self, tmp_path):
        path = write(tmp_path, "x,x,y\n1,2,a\n3,4,b\n")
        with pytest.raises(DataError, match="duplicate column name 'x'"):
            load_csv(path, "y")

    @given(values=st.lists(st.sampled_from(["red", "green", "blue", "mauve"]),
                           min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_one_hot_rows_have_exactly_one_active(self, values, tmp_path_factory):
        if len(set(values)) < 2:
            values = values + ["red", "green"]
        tmp = tmp_path_factory.mktemp("onehot")
        lines = ["c,lab"] + [f"{v},{v}" for v in values]
        ds = load_csv(write(tmp, "\n".join(lines) + "\n"), "lab")
        assert np.all(ds.features.sum(axis=1) == 1.0)
        assert np.all((ds.features == 0.0) | (ds.features == 1.0))


class TestDataset:
    def test_invariants_enforced(self):
        with pytest.raises(DataError):
            from_arrays(np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(DataError):
            from_arrays([[1.0], [np.inf]], [1, 2])
        with pytest.raises(DataError):
            from_arrays([[1.0], [2.0]], [1, 3])  # class 2 missing

    def test_single_class_representable(self):
        ds = from_arrays([[1.0], [2.0]], [1, 1])
        assert ds.n_classes == 1

    @pytest.mark.parametrize("columns, names, message", [
        (1, 2, "schema length must match feature count"),
        (2, 1, "label_names must have one entry per class"),
        (2, 3, "label_names must have one entry per class"),
    ])
    def test_schema_and_label_names_must_fit(self, columns, names, message):
        ds = from_arrays([[1.0, 2.0], [3.0, 4.0]], [1, 2])
        with pytest.raises(DataError, match=f"^{message}$"):
            Dataset(ds.features, ds.labels, ds.schema[:columns], ("a", "b", "c")[:names])


class TestStratifiedFolds:
    def test_exact_divisibility(self):
        ds = from_arrays(np.arange(10)[:, None], [1] * 5 + [2] * 5)
        plan = stratified_folds(ds, replicates=1, folds=5, seed=0)
        for f in range(5):
            rows = plan.test_rows(0, f)
            assert rows.size == 2
            assert sorted(ds.labels[rows].tolist()) == [1, 2]

    def test_iris_fold_sizes(self, iris):
        plan = stratified_folds(iris, replicates=2, folds=5, seed=3)
        for r in range(2):
            for f in range(5):
                assert plan.test_rows(r, f).size == 30

    def test_deterministic(self, iris):
        a = stratified_folds(iris, 3, 5, seed=9)
        b = stratified_folds(iris, 3, 5, seed=9)
        assert np.array_equal(a.assignments, b.assignments)

    def test_every_row_in_exactly_one_test_fold(self, iris):
        plan = stratified_folds(iris, 2, 5, seed=1)
        for r in range(2):
            seen = np.concatenate([plan.test_rows(r, f) for f in range(5)])
            assert sorted(seen.tolist()) == list(range(iris.n))

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=6),
           st.lists(st.integers(min_value=6, max_value=40), min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_per_class_counts_balanced(self, seed, folds, class_sizes):
        labels = np.concatenate([np.full(s, c + 1) for c, s in enumerate(class_sizes)])
        ds = from_arrays(np.arange(labels.size)[:, None].astype(float), labels)
        plan = stratified_folds(ds, replicates=2, folds=folds, seed=seed)
        for r in range(2):
            for c in range(1, len(class_sizes) + 1):
                counts = np.bincount(plan.assignments[r][ds.labels == c], minlength=folds)
                assert counts.max() - counts.min() <= 1

    @pytest.mark.parametrize("assignments, message", [
        ([0, 1, 0, 1], "assignments must be (replicates, n)"),
        ([[0, 2, 1, 0]], "fold ids out of range"),
        ([[0, -1, 1, 0]], "fold ids out of range"),
        (np.zeros((1, 0), dtype=np.int64),
         "fold plan assignments must be non-empty, got shape (1, 0)"),
        (np.zeros((0, 4), dtype=np.int64),
         "fold plan assignments must be non-empty, got shape (0, 4)"),
    ], ids=["one-dimensional", "above", "below", "no rows", "no replicates"])
    def test_fold_plan_rejects(self, assignments, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            FoldPlan(np.array(assignments), folds=2)

    @pytest.mark.parametrize("replicates, folds, message", [
        (1, 1, "folds must be >= 2"),
        (0, 2, "replicates must be >= 1"),
    ])
    def test_counts_below_their_minimum_rejected(self, replicates, folds, message):
        ds = from_arrays(np.arange(4)[:, None].astype(float), [1, 1, 2, 2])
        with pytest.raises(DataError, match=f"^{message}$"):
            stratified_folds(ds, replicates, folds, seed=0)

    def test_small_class_rejected_by_name(self):
        ds = from_arrays(np.arange(8)[:, None].astype(float), [1] * 6 + [2] * 2)
        with pytest.raises(DataError, match="'2'"):
            stratified_folds(ds, 1, 5, seed=0)


class TestBootstrap:
    def test_single_row(self):
        ds = from_arrays([[1.0]], [1])
        for seed in range(5):
            assert bootstrap(ds, seed).tolist() == [0]

    def test_deterministic(self, iris):
        assert np.array_equal(bootstrap(iris, 12), bootstrap(iris, 12))

    def test_distinct_fraction_near_632(self):
        ds = from_arrays(np.arange(1000)[:, None].astype(float),
                         np.r_[np.ones(500, int), np.full(500, 2)])
        fractions = [np.unique(bootstrap(ds, s)).size / 1000 for s in range(100)]
        assert 0.60 <= np.mean(fractions) <= 0.67

    def test_indices_in_range(self, iris):
        idx = bootstrap(iris, 0)
        assert idx.size == iris.n
        assert idx.min() >= 0 and idx.max() < iris.n

    @pytest.mark.parametrize("seed", [0, 12, [13, 1], np.random.SeedSequence(5, spawn_key=(2,))])
    def test_row_ids_are_the_seeded_draw(self, iris, seed):
        idx = bootstrap(iris, seed)
        assert isinstance(idx, np.ndarray) and idx.dtype == np.int64
        assert np.array_equal(idx, np.random.default_rng(seed).integers(0, iris.n, iris.n))
