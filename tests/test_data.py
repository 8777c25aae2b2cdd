import csv
import io
import operator
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dte import DataError, bootstrap, data, from_arrays, load_csv, stratified_folds
from dte.data import Column, Dataset, FoldPlan, _parse, load_features


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


def reference_columns(path, names, cells, lengths, first_line, keep):
    """The per-column reader that the row-major parse of ``data._columns`` replaced,
    kept as the reference it must equal: every column parsed through its strided slice."""
    twins = [name for j, name in enumerate(names) if name in names[:j]]
    if twins:
        raise DataError(f"{path}: duplicate column name {twins[0]!r}")
    arity = len(names)
    wrong = np.flatnonzero(lengths != arity)
    end = int(wrong[0]) if wrong.size else len(lengths)
    columns, blank = [], (end, 0)
    for j in range(arity):
        col = cells[j:end * arity:arity]
        values, parsed = _parse(col)
        if parsed < end:
            rows = np.flatnonzero(np.fromiter(map(operator.not_, map(str.strip, col)), bool, end))
            blank = min(blank, (int(rows[0]) if rows.size else end, j))
        finite = parsed == end and j not in keep and np.isfinite(values).all()
        columns.append(values if finite else col)
    cells.clear()
    if blank[0] < end:
        raise DataError(f"{path}: line {first_line + blank[0]}: missing value in column "
                        f"{names[blank[1]]!r}")
    if end < len(lengths):
        raise DataError(f"{path}: line {first_line + end}: expected {arity} fields, "
                        f"got {lengths[end]}")
    return columns


NUMBERS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.sampled_from(["1_000", "-1_0.5", "  1.5 ", "\t2", "-0.0", "+0", "1e-320",
                     "١٢", "３４", "٥.٥"]))
ODD_CELLS = st.sampled_from(["inf", "-inf", "nan", "1e999", "", " ", "red", "blue",
                             "NA", "a,b", '"q"'])


@st.composite
def grids(draw, width):
    """Rows of ``width`` cells: numbers, a few odd cells placed anywhere (late ones
    too), and now and then a row with one field too many or too few."""
    height = draw(st.integers(1, 12))
    rows = [[draw(NUMBERS) for _ in range(width)] for _ in range(height)]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, height - 1))][draw(st.integers(0, width - 1))] = draw(ODD_CELLS)
    if draw(st.integers(0, 7)) == 0:
        row = rows[draw(st.integers(0, height - 1))]
        row.append("9") if draw(st.booleans()) or width == 1 else row.pop()
    return rows


def csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def outcome(load, *args):
    """What a load gives: its arrays' bytes and metadata, or its DataError's message."""
    try:
        got = load(*args)
    except DataError as exc:
        return "error", str(exc)
    if isinstance(got, np.ndarray):
        return "features", got.shape, got.tobytes()
    return ("dataset", got.features.shape, got.features.tobytes(), got.labels.tobytes(),
            got.schema, got.label_names, got.label_column)


class TestRowMajorParse:
    """``_columns`` parses the numeric cells row by row; every load equals the per-column
    reference reader's: the same features, schema and label names, or the same error."""

    @given(draw=st.data(), width=st.integers(2, 5), label=st.integers(0, 4),
           has_header=st.booleans(), chunk=st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_loads_equal_the_per_column_reader(self, draw, width, label, has_header, chunk):
        """Chunks of a few rows, so that a grid spans several."""
        label %= width
        train, features = draw.draw(grids(width)), draw.draw(grids(width - 1))
        header = [f"h{j}" for j in range(width)]
        names = header[:label] + header[label + 1:]
        with tempfile.TemporaryDirectory() as tmp:
            train_path, feature_path = Path(tmp) / "train.csv", Path(tmp) / "features.csv"
            train_path.write_text(csv_text([header] * has_header + train), encoding="utf-8")
            feature_path.write_text(csv_text([names] * has_header + features),
                                    encoding="utf-8")
            column = header[label] if has_header else label
            with mock.patch.object(data, "_CHUNK_ROWS", chunk):
                got = outcome(load_csv, train_path, column, has_header)
            with mock.patch.object(data, "_columns", reference_columns):
                assert got == outcome(load_csv, train_path, column, has_header)
            if got[0] == "dataset":   # encode features against the schema fitted here
                schema = got[4]
                with mock.patch.object(data, "_CHUNK_ROWS", chunk):
                    got = outcome(load_features, feature_path, schema, has_header)
                with mock.patch.object(data, "_columns", reference_columns):
                    assert got == outcome(load_features, feature_path, schema, has_header)

    def test_peak_memory_is_the_per_column_readers(self, tmp_path):
        """20,000 rows of 20 numeric columns and one categorical: the traced peak of
        ``load_features`` is at most 5% above the per-column reader's, so the parse
        holds no second copy of the cells or of the values."""
        rng = np.random.default_rng(5)
        X = np.round(rng.normal(scale=4.0, size=(20_000, 20)), 4)
        path = tmp_path / "wide.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join([f"x{j}" for j in range(20)] + ["color"]) + "\n")
            for row, c in zip(X.tolist(), rng.integers(0, 4, len(X))):
                fh.write(",".join(map(repr, row)) + f",k{c}\n")
        schema = tuple(Column(f"x{j}", "numeric") for j in range(20)) + tuple(
            Column(f"color=k{c}", "onehot", "color", f"k{c}") for c in range(4))

        def peak():
            tracemalloc.start()
            try:
                load_features(path, schema)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        got = peak()
        with mock.patch.object(data, "_columns", reference_columns):
            want = peak()
        assert got <= 1.05 * want


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
