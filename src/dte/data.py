"""Dataset ingestion, the columnar CSV reader (``fit_schema`` and ``encode`` over a
tuple of ``Column``), the checks of class ids (``class_sizes``), models' rows
(``feature_rows``) and saved arrays (``json_numbers``), stratified folds and bootstraps."""

from __future__ import annotations

import csv
import itertools
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Malformed input file or invalid supervised dataset."""


@dataclass(frozen=True)
class Column:
    """One column of the feature matrix.

    ``kind`` is "numeric" for columns parsed as-is, or "onehot" for a binary
    column expanded from a categorical source column (``source`` names that
    column, ``category`` the value this indicator encodes).
    """

    name: str
    kind: str
    source: str | None = None
    category: str | None = None

    def to_dict(self) -> dict:
        d = {"name": self.name, "kind": self.kind}
        if self.kind == "onehot":
            d["source"] = self.source
            d["category"] = self.category
        return d

    @staticmethod
    def from_dict(d: dict) -> "Column":
        d = json_object(d, "a schema column")
        col = Column(d["name"], d["kind"], d.get("source"), d.get("category"))
        if type(col.name) is not str:
            raise ValueError(f"column name {col.name!r} must be a string")
        if col.kind != "numeric" and (col.kind, type(col.source), type(col.category)) != (
                "onehot", str, str):
            raise ValueError(f"column {col.name!r}: kind must be numeric, or onehot "
                             f"with a string source and category")
        return col


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric feature matrix with integer class labels.

    Labels are contiguous class ids 1..K, each appearing at least once.
    Features must be finite. K >= 2 is enforced by the fitting routines,
    not here, so single-class samples (e.g. degenerate resamples) are
    representable.
    """

    features: np.ndarray
    labels: np.ndarray
    schema: tuple[Column, ...]
    label_names: tuple[str, ...]
    label_column: str = "label"

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DataError(f"features must be a non-empty 2-D matrix, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise DataError("labels must be one value per row")
        if not np.all(np.isfinite(X)):
            raise DataError("features contain non-finite values")
        k = len(class_sizes(y))
        if len(self.schema) != X.shape[1]:
            raise DataError("schema length must match feature count")
        if len(self.label_names) != k:
            raise DataError("label_names must have one entry per class")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max())

    def subset(self, rows: np.ndarray) -> "Dataset":
        """Dataset restricted to the given rows (classes must all survive)."""
        return Dataset(self.features[rows], self.labels[rows], self.schema,
                       self.label_names, self.label_column)


def class_sizes(labels: np.ndarray) -> np.ndarray:
    """Rows per class 1..K of int64 labels; rejects no rows, an id below 1, an empty class."""
    k = int(labels.max(initial=0))
    if k < 1 or labels.min(initial=1) < 1:
        raise DataError("class ids must be >= 1")
    counts = np.bincount(labels, minlength=k + 1)[1:]
    if not counts.all():   # the first empty class is the first minimum
        raise DataError(f"class {int(np.argmin(counts)) + 1} has no samples")
    return counts


def from_arrays(X, y) -> Dataset:
    """Wrap plain arrays as a Dataset with a generated numeric schema."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    schema = tuple(Column(f"x{j}", "numeric") for j in range(X.shape[1]))
    names = tuple(str(c) for c in range(1, int(y.max(initial=0)) + 1))
    return Dataset(X, y, schema, names)


def feature_rows(X, p: int) -> np.ndarray:
    """X as a float64 (q, p) matrix of finite values, the rows a fitted model reads."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != p:
        raise ValueError(f"expected rows of {p} features, got shape {X.shape}")
    if X.size and not np.all(np.isfinite(X)):
        raise ValueError("inputs must be finite")
    return X


def json_numbers(values, integers: bool = False) -> np.ndarray | None:
    """A JSON array of numbers (of integers) as a float64 (int64) array, or None when
    any entry is a string, a null or a boolean (or not an integer), or the array is ragged."""
    try:
        a = np.asarray(values)
    except ValueError:   # numpy's "inhomogeneous shape": lists of unequal lengths
        return None
    if a.dtype.kind not in ("i" if integers else "if"):
        return None
    if np.any((a == 0) | (a == 1)):   # numpy reads a boolean among numbers as 0 or 1
        entries = [values] if a.ndim == 0 else values
        for _ in range(a.ndim - 1):
            entries = itertools.chain.from_iterable(entries)
        if bool in set(map(type, entries)):
            return None
    return a.astype(np.int64 if integers else np.float64, copy=False)


def json_object(value, name: str) -> dict:
    """value when it is a JSON object (a dict); else a ValueError naming the field."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object")
    return value


def _read(path, has_header: bool) -> tuple[list[str] | None, list[str], np.ndarray]:
    """The header (None without one or in an empty file), the data cells in row
    order and each data row's field count; no list of rows is ever held."""
    cells, lengths = [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            header = next(rows, None) if has_header else None
            for row in rows:
                cells += row
                lengths.append(len(row))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:   # a field longer than csv.field_size_limit()
        raise DataError(f"{path}: line {rows.line_num}: {exc}") from None
    return header, cells, np.array(lengths, dtype=np.intp)


def _parse(cells) -> tuple[np.ndarray, int]:
    """Values of the cells under Python ``float()`` up to the first it rejects, and their count."""
    it = iter(cells)
    try:
        return np.fromiter(map(float, it), np.float64, len(cells)), len(cells)
    except ValueError:  # the rejected cell is the last one the iterator handed out
        bad = len(cells) - operator.length_hint(it) - 1
        return np.fromiter(map(float, cells[:bad]), np.float64, bad), bad


def _columns(path, names, cells, lengths, first_line: int, keep) -> list:
    """Split ``_read`` cells into columns, emptying ``cells`` so that numeric cells are freed.

    A column is an array of its values when every cell is a finite number and its
    index is not in ``keep``, else its list of cells. Rejects a repeated column
    name, then the first row with a wrong field count or a blank cell.
    """
    twins = [name for j, name in enumerate(names) if name in names[:j]]
    if twins:  # columns are told apart by name, in the schema and at predict time
        raise DataError(f"{path}: duplicate column name {twins[0]!r}")
    arity = len(names)
    wrong = np.flatnonzero(lengths != arity)
    end = int(wrong[0]) if wrong.size else len(lengths)
    columns, blank = [], (end, 0)
    for j in range(arity):
        col = cells[j:end * arity:arity]
        values, parsed = _parse(col)
        if parsed < end:  # float() rejects blank cells, so only such a column can hold one
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


def source_columns(schema) -> list[tuple[str, list[int]]]:
    """The CSV columns a schema encodes, in order, each with its feature indices
    (one numeric feature, or a run of one-hot features from the same source)."""
    groups: list[tuple[str, list[int]]] = []
    for j, col in enumerate(schema):
        if col.kind == "onehot" and j and schema[j - 1].source == col.source:
            groups[-1][1].append(j)
        else:
            groups.append((col.source if col.kind == "onehot" else col.name, [j]))
    return groups


def fit_schema(names, columns) -> tuple[Column, ...]:
    """Fit column kinds and categories: a column is numeric when every cell parses
    with Python ``float()``, else one one-hot feature per distinct value, sorted."""
    schema: list[Column] = []
    for name, col in zip(names, columns):
        if isinstance(col, np.ndarray) or _parse(col)[1] == len(col):
            schema.append(Column(name, "numeric"))
        else:
            schema.extend(Column(f"{name}={c}", "onehot", source=name, category=c)
                          for c in sorted(set(col)))
    return tuple(schema)


def encode(schema, columns, path, first_line: int) -> np.ndarray:
    """Encode columns (cells, or values of numeric ones), one per ``source_columns``
    entry, as features. The first bad cell of the first bad column is rejected
    with its file line: non-numeric, non-finite, or an unfitted category."""
    n = len(columns[0]) if columns else 0
    X = np.zeros((n, len(schema)))
    for (name, idx), cells in zip(source_columns(schema), columns):
        if schema[idx[0]].kind == "numeric":
            values, parsed = (cells, n) if isinstance(cells, np.ndarray) else _parse(cells)
            bad = np.flatnonzero(~np.isfinite(values))
            row = int(bad[0]) if bad.size else parsed
            fault = "non-finite value" if row < parsed else "non-numeric value"
            X[:parsed, idx[0]] = values  # parsed < n only when the cell at row is rejected
        else:
            feature_of = {schema[j].category: j for j in idx}
            js = np.fromiter(map(feature_of.get, cells, itertools.repeat(-1)), np.intp, n)
            bad = np.flatnonzero(js < 0)
            row, fault = (int(bad[0]) if bad.size else n), "unknown category"
            X[np.arange(n), js] = 1.0
        if row < n:
            raise DataError(f"{path}: line {first_line + row}: {fault} {cells[row]!r} "
                            f"in column {name!r}")
    return X


def load_csv(path, label_column, has_header: bool = True) -> Dataset:
    """Load a labeled CSV into a Dataset, its schema from ``fit_schema``.

    Labels are re-indexed to contiguous 1..K in order of first appearance.
    With a header the label column is selected by name, without one by
    zero-based index. Missing cells and non-finite numerics are rejected.
    """
    path = Path(path)
    header, cells, lengths = _read(path, has_header)
    if header is None and not lengths.size:
        raise DataError(f"{path}: empty file")

    first_line = 1 if header is None else 2
    if header is not None:
        if label_column not in header:
            raise DataError(f"{path}: label column {label_column!r} not found in header")
        label_idx = header.index(label_column)
    else:
        header = [f"c{j}" for j in range(lengths[0])]
        try:
            label_idx = int(label_column)
        except (TypeError, ValueError):
            raise DataError("without a header, label_column must be a zero-based index") from None
        if not 0 <= label_idx < len(header):
            raise DataError(f"{path}: label column index {label_idx} out of range")

    if not lengths.size:
        raise DataError(f"{path}: no data rows")

    columns = _columns(path, header, cells, lengths, first_line, keep={label_idx})
    raw_labels = columns.pop(label_idx)
    names = header[:label_idx] + header[label_idx + 1:]
    label_names = tuple(dict.fromkeys(raw_labels))
    if len(label_names) < 2:
        raise DataError(f"{path}: only one class ({label_names[0]!r}) present")
    class_of = dict(zip(label_names, range(1, len(label_names) + 1)))
    labels = np.fromiter(map(class_of.__getitem__, raw_labels), np.int64, len(raw_labels))

    schema = fit_schema(names, columns)
    features = encode(schema, columns, path, first_line)
    return Dataset(features, labels, schema, label_names, header[label_idx])


def load_features(path, schema, has_header: bool = True) -> np.ndarray:
    """Encode an unlabeled CSV against a fitted schema; an empty file gives no rows.
    A header must name exactly the schema's source columns, in any order."""
    groups = source_columns(schema)
    sources = [name for name, _ in groups]
    header, cells, lengths = _read(path, has_header)
    if header is not None:
        parts = [f"{what} columns {names}" for what, names in (
            ("unknown", [h for h in header if h not in sources]),
            ("missing", [s for s in sources if s not in header])) if names]
        if parts:
            raise DataError(f"{path}: schema mismatch: " + "; ".join(parts))
        first_line = 2
    else:
        if lengths.size and lengths[0] != len(sources):
            raise DataError(f"{path}: expected {len(sources)} feature columns, "
                            f"got {lengths[0]}")
        header, first_line = sources, 1
    position = {h: j for j, h in enumerate(header)}
    keep = {position[name] for name, idx in groups if schema[idx[0]].kind == "onehot"}
    columns = _columns(path, header, cells, lengths, first_line, keep)
    return encode(schema, [columns[position[s]] for s in sources], path, first_line)


@dataclass(frozen=True)
class FoldPlan:
    """Stratified test-fold assignment, one per row per replicate.

    ``assignments[r, i]`` is the fold (0..folds-1) in which row i is a test
    row during replicate r. Per class and replicate, fold counts differ by
    at most one.
    """

    assignments: np.ndarray
    folds: int

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.int64)
        object.__setattr__(self, "assignments", a)
        if a.ndim != 2:
            raise DataError("assignments must be (replicates, n)")
        if a.size == 0:
            raise DataError(f"fold plan assignments must be non-empty, got shape {a.shape}")
        if a.min() < 0 or a.max() >= self.folds:
            raise DataError("fold ids out of range")

    @property
    def replicates(self) -> int:
        return self.assignments.shape[0]

    def test_rows(self, replicate: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments[replicate] == fold)

    def train_rows(self, replicate: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments[replicate] != fold)


def stratified_folds(ds: Dataset, replicates: int, folds: int, seed: int) -> FoldPlan:
    """Deterministic stratified fold assignment for repeated cross-validation."""
    if folds < 2:
        raise DataError("folds must be >= 2")
    if replicates < 1:
        raise DataError("replicates must be >= 1")
    for c, cnt in enumerate(class_sizes(ds.labels), start=1):
        if cnt < folds:
            raise DataError(f"class {ds.label_names[c - 1]!r} has {cnt} rows, "
                            f"fewer than folds={folds}")
    assignments = np.empty((replicates, ds.n), dtype=np.int64)
    for r in range(replicates):
        rng = np.random.default_rng([seed, r])
        start = 0
        for c in range(1, ds.n_classes + 1):
            idx = rng.permutation(np.flatnonzero(ds.labels == c))
            assignments[r, idx] = (start + np.arange(idx.size)) % folds
            start = (start + idx.size) % folds
    return FoldPlan(assignments, folds)


def bootstrap(ds: Dataset, seed) -> np.ndarray:
    """The row ids (int64) of a bootstrap sample: n draws, uniform and with
    replacement, from the dataset's rows; deterministic given seed."""
    return np.random.default_rng(seed).integers(0, ds.n, size=ds.n)
