"""The three benchmark workloads: inputs, one timed cycle, and output checks.

Every workload has the same interface:

* ``setup()`` makes the inputs from the seed (and writes them to CSV where
  the workload reads CSV) and warms the code paths up. It may be called
  several times; each call rebuilds the same inputs.
* ``cycle(span, reference)`` runs one timed unit of work and returns a
  :class:`Cycle`. ``span(name)`` is a context manager the tracer uses to
  label the benchmark's own steps; untraced cycles pass a no-op.
  ``reference()`` is called right after each sample's timed work and its
  reading of the host's speed is kept with the sample.
* ``check(cycle)`` compares the cycle's outputs with the expected outputs,
  outside every timed region, and fills in ``attempted``, ``failed`` and
  ``test_error``.
* ``csv_bytes_in`` / ``model_bytes(cycle)`` give the byte counts the trace
  reports.

The mixture layouts (the Gaussian means) are drawn once from fixed layout
seeds, and the rows are drawn from the workload seed, so that a seed changes
the sample but not the difficulty of the problem: throughput and error then
stay comparable across seeds.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Sample:
    """One timed call. Calls of one ``group`` repeat identical work."""

    group: str
    train_rows: float
    train_s: float       # time from input to saved model
    predict_rows: float
    predict_s: float     # time from saved model plus input to labels
    folds: int           # fit+predict operations
    wall_s: float
    reference_s: float   # host speed right after the sample, see run.reference_s


@dataclass
class Cycle:
    """Samples and outputs of one cycle; checks fill the last three fields."""

    samples: list
    fit_ms: list         # one latency per fit
    outputs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    test_error: float = 1.0

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.samples)


def no_span(name):
    """A span that records nothing, for untraced cycles."""
    return nullcontext()


def no_reference() -> float:
    """No reading of the host's speed, for cycles whose times are not reported."""
    return 0.0


def _quiet_main(dte, argv) -> int:
    """``dte.cli.main`` in-process, with its stdout report discarded."""
    with redirect_stdout(io.StringIO()):
        return dte.cli.main(argv)


def _labels_by_first_appearance(names):
    """Class ids 1..K in order of first appearance, as ``load_csv`` assigns them."""
    order: dict[str, int] = {}
    for v in names:
        order.setdefault(v, len(order) + 1)
    return np.array([order[v] for v in names], dtype=np.int64), list(order)


class CliShallow:
    """``dte train`` then ``dte predict`` through ``dte.cli.main``.

    Three well-separated Gaussian classes in 20 numeric columns plus one
    categorical column, so the tree stays shallow and the time goes to
    per-cell CSV handling. Each held-out label is flipped to another class
    with probability 0.02, so held-out error is never 0 and a
    classifier regression shows above that rate.
    """

    name = "cli-shallow"
    layout_seed = 20251201
    min_cycles = 3

    def __init__(self, dte, root: Path, workdir: Path, seed: int, n_train=30_000, n_predict=60_000):
        self.dte, self.workdir, self.seed = dte, workdir, seed
        self.params = dict(n_train=n_train, n_predict=n_predict, p=20, classes=3,
                           mean_scale=4.0, sigma=1.0, categories=4,
                           label_noise=0.02, trees=1, tree_config="default")
        self.train_csv = workdir / "train.csv"
        self.predict_csv = workdir / "heldout.csv"
        self.model_json = workdir / "model.json"
        self.preds_csv = workdir / "preds.csv"

    def _draw(self, rng, n, means):
        p = self.params
        y = rng.integers(0, p["classes"], size=n)
        # four decimals, like typical tabular data; the CSV holds them exactly
        X = np.round(means[y] + p["sigma"] * rng.standard_normal((n, p["p"])), 4)
        cats = rng.integers(0, p["categories"], size=n)
        return X, y, cats

    @staticmethod
    def _write(path, header, X, cats, labels=None):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for i, row in enumerate(X.tolist()):
                tail = f",k{cats[i]}" + (f",{labels[i]}" if labels is not None else "")
                fh.write(",".join(map(repr, row)) + tail + "\n")

    def setup(self):
        p = self.params
        means = np.random.default_rng(self.layout_seed).normal(
            scale=p["mean_scale"], size=(p["classes"], p["p"]))
        rng = np.random.default_rng([self.seed, 1])
        X, y, cats = self._draw(rng, p["n_train"], means)
        Xh, yh, cats_h = self._draw(rng, p["n_predict"], means)
        names = [f"c{c + 1}" for c in y]
        header = [f"x{j}" for j in range(p["p"])] + ["color"]
        self._write(self.train_csv, header + ["label"], X, cats, names)
        self._write(self.predict_csv, header, Xh, cats_h)

        noisy = np.flatnonzero(rng.random(p["n_predict"]) < p["label_noise"])
        yh[noisy] = (yh[noisy] + rng.integers(1, p["classes"], size=noisy.size)) % p["classes"]
        self.true_names = [f"c{c + 1}" for c in yh]

        # the library on the same arrays is the reference the CLI must match
        ids, label_names = _labels_by_first_appearance(names)
        onehot = np.eye(p["categories"])
        ds = self.dte.from_arrays(np.hstack([X, onehot[cats]]), ids)
        clf = self.dte.pipeline.fit(ds, self.dte.TreeConfig(), 1, self.seed)
        ref = self.dte.pipeline.predict(clf, np.hstack([Xh, onehot[cats_h]]))
        self.expected_names = [label_names[c - 1] for c in ref]
        self.expected_anchors = clf.embedding.anchors.tolist()
        self.csv_bytes_in = os.path.getsize(self.train_csv) + os.path.getsize(self.predict_csv)

    def cycle(self, span, reference=no_reference) -> Cycle:
        train = ["train", "--data", str(self.train_csv), "--label", "label",
                 "--seed", str(self.seed), "--out", str(self.model_json)]
        predict = ["predict", "--model", str(self.model_json),
                   "--data", str(self.predict_csv), "--out", str(self.preds_csv)]
        t0 = time.perf_counter()
        with span("bench.train"):
            rc_train = _quiet_main(self.dte, train)
        t1 = time.perf_counter()
        with span("bench.predict"):
            rc_predict = _quiet_main(self.dte, predict) if rc_train == 0 else None
        t2 = time.perf_counter()
        p = self.params
        sample = Sample(self.name, p["n_train"], t1 - t0, p["n_predict"], t2 - t1, 1, t2 - t0,
                        reference())
        return Cycle([sample], [1e3 * (t1 - t0)], {"rc": (rc_train, rc_predict)})

    def check(self, c: Cycle) -> Cycle:
        rc_train, rc_predict = c.outputs["rc"]
        train_ok = rc_train == 0 and json.loads(self.model_json.read_text(
            encoding="utf-8"))["embedding"]["W"] == self.expected_anchors
        got = []
        if rc_predict == 0:
            with open(self.preds_csv, newline="", encoding="utf-8") as fh:
                got = [row[0] for row in list(csv.reader(fh))[1:]]
        predict_ok = got == self.expected_names
        c.attempted, c.failed = 2, (not train_ok) + (not predict_ok)
        c.test_error = (float(np.mean(np.array(got) != np.array(self.true_names)))
                        if len(got) == len(self.true_names) else 1.0)
        return c

    def model_bytes(self, c: Cycle) -> int:
        return os.path.getsize(self.model_json)


class LibDeep:
    """Library ``fit``, save the model to JSON, load it back, ``predict``.

    Six overlapping Gaussian components owned by three classes give a tree
    with hundreds of leaves, so the m-wide LDA, the per-leaf loops of the
    embedding and model (de)serialization carry the time. No CSV is read.

    Each cycle does this for ``train_sets`` training sets drawn from the
    seed: the tree width m moves by about 5% from one drawn set to another
    and the time moves with it, so a single set made the rates follow the
    seed. The loaded model scores the held-out rows in batches of
    ``batch_rows``, as a batch scorer would: in one call, ``predict`` builds
    two n x m temporaries of hundreds of MB, whose page faults on a shared
    host made the predict time spread by tens of percent from call to call.
    """

    name = "lib-deep"
    layout_seed = 20251202
    min_cycles = 3
    train_sets = 4
    batch_rows = 5_000

    def __init__(self, dte, root: Path, workdir: Path, seed: int, n_train=20_000, n_predict=50_000):
        self.dte, self.seed = dte, seed
        self.params = dict(n_train=n_train, n_predict=n_predict, p=10, components=6,
                           component_classes=[1, 2, 3, 1, 2, 3], sigma=1.0,
                           trees=1, tree_config="default", train_sets=self.train_sets,
                           batch_rows=self.batch_rows, warmup="one untimed fit and predict")
        self.csv_bytes_in = 0

    def _draw(self, rng, n, means):
        comp = rng.integers(0, self.params["components"], size=n)
        X = means[comp] + self.params["sigma"] * rng.standard_normal((n, self.params["p"]))
        return X, np.asarray(self.params["component_classes"])[comp]

    def setup(self):
        p = self.params
        means = np.random.default_rng(self.layout_seed).normal(size=(p["components"], p["p"]))
        self.train = [self.dte.from_arrays(*self._draw(
            np.random.default_rng([self.seed, 2, k]), p["n_train"], means))
            for k in range(self.train_sets)]
        self.X_test, self.y_test = self._draw(
            np.random.default_rng([self.seed, 3]), p["n_predict"], means)
        _, text = self._fit_save(self.train[0])
        self._load_predict(text, self.X_test)

    def _fit_save(self, ds, span=no_span):
        clf = self.dte.pipeline.fit(ds, self.dte.TreeConfig(), 1, self.seed)
        doc = {"embedding": clf.embedding.to_dict(), "lda": clf.lda.to_dict()}
        with span("json.dumps"):
            text = json.dumps(doc)
        return clf, text

    def _load_predict(self, text, X, span=no_span):
        with span("json.loads"):
            doc = json.loads(text)
        emb = self.dte.Embedding.from_dict(doc["embedding"])
        lda = self.dte.LdaModel.from_dict(doc["lda"])
        clf = self.dte.DteClassifier(emb, lda, self.dte.TreeConfig(), 1, self.seed)
        return self._predict_batches(clf, X)

    def _predict_batches(self, clf, X):
        return np.concatenate([self.dte.pipeline.predict(clf, X[i:i + self.batch_rows])
                               for i in range(0, len(X), self.batch_rows)])

    def cycle(self, span, reference=no_reference) -> Cycle:
        """One sample per training set, each grouped by its set."""
        p = self.params
        samples, fit_ms, models = [], [], []
        for k, ds in enumerate(self.train):
            t0 = time.perf_counter()
            with span("bench.train"):
                clf, text = self._fit_save(ds, span)
            t1 = time.perf_counter()
            with span("bench.predict"):
                preds = self._load_predict(text, self.X_test, span)
            t2 = time.perf_counter()
            samples.append(Sample(f"{self.name}/{k}", p["n_train"], t1 - t0,
                                  p["n_predict"], t2 - t1, 1, t2 - t0, reference()))
            fit_ms.append(1e3 * (t1 - t0))
            models.append((clf, preds, len(text)))
        return Cycle(samples, fit_ms, {"models": models})

    def check(self, c: Cycle) -> Cycle:
        models = c.outputs.pop("models")
        c.attempted = 2 * len(models)
        c.failed = sum(not np.array_equal(preds, self._predict_batches(clf, self.X_test))
                       for clf, preds, _ in models)
        c.test_error = float(np.mean([np.mean(preds != self.y_test) for _, preds, _ in models]))
        c.outputs["bytes"] = sum(size for _, _, size in models)
        return c

    def model_bytes(self, c: Cycle) -> int:
        return c.outputs["bytes"]


class CvBundled:
    """``dte benchmark`` (repeated stratified CV) on the three bundled CSVs.

    The paper's experiment: many fits on small n, so per-node and per-fold
    Python overhead and the bootstrap trees of dte-3 carry the time. Each
    method gets its own ``dte benchmark`` call, which yields the same folds
    and errors as one call with all three (the methods share one fold plan),
    so the host's speed is read after every few seconds of work instead of
    once per dataset.
    """

    name = "cv-bundled"
    min_cycles = 2  # the error table of every cycle is compared with the first
    datasets = (("iris", "species"), ("wine", "cultivar"), ("breast_cancer", "diagnosis"))
    methods = ("dte-1", "dte-3", "tree")

    def __init__(self, dte, root: Path, workdir: Path, seed: int, replicates=10):
        self.dte, self.workdir, self.seed = dte, workdir, seed
        self.data_dir = root / "data"
        self.params = dict(datasets=[d for d, _ in self.datasets], methods=",".join(self.methods),
                           calls="one per dataset and method", replicates=replicates, folds=5,
                           seed=seed, warmup="replicates=1")
        self.first_tables = None

    def _run(self, replicates, span=no_span, reference=no_reference):
        """{(dataset, method): (exit code, seconds, CSV rows, JSON summary, reference)}."""
        p = self.params
        out = {}
        for name, label in self.datasets:
            for method in self.methods:
                prefix = self.workdir / f"cv-{name}-{method}"
                argv = ["benchmark", "--data", str(self.data_dir / f"{name}.csv"),
                        "--label", label, "--methods", method,
                        "--replicates", str(replicates), "--folds", str(p["folds"]),
                        "--seed", str(self.seed), "--out-prefix", str(prefix)]
                t0 = time.perf_counter()
                with span("bench.benchmark"):
                    rc = _quiet_main(self.dte, argv)
                elapsed = time.perf_counter() - t0
                ref = reference()
                rows, summary = [], None
                if rc == 0:
                    with open(f"{prefix}.csv", newline="", encoding="utf-8") as fh:
                        rows = list(csv.reader(fh))[1:]
                    summary = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
                out[name, method] = (rc, elapsed, rows, summary, ref)
        return out

    def setup(self):
        self.csv_bytes_in = sum(os.path.getsize(self.data_dir / f"{d}.csv")
                                for d, _ in self.datasets)
        self._run(1)

    def cycle(self, span, reference=no_reference) -> Cycle:
        """One pass, one sample per dataset and method; fit and predict times
        are the per-fold times ``dte benchmark`` reports."""
        runs = self._run(self.params["replicates"], span, reference)
        p = self.params
        samples, fit_ms = [], []
        for (name, method), (rc, elapsed, rows, summary, ref) in runs.items():
            if summary is None:
                continue
            fit_ms += [float(r[5]) for r in rows]
            # each row is a test row exactly once per replicate
            reps = p["replicates"]
            samples.append(Sample(f"{name}/{method}", reps * (p["folds"] - 1) * summary["n"],
                                  sum(float(r[5]) for r in rows) / 1e3,
                                  reps * summary["n"], sum(float(r[6]) for r in rows) / 1e3,
                                  len(rows), elapsed, ref))
        return Cycle(samples, fit_ms, {"runs": runs})

    def check(self, c: Cycle) -> Cycle:
        """Error tables identical across cycles and inside the A2-A4 bands."""
        p = self.params
        per_method = p["replicates"] * p["folds"]
        runs = c.outputs.pop("runs")
        tables, errors = {}, {}
        failed = set()
        for key, (rc, _, rows, summary, _) in runs.items():
            if rc != 0 or len(rows) != per_method:
                failed.add(key)
                continue
            tables[key] = [r[2:5] for r in rows]
            for rep in summary["methods"]:
                errors[key[0], rep["method"]] = rep["mean_error"]
        if self.first_tables is None:
            self.first_tables = tables
        failed.update(k for k, t in tables.items() if self.first_tables.get(k) != t)
        for keys, ok in self._bands(errors):
            if not ok:
                failed.update(keys)
        c.attempted = per_method * len(self.methods) * len(self.datasets)
        c.failed = per_method * len(failed)
        c.test_error = float(np.mean(list(errors.values()))) if errors else 1.0
        return c

    @staticmethod
    def _bands(e):
        """The error bands the acceptance suite asserts (A2, A3, A4)."""
        def get(*k):
            return e.get(k, float("inf"))
        i1, it = get("iris", "dte-1"), get("iris", "tree")
        w1, w3 = get("wine", "dte-1"), get("wine", "dte-3")
        b1 = get("breast_cancer", "dte-1")
        return [
            ((("iris", "dte-1"), ("iris", "tree")), 0.01 <= i1 <= 0.07 and i1 < it),
            ((("wine", "dte-1"), ("wine", "dte-3")), w3 <= 0.06 and w3 <= w1 + 0.005),
            ((("breast_cancer", "dte-1"),), b1 <= 0.07),
        ]

    def model_bytes(self, c: Cycle) -> int:
        return 0


WORKLOADS = {w.name: w for w in (CliShallow, LibDeep, CvBundled)}
