import csv
import json

import numpy as np
import pytest

from dte import TreeConfig, fit, predict
from dte.cli import main

IRIS = "data/iris.csv"


def run(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def iris_model(tmp_path):
    out = tmp_path / "model.json"
    assert run("train", "--data", IRIS, "--label", "species",
               "--seed", "42", "--out", str(out)) == 0
    return out


class TestTrain:
    def test_model_dimensions_consistent(self, iris_model, iris):
        model = json.loads(iris_model.read_text())
        m, p = len(model["embedding"]["W"]), len(model["embedding"]["W"][0])
        # W and the trees are saved; leaf counts and the intercept are derived on load
        assert set(model["embedding"]) == {"W", "trees"}
        assert model["embedding"]["trees"][0]["feature"].count(-1) == m
        # the LDA acts on the p features: no m-wide array is saved
        assert len(model["lda"]["means"][0]) == p
        assert np.shape(model["lda"]["cov_pinv"]) == (p, p)
        clf = fit(iris, TreeConfig(), t=1, seed=42)
        assert clf.embedding.m == m

    def test_verbose_reports_anchor_rank_and_kept_directions(self, tmp_path, capsys):
        assert run("train", "--data", IRIS, "--label", "species", "--verbose",
                   "--out", str(tmp_path / "m.json")) == 0
        err = capsys.readouterr().err
        assert "rank(W) 4" in err and "pinv kept 4 directions" in err

    def test_verbose_reports_source_columns(self, tmp_path, capsys):
        # one stray NA turns column w into a categorical column with four levels
        data = tmp_path / "na.csv"
        data.write_text("x,w,y\n1,5,a\n2,NA,b\n3,7,a\n4,8,b\n", encoding="utf-8")
        assert run("train", "--data", str(data), "--label", "y", "--min-leaf", "1",
                   "--verbose", "--out", str(tmp_path / "m.json")) == 0
        err = capsys.readouterr().err
        assert "source columns: 1 numeric, 1 categorical; w: 4 levels\n" in err

    def test_same_seed_gives_byte_identical_models(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("train", "--data", IRIS, "--label", "species",
                       "--seed", "7", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_label_column_exits_2(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run("train", "--data", IRIS, "--label", "speciez",
                   "--out", str(out)) == 2
        assert "speciez" in capsys.readouterr().err

    def test_env_seed_override(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("DTE_SEED", "99")
        assert run("train", "--data", IRIS, "--label", "species", "--out", str(a)) == 0
        monkeypatch.delenv("DTE_SEED")
        assert run("train", "--data", IRIS, "--label", "species",
                   "--seed", "99", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPredict:
    def test_round_trip_matches_in_process_predictions(self, iris_model, iris, tmp_path):
        features = tmp_path / "features.csv"
        rows = read_rows(IRIS)
        label_idx = rows[0].index("species")
        with open(features, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            for row in rows:
                w.writerow([v for i, v in enumerate(row) if i != label_idx])
        out = tmp_path / "preds.csv"
        assert run("predict", "--model", str(iris_model), "--data", str(features),
                   "--out", str(out)) == 0
        preds = [r[0] for r in read_rows(out)[1:]]

        clf = fit(iris, TreeConfig(), t=1, seed=42)
        expected = [iris.label_names[c - 1] for c in predict(clf, iris.features)]
        assert preds == expected

    def test_empty_input_gives_empty_output(self, iris_model, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "preds.csv"
        assert run("predict", "--model", str(iris_model), "--data", str(empty),
                   "--out", str(out)) == 0
        assert len(read_rows(out)) == 1  # header only, no predictions

    def test_unknown_column_exits_2(self, iris_model, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("sepal_length,sepal_width,petal_length,petal_width,bonus\n"
                       "5.1,3.5,1.4,0.2,1\n", encoding="utf-8")
        out = tmp_path / "preds.csv"
        assert run("predict", "--model", str(iris_model), "--data", str(bad),
                   "--out", str(out)) == 2
        assert "bonus" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        ("5.1,3.5,1.4,0.2\n5.0,abc,1.4,0.2\n",
         "line 3: non-numeric value 'abc' in column 'sepal_width'"),
        ("5.1,3.5,inf,0.2\n", "line 2: non-finite value 'inf' in column 'petal_length'"),
        ("5.1, ,1.4,0.2\n", "line 2: missing value in column 'sepal_width'"),
        ("5.1,3.5,1.4,0.2\n5.0,3.6,1.4\n", "line 3: expected 4 fields, got 3"),
    ])
    def test_bad_cell_or_row_exits_2_with_file_line(self, iris_model, tmp_path, capsys,
                                                     body, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("sepal_length,sepal_width,petal_length,petal_width\n" + body,
                       encoding="utf-8")
        assert run("predict", "--model", str(iris_model), "--data", str(bad),
                   "--out", str(tmp_path / "p.csv")) == 2
        assert f"error: {bad}: {message}\n" in capsys.readouterr().err

    def test_categorical_column_of_numbers_is_matched_by_category(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("size,lab\n1,a\n2,b\nL,a\n1,a\n2,b\nL,a\n", encoding="utf-8")
        model = tmp_path / "m.json"
        assert run("train", "--data", str(train), "--label", "lab",
                   "--min-leaf", "1", "--out", str(model)) == 0
        newdata = tmp_path / "new.csv"
        newdata.write_text("size\n2\n1\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        assert run("predict", "--model", str(model), "--data", str(newdata),
                   "--out", str(out)) == 0
        assert [r[0] for r in read_rows(out)[1:]] == ["b", "a"]

    def test_duplicate_column_exits_2(self, iris_model, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("sepal_length,sepal_width,petal_length,petal_width,petal_width\n"
                       "5.1,3.5,1.4,0.2,0.2\n", encoding="utf-8")
        assert run("predict", "--model", str(iris_model), "--data", str(bad),
                   "--out", str(tmp_path / "p.csv")) == 2
        assert "duplicate column name 'petal_width'" in capsys.readouterr().err

    def test_unknown_category_exits_2(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("color,lab\nred,a\nblue,b\nred,a\nblue,b\n", encoding="utf-8")
        model = tmp_path / "m.json"
        assert run("train", "--data", str(train), "--label", "lab",
                   "--min-leaf", "1", "--out", str(model)) == 0
        newdata = tmp_path / "new.csv"
        newdata.write_text("color\ngreen\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        assert run("predict", "--model", str(model), "--data", str(newdata),
                   "--out", str(out)) == 2
        assert "green" in capsys.readouterr().err


class TestModelValidation:
    """Hand-edited models are rejected on load, with exit 2 and a reason."""

    @staticmethod
    def predict_with_edit(model_path, tmp_path, edit):
        model = json.loads(model_path.read_text())
        edit(model)
        bad = tmp_path / "edited.json"
        bad.write_text(json.dumps(model))
        return run("predict", "--model", str(bad), "--data", IRIS,
                   "--out", str(tmp_path / "p.csv"))

    def test_version_1_model_asks_for_retraining(self, iris_model, tmp_path, capsys):
        def edit(model):
            model["format_version"] = 1
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "version 1" in err and "retrain" in err

    def test_version_2_model_asks_for_retraining(self, iris_model, tmp_path, capsys):
        def edit(model):
            model["format_version"] = 2
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "version 2" in err and "retrain" in err

    @pytest.mark.parametrize("replace", [
        lambda model: {**model, "lda": {**model["lda"], "means": 5}},
        lambda model: [],
    ], ids=["scalar-means", "top-level-list"])
    def test_malformed_json_exits_2(self, iris_model, tmp_path, capsys, replace):
        bad = tmp_path / "edited.json"
        bad.write_text(json.dumps(replace(json.loads(iris_model.read_text()))))
        assert run("predict", "--model", str(bad), "--data", IRIS,
                   "--out", str(tmp_path / "p.csv")) == 2
        assert "malformed model" in capsys.readouterr().err

    @pytest.mark.parametrize("column", [
        {"name": "sepal_length", "kind": "weird"},
        {"name": "sepal_length", "kind": "onehot", "source": "sepal_length", "category": 5.1},
    ], ids=["unknown-kind", "numeric-category"])
    def test_bad_column_kind_exits_2(self, iris_model, tmp_path, capsys, column):
        def edit(model):
            model["schema"][0] = column
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        assert "'sepal_length': kind must be numeric, or onehot" in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit", [
        ("log_priors", lambda model: model["lda"].pop("log_priors")),
        ("has_header", lambda model: model.pop("has_header")),
        ("label_column", lambda model: model.pop("label_column")),
        ("label_names", lambda model: model.pop("label_names")),
        ("label_names", lambda model: model["label_names"].pop()),
        ("has_header", lambda model: model.update(has_header="false")),
        ("log_priors", lambda model: model["lda"].update(log_priors=[0.0])),
    ], ids=["missing-log_priors", "missing-has_header", "missing-label_column",
            "missing-label_names", "short-label_names", "string-has_header",
            "short-log_priors"])
    def test_missing_field_exits_2(self, iris_model, tmp_path, capsys, field, edit):
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        assert field in capsys.readouterr().err

    def test_lda_dimension_must_equal_embedding_width(self, iris_model, tmp_path, capsys):
        def edit(model):
            lda = model["lda"]
            lda["means"] = [row[:-1] for row in lda["means"]]
            lda["cov_pinv"] = [row[:-1] for row in lda["cov_pinv"][:-1]]
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        assert "LDA dimension" in capsys.readouterr().err

    def test_leaf_counts_must_sum_to_anchor_count(self, iris_model, tmp_path, capsys):
        def edit(model):
            model["embedding"]["W"].pop()
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        assert "anchor count" in capsys.readouterr().err

    def test_malformed_tree_exits_2(self, tmp_path, capsys):
        model_path = tmp_path / "m3.json"
        assert run("train", "--data", IRIS, "--label", "species", "--trees", "3",
                   "--out", str(model_path)) == 0

        def edit(model):
            model["embedding"]["trees"][1]["histogram"].pop()
        assert self.predict_with_edit(model_path, tmp_path, edit) == 2
        assert "tree histogram" in capsys.readouterr().err

    def test_trees_grown_with_other_configs_exit_2(self, tmp_path, capsys):
        model_path = tmp_path / "m3.json"
        assert run("train", "--data", IRIS, "--label", "species", "--trees", "3",
                   "--out", str(model_path)) == 0

        def edit(model):
            model["embedding"]["trees"][2]["config"]["min_leaf_size"] = 3
        assert self.predict_with_edit(model_path, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "malformed model" in err and "grown with the classifier's config" in err

    @pytest.mark.parametrize("features, classes, message", [
        (7, 3, "every tree must read W's 4 columns"),
        (4, 5, "LDA class count 3 must equal the trees' class count"),
    ], ids=["tree-width", "tree-class-count"])
    def test_tree_must_match_w_and_lda(self, iris_model, tmp_path, capsys,
                                       features, classes, message):
        def edit(model):
            tree = model["embedding"]["trees"][0]
            tree.update(n_features=features, n_classes=classes)
            tree["histogram"] = [h + [0] * (classes - 3) for h in tree["histogram"]]
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "malformed model" in err and message in err

    def test_arrays_must_be_finite(self, iris_model, tmp_path, capsys):
        def edit(model):
            model["lda"]["cov_pinv"][0][0] = float("nan")
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        assert "non-finite values in lda cov_pinv" in capsys.readouterr().err


class TestHeaderless:
    def test_train_and_predict_by_column_index(self, tmp_path):
        train = tmp_path / "train.csv"
        rows = ["%.1f,%d,%s" % (i / 10, i % 3, "a" if i < 10 else "b")
                for i in range(20)]
        train.write_text("\n".join(rows) + "\n", encoding="utf-8")
        model = tmp_path / "m.json"
        assert run("train", "--data", str(train), "--label", "2", "--no-header",
                   "--min-leaf", "1", "--out", str(model)) == 0
        features = tmp_path / "new.csv"
        features.write_text("0.1,1\n1.9,2\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        assert run("predict", "--model", str(model), "--data", str(features),
                   "--out", str(out)) == 0
        preds = [r[0] for r in read_rows(out)[1:]]
        assert preds == ["a", "b"]

    def test_label_name_without_header_exits_2(self, tmp_path, capsys):
        assert run("train", "--data", IRIS, "--label", "species", "--no-header",
                   "--out", str(tmp_path / "m.json")) == 2
        assert "label_column must be a zero-based index" in capsys.readouterr().err

    def test_width_mismatch_exits_2(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("0.1,1,a\n1.9,2,b\n0.2,1,a\n1.8,2,b\n", encoding="utf-8")
        model = tmp_path / "m.json"
        assert run("train", "--data", str(train), "--label", "2", "--no-header",
                   "--min-leaf", "1", "--out", str(model)) == 0
        features = tmp_path / "new.csv"
        features.write_text("0.1,1,7\n", encoding="utf-8")
        assert run("predict", "--model", str(model), "--data", str(features),
                   "--out", str(tmp_path / "p.csv")) == 2
        assert f"{features}: expected 2 feature columns, got 3" in capsys.readouterr().err


class TestBenchmark:
    def test_row_accounting_and_aggregates(self, tmp_path, capsys):
        prefix = tmp_path / "results" / "bench"  # the directory is created
        assert run("benchmark", "--data", IRIS, "--label", "species",
                   "--methods", "dte-1,dte-3,tree", "--replicates", "2",
                   "--folds", "5", "--seed", "1", "--out-prefix", str(prefix)) == 0
        rows = read_rows(f"{prefix}.csv")
        assert rows[0] == ["dataset", "method", "replicate", "fold", "error",
                           "train_ms", "test_ms"]
        body = rows[1:]
        assert len(body) == 3 * 2 * 5
        summary = json.loads((tmp_path / "results" / "bench.json").read_text())
        for method in summary["methods"]:
            errs = [float(r[4]) for r in body if r[1] == method["method"]]
            assert method["mean_error"] == pytest.approx(np.mean(errs), rel=1e-12)


class TestSimulate:
    def test_small_sigma_reaches_perfect_training_accuracy(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("simulate", "--n", "60", "--sigma", "0.05", "--seed", "4",
                   "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["mean"]["train_acc"] == 1.0

    def test_zero_sigma_degenerates_gracefully(self, tmp_path):
        # point-mass clusters zero out the pooled covariance directions that
        # separate the classes; the run must still complete with a sane report
        out = tmp_path / "report.json"
        assert run("simulate", "--n", "60", "--sigma", "0", "--seed", "4",
                   "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert 0.0 <= report["mean"]["train_acc"] <= 1.0

    def test_max_depth_caps_the_trees(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("simulate", "--max-depth", "0", "--repeats", "3", "--seed", "3",
                   "--out", str(out)) == 0
        assert [rec["m"] for rec in json.loads(out.read_text())["runs"]] == [1, 1, 1]

    def test_default_run_emits_report_and_dump(self, tmp_path):
        out = tmp_path / "report.json"
        dump = tmp_path / "embedding.csv"
        assert run("simulate", "--seed", "3", "--repeats", "2",
                   "--out", str(out), "--dump", str(dump)) == 0
        report = json.loads(out.read_text())
        assert set(report["mean"]) == {"train_acc", "test_acc",
                                       "oracle_train_acc", "oracle_test_acc"}
        assert len(report["runs"]) == 2
        rows = read_rows(dump)
        assert rows[0][-2:] == ["label", "cluster"]
        assert len(rows) == 101  # header + one row per training sample
        m = report["runs"][0]["m"]
        assert len(rows[0]) == m + 2


class TestVerifyTheory:
    def test_verification_passes_and_reports(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run("verify-theory", "--instances", "40", "--seed", "0",
                   "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert len(report["instances"]) == 40
        assert set(report["instances"][0]) == {
            "instance_seed", "epsilon", "deviation", "bound_ok",
            "Lg_classifier", "Lg_formula", "hypothesis_ok"}

    def test_epsilon_zero_mode(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run("verify-theory", "--instances", "20", "--epsilon-zero",
                   "--seed", "0", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert all(rec["deviation"] == 0.0 for rec in report["instances"])


class TestUsage:
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--repeats", "0"], "--repeats must be >= 1, got 0"),
        (["verify-theory", "--instances", "-3"], "--instances must be >= 1, got -3"),
        (["benchmark", "--data", IRIS, "--label", "species", "--methods", " , "],
         "--methods ' , ' names no method"),
    ], ids=["simulate-repeats", "verify-instances", "benchmark-methods"])
    def test_counts_below_one_exit_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        flag = "--out-prefix" if argv[0] == "benchmark" else "--out"
        assert run(*argv, flag, str(out)) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", IRIS])  # missing required flags
        assert exc.value.code == 2

    def test_malformed_env_seed_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("DTE_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["verify-theory", "--instances", "1"])
        assert exc.value.code == 2
        assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--data", IRIS, "--label", "species", "--trees", "3", "--seed", "-1",
         "--out"],
        ["benchmark", "--data", IRIS, "--label", "species", "--replicates", "1",
         "--seed", "-1", "--out-prefix"],
        ["simulate", "--seed", "-1", "--out"],
        ["verify-theory", "--instances", "1", "--seed", "-1", "--out"],
        ["train", "--data", IRIS, "--label", "species", "--out"],  # seed from DTE_SEED
    ], ids=["train", "benchmark", "simulate", "verify-theory", "env"])
    def test_negative_seed_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setenv("DTE_SEED", "-1")
        with pytest.raises(SystemExit) as exc:
            main(argv + [str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unreadable_file_exits_2(self, tmp_path):
        assert run("train", "--data", str(tmp_path / "nope.csv"),
                   "--label", "x", "--out", str(tmp_path / "m.json")) == 2
