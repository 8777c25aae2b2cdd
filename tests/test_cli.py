import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dte import Embedding, TreeConfig, fit, predict
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
    def predict_with_model(model, tmp_path):
        """Exit code of predicting with the model on iris's four feature columns
        alone, so that any model that loads exits 0."""
        path, features = tmp_path / "edited.json", tmp_path / "features.csv"
        path.write_text(json.dumps(model))
        features.write_text("".join(",".join(row[:4]) + "\n" for row in read_rows(IRIS)))
        return run("predict", "--model", str(path), "--data", str(features),
                   "--out", str(tmp_path / "p.csv"))

    @classmethod
    def predict_with_edit(cls, model_path, tmp_path, edit):
        model = json.loads(model_path.read_text())
        edit(model)
        return cls.predict_with_model(model, tmp_path)

    def test_unedited_model_predicts(self, iris_model, tmp_path):
        assert self.predict_with_edit(iris_model, tmp_path, lambda model: None) == 0
        assert len(read_rows(tmp_path / "p.csv")) == 151

    def test_version_must_be_the_integer_3(self, iris_model, tmp_path, capsys):
        def edit(model):
            model["format_version"] = 3.0
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "version 3.0 is not supported" in err and "retrain" in err

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
        model = replace(json.loads(iris_model.read_text()))
        assert self.predict_with_model(model, tmp_path) == 2
        assert "malformed model" in capsys.readouterr().err

    @pytest.mark.parametrize("text, reason", [
        ("not json", "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
        ("[" * 100_000 + "]" * 100_000, "RecursionError: maximum recursion depth exceeded"),
    ], ids=["not-json", "nested-too-deep"])
    def test_model_that_is_not_json_exits_2_naming_the_file(self, tmp_path, capsys, text,
                                                           reason):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        assert run("predict", "--model", str(path), "--data", IRIS,
                   "--out", str(tmp_path / "p.csv")) == 2
        # the recursion message goes on to name what was being decoded
        assert capsys.readouterr().err.startswith(f"error: {path}: malformed model ({reason}")

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

    def test_tree_sizes_must_be_integers(self, iris_model, tmp_path, capsys):
        def edit(model):
            model["embedding"]["trees"][0].update(n_features=4.0, n_classes=3.0)
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "malformed model" in err and "n_features and n_classes must be integers" in err

    @pytest.mark.parametrize("config", [
        {"min_leaf_size": 10.0, "num_bins": 30.0},
        {"min_leaf_size": True},
        {"max_depth": 2.5},
    ], ids=["float-sizes", "bool-min-leaf", "float-depth"])
    def test_tree_config_must_be_integers(self, iris_model, tmp_path, capsys, config):
        def edit(model):
            model["embedding"]["trees"][0]["config"].update(config)
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "malformed model" in err and "tree config min_leaf_size and num_bins" in err

    @pytest.mark.parametrize("path, value, message", [
        (("embedding", "W"), lambda W: [[str(x) for x in row] for row in W], "W must hold numbers"),
        (("lda", "means"), lambda M: [[str(x) for x in row] for row in M],
         "lda means must hold numbers"),
        (("lda", "log_priors"), lambda priors: [True] * len(priors),
         "lda log_priors must hold numbers"),
    ], ids=["string-W", "string-lda-means", "bool-log-priors"])
    def test_arrays_must_hold_numbers(self, iris_model, tmp_path, capsys, path, value, message):
        def edit(model):
            part, key = path
            model[part][key] = value(model[part][key])
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "malformed model" in err and message in err

    @pytest.mark.parametrize("edit, message", [
        (lambda model: model["embedding"]["W"][0].__setitem__(0, True), "W must hold numbers"),
        (lambda model: model["lda"]["log_priors"].__setitem__(0, True),
         "lda log_priors must hold numbers"),
        (lambda model: model["embedding"]["trees"][0]["threshold"].__setitem__(0, True),
         "m - 1 finite thresholds"),
        (lambda model: model["embedding"]["trees"][0]["histogram"][0].__setitem__(0, False),
         "tree histogram must be 3 counts"),
        (lambda model: model["embedding"]["trees"][0]["feature"].__setitem__(0, True),
         "tree feature must be a list"),
    ], ids=["true-in-W", "true-in-log_priors", "true-threshold", "false-count",
            "true-feature"])
    def test_one_boolean_among_numbers_exits_2(self, iris_model, tmp_path, capsys, edit,
                                               message):
        # numpy alone would read the boolean as 1 or 0: the root split's feature as 1
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "malformed model" in err and message in err

    @pytest.mark.parametrize("schema", [
        lambda columns: columns[:3],
        lambda columns: columns + [{"name": "extra", "kind": "numeric"}],
    ], ids=["cut", "extra"])
    def test_schema_must_match_w(self, iris_model, tmp_path, capsys, schema):
        def edit(model):
            model["schema"] = schema(model["schema"])
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "malformed model" in err and "features, not W's 4 columns" in err

    @pytest.mark.parametrize("name", [5, None], ids=["number", "null"])
    def test_schema_names_must_be_strings(self, iris_model, tmp_path, capsys, name):
        # the loaded model would otherwise blame the data file for a missing column
        def edit(model):
            model["schema"][0]["name"] = name
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "malformed model" in err and f"column name {name!r} must be a string" in err

    def test_schema_names_must_be_distinct(self, iris_model, tmp_path, capsys):
        def edit(model):
            model["schema"] = [model["schema"][0]] * 4
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "malformed model" in err and "schema column names must be distinct" in err

    def test_label_names_must_be_distinct(self, iris_model, tmp_path, capsys):
        # two classes would be written as one label
        def edit(model):
            model["label_names"] = ["setosa", "setosa", "virginica"]
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "malformed model" in err and "label_names must be a list of 3 distinct" in err

    @pytest.mark.parametrize("seed", [{"value": 42}, "42", -1, 42.0, True],
                             ids=["object", "string", "negative", "float", "bool"])
    def test_seed_must_be_an_integer_of_at_least_0(self, iris_model, tmp_path, capsys, seed):
        def edit(model):
            model["seed"] = seed
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "malformed model" in err and "seed must be an integer >= 0" in err

    @pytest.mark.parametrize("rows, message", [
        (lambda model: model["embedding"]["W"], "W must hold numbers"),
        (lambda model: model["lda"]["cov_pinv"], "lda cov_pinv must hold numbers"),
        (lambda model: model["embedding"]["trees"][0]["histogram"],
         "tree histogram must be 3 counts"),
    ], ids=["W", "cov_pinv", "histogram"])
    def test_ragged_array_names_its_field(self, iris_model, tmp_path, capsys, rows, message):
        def edit(model):
            rows(model)[0].pop()
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "malformed model" in err and message in err

    def test_arrays_must_be_finite(self, iris_model, tmp_path, capsys):
        def edit(model):
            model["lda"]["cov_pinv"][0][0] = float("nan")
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        assert "non-finite values in lda cov_pinv" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, field", [
        (lambda model: model.update(embedding=[]), "embedding"),
        (lambda model: model.update(lda="lda"), "lda"),
        (lambda model: model["embedding"]["trees"].__setitem__(0, []), "trees"),
        (lambda model: model["embedding"].update(trees=[]), "trees"),
        (lambda model: model["embedding"]["trees"][0].update(config=[]), "config"),
        (lambda model: model.update(schema=None), "schema"),
        (lambda model: model["schema"].__setitem__(0, "sepal_length"), "schema"),
        (lambda model: model["embedding"].update(W=[]), "W"),
        (lambda model: model["embedding"].update(W=model["embedding"]["W"][0]), "W"),
    ], ids=["list-embedding", "string-lda", "list-tree", "no-trees", "list-config",
            "null-schema", "string-column", "empty-W", "flat-W"])
    def test_a_part_of_another_json_type_names_its_field(self, iris_model, tmp_path, capsys,
                                                         edit, field):
        assert self.predict_with_edit(iris_model, tmp_path, edit) == 2
        reason = capsys.readouterr().err.split("malformed model", 1)[1]
        assert field in reason and "TypeError" not in reason and "AxisError" not in reason




@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Iris models of 1 and 3 trees, and iris's four feature columns alone."""
    d = tmp_path_factory.mktemp("fuzz")
    for t in (1, 3):
        assert run("train", "--data", IRIS, "--label", "species", "--trees", str(t),
                   "--out", str(d / f"m{t}.json")) == 0
    (d / "features.csv").write_text("".join(",".join(row[:4]) + "\n" for row in read_rows(IRIS)))
    return d


def json_type(value):
    return {bool: "boolean", int: "integer", float: "number", str: "string",
            type(None): "null", dict: "object", list: "array"}[type(value)]


class TestModelFileFuzz:
    """One edit of a trained model, at a key or entry drawn from the whole file, either
    loads and predicts (exit 0) or exits 2 with a message naming the edited key (the
    nearest key above an edited list entry; "format version" names format_version).
    An edit deletes a key, gives a value another JSON type (a float for an integer),
    empties a list, makes one row of an array ragged, or repeats a label or a schema
    column's name."""

    @given(data=st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_an_edited_model_predicts_or_names_the_edited_key(self, fuzz_dir, data):
        model = json.loads((fuzz_dir / f"m{data.draw(st.sampled_from([1, 3]))}.json").read_text())
        path, node = [], model
        while True:   # descend from the top level, stopping at a drawn depth
            path.append(data.draw(st.sampled_from(
                list(node) if isinstance(node, dict) else range(len(node)))))
            parent, node = node, node[path[-1]]
            if not isinstance(node, (dict, list)) or not node or data.draw(st.booleans()):
                break
        edits = ["retype"] + ["delete"] * isinstance(parent, dict)
        if isinstance(node, list) and node:
            edits += ["empty"] + ["ragged"] * all(isinstance(row, list) for row in node)
        edits += ["repeat"] * (path in (["label_names"], ["schema"]))
        edit = data.draw(st.sampled_from(edits))
        if edit == "delete":
            del parent[path[-1]]
        elif edit == "retype":
            parent[path[-1]] = data.draw(st.sampled_from([
                v for v in ("text", True, None, float(node) if type(node) is int else 1.5,
                            {"key": 1}, [1]) if json_type(v) != json_type(node)]))
        elif edit == "empty":
            node.clear()
        elif edit == "ragged":   # one row an entry longer or shorter than the others
            row = node[data.draw(st.sampled_from(range(len(node))))]
            if data.draw(st.booleans()):
                row.append(row[-1])
            else:
                row.pop()
        else:   # a later label or schema column takes an earlier one's name
            i = data.draw(st.sampled_from(range(len(node) - 1)))
            j = data.draw(st.sampled_from(range(i + 1, len(node))))
            if path == ["label_names"]:
                node[j] = node[i]
            else:
                node[j]["name"] = node[i]["name"]
        edited = fuzz_dir / "edited.json"
        edited.write_text(json.dumps(model))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run("predict", "--model", str(edited), "--data", str(fuzz_dir / "features.csv"),
                       "--out", str(fuzz_dir / "p.csv"))
        message = err.getvalue().replace(str(edited), "")
        key = [k for k in path if isinstance(k, str)][-1]
        assert code == 0 or (code == 2 and (key in message or key.replace("_", " ") in message)), \
            (edit, path, message)

    def test_loaded_trees_read_their_class_count_from_their_histograms(self, fuzz_dir):
        for t in (1, 3):
            trees = Embedding.from_dict(json.loads((fuzz_dir / f"m{t}.json").read_text())
                                        ["embedding"]).trees
            assert [tree.n_classes for tree in trees] == [3] * t
            assert all(tree.n_classes == tree.histogram.shape[1] for tree in trees)


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

    def test_sample_missing_a_class_exits_2(self, tmp_path, capsys):
        assert run("simulate", "--n", "3", "--n-test", "3", "--seed", "42",
                   "--out", str(tmp_path / "report.json")) == 2
        assert capsys.readouterr().err == "error: sample of size 3 missed a class; increase n\n"

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

    def test_a_failed_instance_exits_1(self, tmp_path, capsys, monkeypatch):
        failing = {"instance_seed": 0, "epsilon": 0.0, "deviation": 0.0, "bound_ok": False,
                   "Lg_classifier": 0.0, "Lg_formula": 0.0, "hypothesis_ok": False}
        monkeypatch.setattr("dte.cli.verify_instance", lambda *args, **kwargs: failing)
        out = tmp_path / "verify.json"
        assert run("verify-theory", "--instances", "3", "--out", str(out)) == 1
        assert "verified 3 instances, 3 failures" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert (report["failures"], report["ok"]) == (3, False)


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

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_csv_that_is_not_utf8_exits_2_naming_the_file(self, iris_model, tmp_path, capsys,
                                                         command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"x,y\n1\xff,a\n2,b\n")
        argv = (["train", "--label", "y"] if command == "train" else
                ["predict", "--model", str(iris_model)])
        assert run(*argv, "--data", str(bad), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in "
            f"position 5: invalid start byte)\n")

    def test_unreadable_file_exits_2(self, tmp_path):
        assert run("train", "--data", str(tmp_path / "nope.csv"),
                   "--label", "x", "--out", str(tmp_path / "m.json")) == 2
