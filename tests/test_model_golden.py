"""Golden CLI models and predictions: ``dte train`` and ``dte predict`` output
must stay byte-identical across rewrites of how the anchors are computed.

Each case trains on a bundled CSV at the default seed and config with
``--trees 1`` or ``--trees 3``, then predicts the same file's feature columns.
It pins the SHA-256 of the model JSON (the anchors ``W``, the trees and the
LDA rule) and of the predictions CSV. A changed anchor bit, split or
prediction fails here. Regenerate the pins only for a deliberate change of
the method or the model format:

    PYTHONPATH=src python tests/test_model_golden.py
"""

from __future__ import annotations

import csv
import hashlib
import os
import tempfile
from pathlib import Path

import pytest

from dte.cli import main

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
BUNDLED = {"iris": "species", "wine": "cultivar", "breast_cancer": "diagnosis"}
CASES = [(name, trees) for name in BUNDLED for trees in (1, 3)]


def model_and_prediction_digests(name: str, trees: int, workdir: Path) -> tuple[str, str]:
    """SHA-256 of the model file and of the predictions file for one case."""
    data, label = DATA_DIR / f"{name}.csv", BUNDLED[name]
    with open(data, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index(label)
    features = workdir / f"{name}_features.csv"
    with open(features, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([cell for j, cell in enumerate(row) if j != drop]
                                 for row in rows)
    model, preds = workdir / f"{name}-{trees}.json", workdir / f"{name}-{trees}.csv"
    assert main(["train", "--data", str(data), "--label", label, "--trees", str(trees),
                 "--out", str(model)]) == 0
    assert main(["predict", "--model", str(model), "--data", str(features),
                 "--out", str(preds)]) == 0
    return (hashlib.sha256(model.read_bytes()).hexdigest(),
            hashlib.sha256(preds.read_bytes()).hexdigest())


PINS = {
    "iris-t1": (
        "33dc804bd3edcc9c55173fb5e0d8fb30b05227be9f3b7a592e838e9a57e4b0aa",
        "5cafb3260b9e64d6fff367c1c66dc84db2784654f8b95123bf4f2101b1f544c0"),
    "iris-t3": (
        "a7f5ffba4a3ec627379ef5debcbb7523e492569cbc84f17f26c4eba129fad6b4",
        "5cafb3260b9e64d6fff367c1c66dc84db2784654f8b95123bf4f2101b1f544c0"),
    "wine-t1": (
        "fa73f0e46fe3a96d6066e4f3c039e653713a51a798ebcde5a4a82486418d140e",
        "d8b11462cbe507a89e035906c18e3888f3d5b89e93506eb119abae42e830fe7f"),
    "wine-t3": (
        "a1991baed0f51bec69c69b15b2050850dd0b4e1abbb4d6c68accf2cd2971069e",
        "31f8ad7461003f5345d197a5ab16e6b703895834e793a87ff3eeb483c8fbe890"),
    "breast_cancer-t1": (
        "adf2303ec1c7d74f1a99b07df3a1d8e6018c9d2cae3c4bb7b16d3dd85415380b",
        "0f2a687cc55571afe0c2fe506c9f9f39c0b003fbadfd31c97b90595e77d9b1fd"),
    "breast_cancer-t3": (
        "ca1db2756cbf91afddffe71485a8bcb6e14d9e9573c862f16ef34e9ae7cea5ab",
        "8c5627f9b4a71c0140d297d8c678e3e649a1f38a8c9210cea991bbcf7cd22dcd"),
}


@pytest.mark.parametrize("name,trees", CASES)
def test_model_and_predictions_are_pinned(name, trees, tmp_path, monkeypatch):
    monkeypatch.delenv("DTE_SEED", raising=False)   # the default seed, 42
    assert model_and_prediction_digests(name, trees, tmp_path) == PINS[f"{name}-t{trees}"]


if __name__ == "__main__":
    os.environ.pop("DTE_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        print("PINS = {")
        for name, trees in CASES:
            model, preds = model_and_prediction_digests(name, trees, Path(tmp))
            print(f'    "{name}-t{trees}": (\n        "{model}",\n        "{preds}"),')
        print("}")
