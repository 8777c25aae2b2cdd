"""Golden CLI models and predictions: ``dte train`` and ``dte predict`` output
must stay byte-identical across rewrites of how the anchors are computed.

Each case trains on a bundled CSV at the default seed and config with
``--trees 1`` or ``--trees 3``, then predicts the same file's feature columns.
It pins the SHA-256 of the model JSON without its ``lda`` block (the anchors
``W``, the trees, the schema and the label names) and of the predictions CSV.
A changed anchor bit, split or prediction fails here.

The ``lda`` block (class means, covariance pseudoinverse, log priors) comes
from LAPACK ``eigh`` and ``svd`` and from BLAS products, whose summation order
depends on the CPU kernel OpenBLAS picks (``OPENBLAS_CORETYPE``); its last
bits differ between kernels, by about 1e-12 of each array's largest entry.
So it is checked by the Frobenius norm of each array, at a relative tolerance
of 1e-9, and the predictions it makes are pinned exactly. Regenerate the pins
only for a deliberate change of the method or the model format:

    PYTHONPATH=src python tests/test_model_golden.py
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dte.cli import main

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
BUNDLED = {"iris": "species", "wine": "cultivar", "breast_cancer": "diagnosis"}
CASES = [(name, trees) for name in BUNDLED for trees in (1, 3)]
LDA_ARRAYS = ("means", "cov_pinv", "log_priors")


def model_and_prediction_digests(name: str, trees: int, workdir: Path):
    """For one case: the SHA-256 of the model JSON without ``lda`` and of the
    predictions file, and the Frobenius norm of each ``lda`` array."""
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
    saved = json.loads(model.read_bytes())
    lda = saved.pop("lda")
    # floats print as their shortest round-trip text, so one changed bit changes the bytes
    rest = json.dumps(saved).encode()
    return (hashlib.sha256(rest).hexdigest(), hashlib.sha256(preds.read_bytes()).hexdigest(),
            {key: float(np.linalg.norm(lda[key])) for key in LDA_ARRAYS})


PINS = {
    "iris-t1": (
        "b1b29d1756fc03b28f531783fd7ae13512291ad8388aa99d6f33bc2f0ec6dc36",
        "5cafb3260b9e64d6fff367c1c66dc84db2784654f8b95123bf4f2101b1f544c0",
        {'means': 13.74772170215851, 'cov_pinv': 49.6543541732112, 'log_priors': 1.902852301792692}),
    "iris-t3": (
        "b9a71c2d22537865a9f721310d4187fb8b262845f9ae69680e0c07cfd05e7ec2",
        "5cafb3260b9e64d6fff367c1c66dc84db2784654f8b95123bf4f2101b1f544c0",
        {'means': 13.747721702158513, 'cov_pinv': 49.65435417321127, 'log_priors': 1.902852301792692}),
    "wine-t1": (
        "ec7b08f05e63f0d3df0197f0c2f745588fc92080fa3c56cc27d68346f55e2aaa",
        "d8b11462cbe507a89e035906c18e3888f3d5b89e93506eb119abae42e830fe7f",
        {'means': 1394.074185682774, 'cov_pinv': 5.2550944719827966, 'log_priors': 1.9446690253591303}),
    "wine-t3": (
        "13bc4a82f0b5f78737e8b9e6be0b0bd691ae58378a3e9a13b463efc46e2cc830",
        "31f8ad7461003f5345d197a5ab16e6b703895834e793a87ff3eeb483c8fbe890",
        {'means': 1394.0741886934068, 'cov_pinv': 139.71132968101793, 'log_priors': 1.9446690253591303}),
    "breast_cancer-t1": (
        "0de9b22c7afd37d8e57d36b37e6408ce5dc045a81ca204d8eea140ac9888478e",
        "0f2a687cc55571afe0c2fe506c9f9f39c0b003fbadfd31c97b90595e77d9b1fd",
        {'means': 1887.4999359581689, 'cov_pinv': 437.8420525024003, 'log_priors': 1.0918061156652437}),
    "breast_cancer-t3": (
        "f9f6a5e1f124baa505263e844d51d33ca4c5aa8547857aef233a20a8ad1fb6c0",
        "8c5627f9b4a71c0140d297d8c678e3e649a1f38a8c9210cea991bbcf7cd22dcd",
        {'means': 1887.4999359698538, 'cov_pinv': 1576994.937591464, 'log_priors': 1.0918061156652437}),
}


@pytest.mark.parametrize("name,trees", CASES)
def test_model_and_predictions_are_pinned(name, trees, tmp_path, monkeypatch):
    monkeypatch.delenv("DTE_SEED", raising=False)   # the default seed, 42
    model, preds, norms = model_and_prediction_digests(name, trees, tmp_path)
    pinned_model, pinned_preds, pinned_norms = PINS[f"{name}-t{trees}"]
    assert (model, preds) == (pinned_model, pinned_preds)
    for key in LDA_ARRAYS:
        assert math.isclose(norms[key], pinned_norms[key], rel_tol=1e-9, abs_tol=0.0), key


if __name__ == "__main__":
    os.environ.pop("DTE_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        print("PINS = {")
        for name, trees in CASES:
            model, preds, norms = model_and_prediction_digests(name, trees, Path(tmp))
            print(f'    "{name}-t{trees}": (\n        "{model}",\n        "{preds}",\n'
                  f'        {norms!r}),')
        print("}")
