"""Golden CLI model and predictions on the generated cli-shallow files.

perfbench's cli-shallow workload trains ``dte`` on a 30,000-row CSV of three
Gaussian classes in 20 columns plus a categorical ``color`` column, then
predicts 60,000 held-out rows. This writes the same two files as its seed-1
set-up, runs ``dte train --seed 1`` and ``dte predict`` on them, and pins,
as ``test_model_golden.py`` does:

* the SHA-256 of the model JSON without its ``lda`` block;
* the Frobenius norm of each ``lda`` array, at a relative 1e-9, since their
  last bits follow the BLAS kernel OpenBLAS picks;
* the SHA-256 of the predictions file.

The generator is a copy of perfbench's, not an import of
``perfbench/workloads.py``, so that the pinned inputs, and with them the pins,
stay fixed when the benchmark's workloads are reshaped.

Regenerate the pins only for a deliberate change of the method or the model
format:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from dte.cli import main

LDA_ARRAYS = ("means", "cov_pinv", "log_priors")
N_TRAIN, N_PREDICT, P, CLASSES, CATEGORIES = 30_000, 60_000, 20, 3, 4
LAYOUT_SEED, SEED = 20251201, 1


def _draw(rng, n, means):
    y = rng.integers(0, CLASSES, size=n)
    X = np.round(means[y] + rng.standard_normal((n, P)), 4)
    cats = rng.integers(0, CATEGORIES, size=n)
    return X, y, cats


def _write(path, header, X, cats, labels=None):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i, row in enumerate(X.tolist()):
            tail = f",k{cats[i]}" + (f",c{labels[i] + 1}" if labels is not None else "")
            fh.write(",".join(map(repr, row)) + tail + "\n")


def write_cli_shallow(workdir: Path):
    """The seed-1 training and held-out CSVs; returns their paths."""
    means = np.random.default_rng(LAYOUT_SEED).normal(scale=4.0, size=(CLASSES, P))
    rng = np.random.default_rng([SEED, 1])
    X, y, cats = _draw(rng, N_TRAIN, means)
    Xh, _, cats_h = _draw(rng, N_PREDICT, means)
    header = [f"x{j}" for j in range(P)] + ["color"]
    train, heldout = workdir / "train.csv", workdir / "heldout.csv"
    _write(train, header + ["label"], X, cats, y)
    _write(heldout, header, Xh, cats_h)
    return train, heldout


def model_and_prediction_digests(workdir: Path):
    """The SHA-256 of the model JSON without ``lda`` and of the predictions
    file, and the Frobenius norm of each ``lda`` array."""
    train, heldout = write_cli_shallow(workdir)
    model, preds = workdir / "model.json", workdir / "preds.csv"
    assert main(["train", "--data", str(train), "--label", "label", "--seed", str(SEED),
                 "--out", str(model)]) == 0
    assert main(["predict", "--model", str(model), "--data", str(heldout),
                 "--out", str(preds)]) == 0
    saved = json.loads(model.read_bytes())
    lda = saved.pop("lda")
    rest = json.dumps(saved).encode()
    return (hashlib.sha256(rest).hexdigest(), hashlib.sha256(preds.read_bytes()).hexdigest(),
            {key: float(np.linalg.norm(lda[key])) for key in LDA_ARRAYS})


PINS = (
    "d73b338dc1b887f5f244279586f629fb7c9f47d4ba685be5307c048b7bf9a011",
    "d12a307a0bfdf2dc8e94f2564912e967fd51823e0eb179ee3a0aa78e16b01958",
    {'means': 28.07845648831414, 'cov_pinv': 2.690805978576326, 'log_priors': 1.9028676810842415})


def test_model_and_predictions_are_pinned(tmp_path):
    model, preds, norms = model_and_prediction_digests(tmp_path)
    pinned_model, pinned_preds, pinned_norms = PINS
    assert (model, preds) == (pinned_model, pinned_preds)
    for key in LDA_ARRAYS:
        assert math.isclose(norms[key], pinned_norms[key], rel_tol=1e-9, abs_tol=0.0), key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        model, preds, norms = model_and_prediction_digests(Path(tmp))
    print(f'PINS = (\n    "{model}",\n    "{preds}",\n    {norms!r})')
