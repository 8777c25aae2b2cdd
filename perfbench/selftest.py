#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, clean and faulty.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it runs untraced and traced cycles on tiny inputs and
requires every check to pass and every per-layer metric to be reported.
Then it injects a deliberately wrong prediction into the measured path and
requires the checks to report failed operations. Exits 0 when all cases
behave, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from counts import COLLECT
from run import LAYER_SPANS, ROOT, WORK, end_to_end, import_dte, per_layer, run_cycles
from spans import Tracer, layer_targets
from workloads import WORKLOADS, no_span

SEED = 42
TINY = {
    "cli-shallow": dict(n_train=600, n_predict=300),
    "lib-deep": dict(n_train=1_500, n_predict=500),
    "cv-bundled": dict(replicates=2),
}


@contextmanager
def patched(owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)`` for the block."""
    raw = owner.__dict__[attr]
    static = isinstance(raw, staticmethod)
    new = make(raw.__func__ if static else raw)
    setattr(owner, attr, staticmethod(new) if static else new)
    try:
        yield
    finally:
        setattr(owner, attr, raw)


def first_label_wrong(fn, n_classes):
    """Wrap a label-returning function so row 0 gets another class."""
    def wrong(*args, **kwargs):
        labels = np.array(fn(*args, **kwargs))
        if labels.size:
            labels[0] = labels[0] % n_classes(args) + 1
        return labels
    return wrong


def all_labels_wrong(fn):
    def wrong(clf, X):
        return fn(clf, X) % clf.lda.n_classes + 1
    return wrong


# name -> (workload, fault installed on the second cycle only?, fault factory)
FAULTS = {
    "cli-shallow: dte predict mislabels one row": (
        "cli-shallow", False,
        lambda dte, w: patched(dte.cli, "predict_lda", lambda fn: first_label_wrong(
            fn, lambda args: args[0].n_classes))),
    "lib-deep: reloaded model mislabels one row": (
        "lib-deep", False,
        lambda dte, w: patched(type(w), "_load_predict", lambda fn: first_label_wrong(
            fn, lambda args: 3))),  # the lib-deep mixture has three classes
    "cv-bundled: second pass mislabels one row per fold": (
        "cv-bundled", True,
        lambda dte, w: patched(dte.pipeline, "predict", lambda fn: first_label_wrong(
            fn, lambda args: args[0].lda.n_classes))),
    "cv-bundled: every prediction wrong, outside the error bands": (
        "cv-bundled", False,
        lambda dte, w: patched(dte.pipeline, "predict", all_labels_wrong)),
}


def make(dte, name, workdir):
    w = WORKLOADS[name](dte, ROOT, workdir, SEED, **TINY[name])
    w.setup()
    return w


def clean_case(dte, name, workdir) -> list[str]:
    """Problems found in a clean traced + untraced run (empty when fine)."""
    w = make(dte, name, workdir)
    problems = []
    untraced, _ = run_cycles(w, 0.0)
    attempted, failed, _, _ = end_to_end(untraced, [(0.0, 1.0)])
    if failed:
        problems.append(f"untraced: {failed} of {attempted} operations failed")
    tracer = Tracer(layer_targets(dte), COLLECT)
    untraced, traced = run_cycles(w, 0.0, tracer)
    attempted, failed, metrics = per_layer(w, untraced, traced, tracer)
    if failed:
        problems.append(f"traced: {failed} of {attempted} operations failed")
    missing = [f"{s}.{k}" for s in LAYER_SPANS for k in ("self_s", "calls")
               if f"{s}.{k}" not in metrics]
    if missing:
        problems.append(f"missing per-layer metrics {missing}")
    return problems


def fault_case(dte, name, later, fault, workdir) -> tuple[int, int]:
    w = make(dte, name, workdir)
    attempted = failed = 0
    for i in range(2):
        with fault(dte, w) if i == 1 or not later else nullcontext():
            c = w.check(w.cycle(no_span))
        attempted, failed = attempted + c.attempted, failed + c.failed
    return attempted, failed


def main() -> int:
    dte = import_dte()
    WORK.mkdir(exist_ok=True)
    ok = True
    for name in WORKLOADS:
        workdir = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=WORK))
        try:
            problems = clean_case(dte, name, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ok &= not problems
        print(f"{'FAIL' if problems else 'PASS'}  {name}: clean run "
              + ("; ".join(problems) if problems else "passes every check"))
    for label, (name, later, fault) in FAULTS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=WORK))
        try:
            attempted, failed = fault_case(dte, name, later, fault, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ok &= failed > 0
        print(f"{'PASS' if failed else 'FAIL'}  {label}: "
              f"{failed} of {attempted} operations reported failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
