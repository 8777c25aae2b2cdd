#!/usr/bin/env python3
"""Benchmark of the ``dte`` package: one workload per run, closed loop, one caller.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli-shallow --seed 1 --seconds 30 --trace 0
    python3 perfbench/selftest.py      # tiny runs, clean and with injected faults

Workloads (see ``workloads.py`` for why each was chosen):

* ``cli-shallow``: ``dte train`` then ``dte predict`` on generated CSVs.
* ``lib-deep``: library ``fit``, model to JSON and back, ``predict``.
* ``cv-bundled``: ``dte benchmark`` on the bundled iris, wine and
  breast_cancer CSVs.

The run makes its inputs from ``--seed``, sets up three times (reporting the
median as ``setup_s``), then repeats timed cycles for ``--seconds`` and
checks every cycle's outputs; a failed or wrong operation counts in
``failed``. With ``--trace 0`` it reports the end-to-end metrics of untraced
cycles (rates of the mean repetitions, on the nominal host: see
:func:`reference_s` and :func:`mean_rate`). With
``--trace 1`` it alternates untraced and traced cycles and reports, per
layer, self time and calls per cycle, exact counts read from the layers'
outputs, and the tracing overhead; the spans are written to
``.perfbench_work/traces/``. Every run prints the machine,
library versions and workload parameters before its result, and the last
line of standard output is the result as one JSON object.

It imports ``dte`` from ``src/`` of the checkout and exits with a non-zero
status, printing no result, when the package or the bundled data is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from counts import COLLECT, layer_counts
from spans import Tracer, layer_targets
from workloads import WORKLOADS, no_span

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# spans whose self time and calls the traced run reports, per cycle
LAYER_SPANS = (
    "cli.cmd_train", "cli.cmd_predict", "cli.cmd_benchmark",
    "data.load_csv", "data.bootstrap", "data.Dataset.subset",
    "pipeline.fit", "pipeline.predict", "pipeline.cross_validate",
    "tree.fit_tree", "tree.fit_tree_arrays",
    "embed.dte_t", "embed.project", "embed.Embedding.to_dict", "embed.Embedding.from_dict",
    "lda.fit_lda", "lda.predict_lda", "lda.LdaModel.to_dict", "lda.LdaModel.from_dict",
    "json.dumps", "json.loads",
)
SETUP_REPEATS = 3
# Times are reported as on a nominal host, on which the reference loop of
# reference_s() takes this long; the raw figures are printed beside them.
NOMINAL_REFERENCE_S = 0.012


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_dte():
    """Import ``dte`` from the checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    missing = [p for p in (src / "dte" / "__init__.py", ROOT / "data") if not p.exists()]
    if missing:
        raise SystemExit(f"perfbench: {', '.join(map(str, missing))} not found; "
                         "run from the root of a dte checkout")
    sys.path.insert(0, str(src))
    import dte
    import dte.cli  # noqa: F401  (submodules the workloads and tracer use)
    if Path(dte.__file__).resolve().parent != (src / "dte").resolve():
        raise SystemExit(f"perfbench: imported dte from {dte.__file__}, not {src}")
    return dte


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads()}


def reference_s() -> float:
    """Mean time of five runs of a fixed pure-Python loop, in seconds.

    Timed right after every set-up and every timed sample, as the host's
    speed at that moment. On a shared 2-vCPU host the speed moved by up to
    2x within minutes: over five seeds per workload, raw rates spread by
    17-31% (quartile distance over median), and rates scaled by the run's
    mean loop time by 3-13%. The loop runs only benchmark code, so a change
    to ``dte`` moves the scaled figures as it moves the raw ones.
    """
    t0 = time.perf_counter()
    for _ in range(5):
        sum(i * i % 7 for i in range(150_000))
    return (time.perf_counter() - t0) / 5


def on_nominal_host(seconds: float, reference: float) -> float:
    """``seconds`` measured next to a ``reference`` loop time, as on the nominal host."""
    return seconds * NOMINAL_REFERENCE_S / reference


def run_cycles(workload, seconds, tracer=None):
    """Repeat checked cycles for about ``seconds``; alternate traced ones if tracing.

    Returns (untraced cycles, traced cycles). A cycle is only started if the
    mean cycle so far fits in the remaining time, once the minimum is done.
    """
    untraced, traced = [], []
    min_cycles = 2 if tracer is not None else workload.min_cycles
    start = time.perf_counter()
    while True:
        if tracer is not None and len(untraced) > len(traced):
            tracer.cycle = len(traced)
            with tracer.installed():
                c = workload.cycle(tracer.span)
            c.outputs["layers"] = tracer.take_outputs()
            traced.append(workload.check(c))
        else:
            untraced.append(workload.check(workload.cycle(no_span, reference_s)))
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        balanced = tracer is None or len(untraced) == len(traced)
        if done >= min_cycles and balanced and elapsed + elapsed / done > seconds:
            return untraced, traced


def mean_rate(cycles, work: str, seconds: str, nominal: bool = True) -> float:
    """Work per second, each sample group timed at its mean repetition.

    With ``nominal``, the time is scaled to the nominal host by the mean of
    the reference loop times taken after each sample of the run. Scaling
    the whole run by its mean reference steadied the rates more than
    scaling each sample by its own reading: one short loop does not see
    the same host as a sample of seconds.
    """
    times, work_of, references = {}, {}, []
    for c in cycles:
        for s in c.samples:
            times.setdefault(s.group, []).append(getattr(s, seconds))
            work_of[s.group] = getattr(s, work)
            references.append(s.reference_s)
    total = sum(statistics.fmean(t) for t in times.values())
    if nominal:
        total = on_nominal_host(total, statistics.fmean(references))
    return sum(work_of.values()) / total


def end_to_end(cycles, setups):
    """(attempted, failed, bounded metrics, printed-only metrics) of untraced cycles.

    ``setups`` holds (seconds, reference loop seconds) per set-up. The fit
    latency percentiles pool every raw fit time of the run, so they carry
    the host's speed swings and are printed without a bound, as are the raw
    rates and set-up time.
    """
    fit_ms = [x for c in cycles for x in c.fit_ms]
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    bounded = {
        "train_rows_per_s": (mean_rate(cycles, "train_rows", "train_s"), "rows/s"),
        "predict_rows_per_s": (mean_rate(cycles, "predict_rows", "predict_s"), "rows/s"),
        "cv_folds_per_s": (mean_rate(cycles, "folds", "wall_s"), "folds/s"),
        "test_error": (statistics.median(c.test_error for c in cycles), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(on_nominal_host(*s) for s in setups), "s"),
    }
    printed = {
        "train_rows_per_s.raw": (mean_rate(cycles, "train_rows", "train_s", False), "rows/s"),
        "predict_rows_per_s.raw": (mean_rate(cycles, "predict_rows", "predict_s", False),
                                   "rows/s"),
        "cv_folds_per_s.raw": (mean_rate(cycles, "folds", "wall_s", False), "folds/s"),
        "setup_s.raw": (statistics.median(t for t, _ in setups), "s"),
        "fold_fit_ms.p50": (float(np.percentile(fit_ms, 50)), "ms"),
        "fold_fit_ms.p95": (float(np.percentile(fit_ms, 95)), "ms"),
    }
    return attempted, failed, bounded, printed


def per_layer(workload, untraced, traced, tracer):
    """(attempted, failed, per-layer metrics) of a traced run."""
    metrics = {}
    per_cycle = [tracer.self_times(i) for i in range(len(traced))]
    for name in LAYER_SPANS:
        metrics[f"{name}.self_s"] = (statistics.median(
            st.get(name, (0.0, 0))[0] for st in per_cycle), "s")
        metrics[f"{name}.calls"] = (per_cycle[-1].get(name, (0.0, 0))[1], "count")
    last = traced[-1]
    metrics.update(layer_counts(last.outputs["layers"]))
    metrics["data.csv_bytes_in"] = (workload.csv_bytes_in, "bytes")
    metrics["cli.model_bytes"] = (workload.model_bytes(last), "bytes")
    plain = statistics.median(c.wall_s for c in untraced)
    with_trace = statistics.median(c.wall_s for c in traced)
    metrics["trace.untraced_cycle_s"] = (plain, "s")
    metrics["trace.traced_cycle_s"] = (with_trace, "s")
    metrics["trace.overhead_pct"] = (100.0 * (with_trace / plain - 1.0), "%")
    attempted = sum(c.attempted for c in untraced + traced)
    failed = sum(c.failed for c in untraced + traced)
    return attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    dte = import_dte()
    env = environment()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](dte, ROOT, workdir, args.seed)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append((time.perf_counter() - t0, reference_s()))

        if args.trace:
            tracer = Tracer(layer_targets(dte), COLLECT)
            untraced, traced = run_cycles(workload, args.seconds, tracer)
            attempted, failed, metrics = per_layer(workload, untraced, traced, tracer)
            printed = {}
            (WORK / "traces").mkdir(exist_ok=True)
            tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
            cycles = untraced + traced
        else:
            cycles, _ = run_cycles(workload, args.seconds)
            attempted, failed, metrics, printed = end_to_end(cycles, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["reference_s"] = {"nominal": NOMINAL_REFERENCE_S,
                          "per_sample": [round(s.reference_s, 5) for c in cycles
                                         for s in c.samples if s.reference_s]}

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} cycles={len(cycles)} "
          f"loop=closed, 1 caller")
    print("# env " + json.dumps(env))
    print("# params " + json.dumps(workload.params))
    samples = {}
    for c in cycles:
        for s in c.samples:
            group = samples.setdefault(s.group, {"train_s": [], "predict_s": [], "wall_s": []})
            for key, values in group.items():
                values.append(round(getattr(s, key), 4))
    print("# samples " + json.dumps(samples))
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6g} {unit}")
    for name, (value, unit) in printed.items():
        print(f"{name:<34} {value:>16.6g} {unit} (printed only, no bound)")
    print(f"{'failed_ops_ratio':<34} {failed / attempted:>16.6g} fraction "
          f"({failed} of {attempted} operations)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
