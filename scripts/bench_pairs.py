#!/usr/bin/env python3
"""Alternating perfbench pairs of two commits, appended to BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --base REV [--head REV] [--seed N]
        [--workload W ...]

Each commit is extracted with ``git archive`` into its own temporary
directory, and from each copy's root every run is

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

with S the ``run_seconds`` of ``BENCHMARK.json``. Each workload gets ten pairs;
odd pairs run the base first, even pairs the head. A run that exits non-zero,
or whose last line of output is not a JSON object, is recorded as failed and
reported; it is never retried. For each workload one entry is appended to
``BENCH_<workload>.json`` at the repository root: both commit ids, the host,
the parameters, the end-to-end metrics of every run, and per metric each
side's median and quartiles, change/base, and how many pairs the change read
better (the direction is ``better`` in ``BENCHMARK.json``; ties count for
neither side). The markdown table of the summary is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
RATE_NOTE = ("perfbench scales every rate by a pure-Python reference loop timed after each "
             "sample, and that loop runs slower after a large free, so a change that frees "
             "less memory reads slower on every rate of its workload (CHANGES.md, the FOUND "
             "line on perfbench run.py's reference_s)")


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``, or None if empty."""
    if not values:
        return None
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, better):
    """Per metric of ``better`` ({name: "higher" | "lower"}): each side's median
    and quartiles, change/base, and the pairs each side read better.

    ``pairs`` holds (base metrics, head metrics) per pair, each a {name: value}
    dict, or None for a failed run; a pair with a failed run is not compared.
    """
    out = {}
    for name, direction in better.items():
        base = quartiles([b[name] for b, _ in pairs if b is not None])
        head = quartiles([h[name] for _, h in pairs if h is not None])
        sign = 1 if direction == "higher" else -1
        gains = [sign * (h[name] - b[name]) for b, h in pairs if b is not None and h is not None]
        head_better, base_better = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
        out[name] = {
            "better": direction,
            **{side: None if s is None else {"median": s[1], "quartiles": [s[0], s[2]]}
               for side, s in (("base", base), ("head", head))},
            "change_over_base": head[1] / base[1] if base and head and base[1] else None,
            "pairs": len(gains), "head_better": head_better, "base_better": base_better,
            "ties": len(gains) - head_better - base_better,
        }
    return out


def _num(x):
    for scale, suffix in ((1e6, "M"), (1e3, "k")):
        if abs(x) >= scale:
            return f"{x / scale:.4g}{suffix}"
    return f"{x:.4g}"


def table_rows(workload, summary):
    """Markdown rows: workload, metric, parent, change, change/parent, change better."""
    rows = []
    for name, s in summary.items():
        cells = []
        for side in ("base", "head"):
            st = s[side]
            cells.append("-" if st is None else
                         f"{_num(st['median'])} [{_num(st['quartiles'][0])}, "
                         f"{_num(st['quartiles'][1])}]")
        if s["pairs"] and s["ties"] == s["pairs"]:
            ratio, count = "identical", f"{s['ties']} ties"
        else:
            ratio = "-" if s["change_over_base"] is None else f"{s['change_over_base'] - 1:+.1%}"
            count = f"{s['head_better']}/{s['pairs']}" + (f", {s['ties']} ties" if s["ties"] else "")
        rows.append(f"| {workload} | {name} | {cells[0]} | {cells[1]} | {ratio} | {count} |")
    return rows


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(commit: str, dest: Path):
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", commit), check=True)


def run_once(copy: Path, workload: str, seed: int, seconds: float, names):
    """One untraced perfbench run: (the result's metrics ``names`` as {name: value}
    and its ``attempted`` and ``failed`` counts, or None, and why it failed, or None)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"exit {proc.returncode}: {tail[0]}"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
        metrics = {name: float(result["metrics"][name]["value"]) for name in names}
        return {"metrics": metrics, "attempted": result["attempted"],
                "failed": result["failed"]}, None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None, "last line is not a JSON result with every end-to-end metric"


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)
    seconds = float(bench["run_seconds"])

    commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
               for side, rev in (("base", args.base), ("head", args.head))}
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE")}
    table = ["| workload | metric | parent | change | change/parent | change better |",
             "|---|---|---|---|---|---|"]
    failures, notes = [], []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copies = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            extract(commit, copies[side])
        for workload in args.workload:
            runs, pairs = [], []
            for pair in range(1, PAIRS + 1):
                order = ("base", "head") if pair % 2 else ("head", "base")
                got = {}
                for side in order:
                    t0 = time.perf_counter()
                    run, reason = run_once(copies[side], workload, args.seed, seconds,
                                           better)
                    runs.append({"pair": pair, "side": side, "reason": reason, **(run or {})})
                    if reason is not None:
                        failures.append(f"{workload} pair {pair} {side}: {reason}")
                    got[side] = run and run["metrics"]
                    print(f"{workload} pair {pair}/{PAIRS} {side}: "
                          f"{'ok' if reason is None else 'FAILED ' + reason} "
                          f"({time.perf_counter() - t0:.0f} s)", file=sys.stderr, flush=True)
                pairs.append((got["base"], got["head"]))
            summary = summarize(pairs, better)
            failed_ops = {side: sum(r["failed"] for r in runs if r["side"] == side
                                    and r["reason"] is None) for side in commits}
            entry = {"base": commits["base"], "head": commits["head"],
                     "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                     "host": host,
                     "params": {"workload": workload, "pairs": PAIRS,
                                "seconds": seconds, "seed": args.seed, "trace": 0},
                     "note": RATE_NOTE, "runs": runs, "failed_ops": failed_ops,
                     "summary": summary}
            path = ROOT / f"BENCH_{workload}.json"
            entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
            entries.append(entry)
            path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
            table += table_rows(workload, summary)
            notes.append(f"{workload}: failed operations base {failed_ops['base']}, "
                         f"change {failed_ops['head']}")
    print("\n".join(table + notes))
    print("failed runs: " + ("none" if not failures else "; ".join(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
