#!/usr/bin/env python3
"""Training/inference wall time of DTE-1 across synthetic sample sizes.

Three well-separated Gaussian classes in 20 dimensions; the train-time
ratio per doubling of n should stay near 2 (quasi-linear scaling).
"""

import argparse
import csv

import numpy as np

from dte import timing_sweep
from dte.oracle import GaussianMixtureSpec, sample_mixture


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="25000,50000,100000,200000")
    parser.add_argument("--dim", type=int, default=20)
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--trees", type=int, default=1)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", help="optional CSV output path")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    spec = GaussianMixtureSpec(
        rng.normal(scale=4.0, size=(args.classes, args.dim)), 1.0,
        np.arange(1, args.classes + 1),
        np.full(args.classes, 1.0 / args.classes))

    sizes = [int(s) for s in args.sizes.split(",")]
    rows = timing_sweep(lambda n: sample_mixture(spec, n, [args.seed, n]), sizes,
                        t=args.trees)

    print(f"{'n':>9}{'train s':>10}{'test s':>9}{'m':>5}{'ratio':>7}")
    prev = None
    for r in rows:
        ratio = "" if prev is None else f"{r['train_seconds'] / prev:.2f}"
        print(f"{r['n']:>9}{r['train_seconds']:>10.3f}{r['test_seconds']:>9.4f}"
              f"{r['m']:>5}{ratio:>7}")
        prev = r["train_seconds"]

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "train_seconds", "test_seconds", "m"])
            for r in rows:
                w.writerow([r["n"], r["train_seconds"], r["test_seconds"], r["m"]])


if __name__ == "__main__":
    main()
