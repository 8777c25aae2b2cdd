"""Command-line interface: train, predict, benchmark, simulate, verify-theory.

Exit codes: 0 success, 1 verification/assertion failure, 2 usage or
validation error. The default RNG seed is 42, overridable with the
DTE_SEED environment variable or --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import Column, DataError, load_csv, load_features, source_columns
from .embed import Embedding, anchor_intercept, project
from .lda import LdaModel, fit_lda, predict_lda
from .oracle import (nearest_mean_instance, oracle_embedding,
                     random_discrete_instance, sample_mixture,
                     three_cluster_spec, verify_instance)
from .pipeline import cross_validate, fit, predict
from .tree import TreeConfig

MODEL_FORMAT_VERSION = 2  # version 1 held an m-wide LDA over the anchors


def _default_seed() -> int:
    env = os.environ.get("DTE_SEED")
    return int(env) if env else 42


def _tree_config(args) -> TreeConfig:
    return TreeConfig(min_leaf_size=args.min_leaf, num_bins=args.bins,
                      max_depth=args.max_depth)


def _add_tree_flags(p):
    p.add_argument("--min-leaf", type=int, default=10, help="minimum rows per leaf")
    p.add_argument("--bins", type=int, default=30,
                   help="equiprobable bins for split candidates")
    p.add_argument("--max-depth", type=int, default=None, help="depth cap (default none)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default 42, or env DTE_SEED)")


def cmd_train(args) -> int:
    ds = load_csv(args.data, args.label, has_header=args.header)
    cfg = _tree_config(args)
    seed = args.seed if args.seed is not None else _default_seed()
    clf = fit(ds, cfg, t=args.trees, seed=seed)
    model = {
        "format_version": MODEL_FORMAT_VERSION,
        "package_version": __version__,
        "config": cfg.to_dict(),
        "t": args.trees,
        "seed": seed,
        "label_column": ds.label_column,
        "label_names": list(ds.label_names),
        "schema": [c.to_dict() for c in ds.schema],
        "has_header": args.header,
        "embedding": clf.embedding.to_dict(),
        "lda": clf.lda.to_dict(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(model, fh)
    if args.verbose:
        rank = np.linalg.matrix_rank(clf.embedding.anchors)
        kept = np.linalg.matrix_rank(clf.lda.cov_pinv, hermitian=True)
        print(f"trained on {ds.n} rows, {ds.p} features, {ds.n_classes} classes; "
              f"embedding width {clf.embedding.m}; rank(W) {rank}; "
              f"pinv kept {kept} directions", file=sys.stderr)
        levels = [f"; {name}: {len(idx)} levels" for name, idx in source_columns(ds.schema)
                  if ds.schema[idx[0]].kind == "onehot"]
        print(f"source columns: {sum(c.kind == 'numeric' for c in ds.schema)} numeric, "
              f"{len(levels)} categorical{''.join(levels)}", file=sys.stderr)
    return 0


def _load_model(path):
    with open(path, encoding="utf-8") as fh:
        model = json.load(fh)
    version = model.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"{path}: model format version {version} is not supported "
                        f"(this dte reads version {MODEL_FORMAT_VERSION}); "
                        f"retrain the model with dte train")
    try:
        emb = Embedding.from_dict(model["embedding"])
        lda = LdaModel.from_dict(model["lda"])
        schema = tuple(Column.from_dict(c) for c in model["schema"])
        names = model["label_names"]
        if type(model["has_header"]) is not bool or type(model["label_column"]) is not str:
            raise TypeError("has_header must be a bool and label_column a str")
        if type(names) is not list or list(map(type, names)) != [str] * lda.n_classes:
            raise ValueError(f"label_names must be a list of {lda.n_classes} strings")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model ({type(exc).__name__}: {exc})") from None
    _check_model(path, emb, lda)
    return model, schema, lda


def _check_model(path, emb: Embedding, lda: LdaModel) -> None:
    """Reject a model whose parts disagree, before any of them is used."""
    arrays = {"W": emb.anchors, "b": emb.intercept, "lda means": lda.means,
              "lda cov_pinv": lda.cov_pinv, "lda log_priors": lda.log_priors}
    bad = [name for name, a in arrays.items() if not np.all(np.isfinite(a))]
    if bad:
        raise DataError(f"{path}: non-finite values in {', '.join(bad)}")
    if lda.means.ndim != 2 or lda.log_priors.shape != (lda.n_classes,):
        raise DataError(f"{path}: lda means {lda.means.shape} and log_priors "
                        f"{lda.log_priors.shape} are not (K, p) and (K,)")
    if lda.dim != emb.p or lda.cov_pinv.shape != (emb.p, emb.p):
        raise DataError(f"{path}: LDA dimension {lda.dim} does not match "
                        f"the {emb.p} features")
    leaves = [tree.n_leaves for tree in emb.trees]
    if leaves != list(emb.leaf_counts):
        raise DataError(f"{path}: leaf_counts {list(emb.leaf_counts)} do not match "
                        f"the trees' leaves {leaves}")
    # JSON round-trips floats exactly, so the saved intercept is bit-equal
    if not np.array_equal(emb.intercept, anchor_intercept(emb.anchors)):
        raise DataError(f"{path}: intercept b is not -||W||^2 / 2")


def cmd_predict(args) -> int:
    model, schema, lda = _load_model(args.model)
    X = load_features(args.data, schema, model["has_header"])
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([model["label_column"]])
        w.writerows(zip(map(model["label_names"].__getitem__, (predict_lda(lda, X) - 1).tolist())))
    return 0


def cmd_benchmark(args) -> int:
    ds = load_csv(args.data, args.label, has_header=args.header)
    cfg = _tree_config(args)
    seed = args.seed if args.seed is not None else _default_seed()
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    Path(args.out_prefix).parent.mkdir(parents=True, exist_ok=True)
    reports = cross_validate(ds, methods, replicates=args.replicates,
                             folds=args.folds, seed=seed, cfg=cfg)
    name = Path(args.data).stem

    csv_path = f"{args.out_prefix}.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset", "method", "replicate", "fold", "error",
                    "train_ms", "test_ms"])
        for rep in reports:
            w.writerows(rep.rows(name))

    summary = {"dataset": name, "n": ds.n, "p": ds.p, "k": ds.n_classes,
               "replicates": args.replicates, "folds": args.folds, "seed": seed,
               "methods": [rep.to_dict() for rep in reports]}
    with open(f"{args.out_prefix}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)

    for rep in reports:
        print(f"{name} {rep.method}: error {100 * rep.mean_error:.2f}% "
              f"+/- {100 * rep.std_error:.2f}%")
    return 0


def cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    spec = three_cluster_spec(sigma=args.sigma)
    cfg = _tree_config(args)

    records = []
    dump_done = False
    for r in range(args.repeats):
        train_seed, test_seed = np.random.SeedSequence([seed, r]).spawn(2)
        train, comps = sample_mixture(spec, args.n, train_seed, return_components=True)
        test = sample_mixture(spec, args.n_test, test_seed)

        clf = fit(train, cfg, t=args.trees, seed=np.random.SeedSequence([seed, r, 7]))
        z_train_acc = float(np.mean(predict(clf, train.features) == train.labels))
        z_test_acc = float(np.mean(predict(clf, test.features) == test.labels))

        zo_train = oracle_embedding(spec, train.features)
        lda_o = fit_lda(zo_train, train.labels)
        o_train_acc = float(np.mean(predict_lda(lda_o, zo_train) == train.labels))
        zo_test = oracle_embedding(spec, test.features)
        o_test_acc = float(np.mean(predict_lda(lda_o, zo_test) == test.labels))

        records.append({"train_acc": z_train_acc, "test_acc": z_test_acc,
                        "oracle_train_acc": o_train_acc, "oracle_test_acc": o_test_acc,
                        "m": clf.embedding.m})
        if args.dump and not dump_done:
            z = project(clf.embedding, train.features)
            with open(args.dump, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow([f"z{j}" for j in range(z.shape[1])] + ["label", "cluster"])
                w.writerows(zip(*[map(repr, col) for col in z.T.tolist()],
                                train.labels.tolist(), (comps + 1).tolist()))
            dump_done = True

    mean = {key: float(np.mean([rec[key] for rec in records]))
            for key in ("train_acc", "test_acc", "oracle_train_acc", "oracle_test_acc")}
    report = {"n": args.n, "n_test": args.n_test, "sigma": args.sigma,
              "trees": args.trees, "seed": seed, "repeats": args.repeats,
              "mean": mean, "runs": records}
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_verify_theory(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    records = []
    failures = 0
    for i in range(args.instances):
        if args.epsilon_zero:
            joint, part = random_discrete_instance([seed, i], homogeneous=True)
        elif i % 2 == 0:
            joint, part = random_discrete_instance([seed, i])
        else:
            joint, part = nearest_mean_instance([seed, i], pure=(i % 4 == 3))
        rec = verify_instance(joint, part, instance_seed=[seed, i])
        records.append(rec)
        bad_bound = not rec["bound_ok"]
        bad_zero = args.epsilon_zero and rec["deviation"] != 0.0
        bad_error = rec["hypothesis_ok"] and \
            abs(rec["Lg_classifier"] - rec["Lg_formula"]) > 1e-12
        if bad_bound or bad_zero or bad_error:
            failures += 1

    report = {"instances": records, "failures": failures, "ok": failures == 0}
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(f"verified {args.instances} instances, {failures} failures")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dte",
        description="Leaf-mean decision tree embeddings with LDA classification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write it as JSON")
    p.add_argument("--data", required=True, help="labeled CSV file")
    p.add_argument("--label", required=True,
                   help="label column name (or zero-based index with --no-header)")
    p.add_argument("--no-header", dest="header", action="store_false")
    p.add_argument("--trees", type=int, default=1, help="ensemble size t")
    _add_tree_flags(p)
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict labels for a feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="feature CSV matching the training schema")
    p.add_argument("--out", required=True, help="output predictions CSV "
                   "(columns: the original label column)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("benchmark", help="repeated stratified cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--no-header", dest="header", action="store_false")
    p.add_argument("--methods", default="dte-1,dte-3,tree",
                   help="comma list of dte-<t> and tree")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--replicates", type=int, default=10)
    _add_tree_flags(p)
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.csv (dataset,method,replicate,fold,error,"
                        "train_ms,test_ms) and <prefix>.json")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("simulate", help="two-class three-cluster benchmark run")
    p.add_argument("--n", type=int, default=100, help="training sample size")
    p.add_argument("--n-test", type=int, default=100)
    p.add_argument("--sigma", type=float, default=0.3)
    p.add_argument("--trees", type=int, default=1)
    p.add_argument("--repeats", type=int, default=1,
                   help="average accuracies over this many seeded runs")
    _add_tree_flags(p)
    p.add_argument("--out", help="write the accuracy report JSON here")
    p.add_argument("--dump", help="write the training embedding columns as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-theory",
                       help="brute-force checks of the embedding guarantees")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--epsilon-zero", action="store_true",
                   help="use only homogeneous instances (deviation must be 0)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="write per-instance reports JSON here")
    p.set_defaults(func=cmd_verify_theory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
