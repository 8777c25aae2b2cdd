"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import dataclasses
import time

import numpy as np

from dte import (TreeConfig, cross_validate, fit, fit_lda, predict, predict_lda,
                 project, timing_sweep)
from dte.embed import anchor_intercept
from dte.oracle import (GaussianMixtureSpec, bayes_accuracy, check_indicator_error,
                        check_sufficiency, nearest_mean_instance,
                        oracle_embedding, random_discrete_instance,
                        sample_mixture, three_cluster_spec)


def criterion(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_a1_simulation_accuracy_matches_oracle_embedding():
    spec = three_cluster_spec()
    start = time.perf_counter()
    acc_tree, acc_oracle = [], []
    for s in range(100):
        train_seed, test_seed = np.random.SeedSequence([7, s]).spawn(2)
        train = sample_mixture(spec, 100, train_seed)
        test = sample_mixture(spec, 100, test_seed)
        clf = fit(train, TreeConfig(min_leaf_size=10), t=1, seed=0)
        acc_tree.append(np.mean(predict(clf, test.features) == test.labels))
        z_star = oracle_embedding(spec, train.features)
        model = fit_lda(z_star, train.labels)
        preds = predict_lda(model, oracle_embedding(spec, test.features))
        acc_oracle.append(np.mean(preds == test.labels))
    elapsed = time.perf_counter() - start
    mean_acc = float(np.mean(acc_tree))
    gap = abs(mean_acc - float(np.mean(acc_oracle)))
    criterion("A1", mean_acc >= 0.92 and gap <= 0.03 and elapsed < 10.0,
              f"mean_acc={mean_acc:.4f} (>=0.92), |acc(Z)-acc(Z*)|={gap:.4f} "
              f"(<=0.03), {elapsed:.1f}s (<10s)")


def test_a2_iris_dte1_beats_plain_tree(iris):
    start = time.perf_counter()
    dte1_rep, tree_rep = cross_validate(iris, ["dte-1", "tree"],
                                        replicates=10, folds=5, seed=42)
    elapsed = time.perf_counter() - start
    e_dte, e_tree = dte1_rep.mean_error, tree_rep.mean_error
    criterion("A2", 0.01 <= e_dte <= 0.07 and e_dte < e_tree and elapsed < 30.0,
              f"iris dte-1={100 * e_dte:.2f}% (in [1,7]), tree={100 * e_tree:.2f}% "
              f"(dte-1 strictly lower), {elapsed:.1f}s (<30s)")


def test_a3_wine_dte3_competitive(wine):
    start = time.perf_counter()
    dte1_rep, dte3_rep = cross_validate(wine, ["dte-1", "dte-3"],
                                        replicates=10, folds=5, seed=42)
    elapsed = time.perf_counter() - start
    e1, e3 = dte1_rep.mean_error, dte3_rep.mean_error
    criterion("A3", e3 <= 0.06 and e3 <= e1 + 0.005 and elapsed < 30.0,
              f"wine dte-3={100 * e3:.2f}% (<=6%), dte-1={100 * e1:.2f}% "
              f"(dte-3 <= dte-1 + 0.5pp), {elapsed:.1f}s (<30s)")


def test_a4_breast_cancer_dte1_error(cancer):
    start = time.perf_counter()
    rep, = cross_validate(cancer, ["dte-1"], replicates=10, folds=5, seed=42)
    elapsed = time.perf_counter() - start
    criterion("A4", rep.mean_error <= 0.07 and elapsed < 60.0,
              f"breast-cancer dte-1={100 * rep.mean_error:.2f}% (<=7%), "
              f"{elapsed:.1f}s (<60s)")


def test_a5_bayes_accuracy_of_simulation_spec():
    start = time.perf_counter()
    acc = bayes_accuracy(three_cluster_spec(), 10 ** 6, seed=2024)
    elapsed = time.perf_counter() - start
    criterion("A5", 0.990 <= acc <= 0.996 and elapsed < 10.0,
              f"bayes_acc={acc:.4f} (in [0.990, 0.996]), {elapsed:.1f}s (<10s)")


def test_a6_training_scales_quasi_linearly():
    rng = np.random.default_rng(3)
    spec = GaussianMixtureSpec(rng.normal(scale=4.0, size=(3, 20)), 1.0,
                               np.array([1, 2, 3]), np.full(3, 1 / 3))

    def gen(n):
        return sample_mixture(spec, n, [11, n])

    fit(gen(2000), TreeConfig())  # warm-up outside the measured sweep
    rows = timing_sweep(gen, [25_000, 50_000, 100_000])
    times = [r["train_seconds"] for r in rows]
    ratios = [b / a for a, b in zip(times, times[1:])]
    criterion("A6", all(r < 3.0 for r in ratios),
              "train seconds " + ", ".join(f"n={r['n']}: {r['train_seconds']:.2f}"
                                           for r in rows)
              + f"; doubling ratios {[f'{r:.2f}' for r in ratios]} (< 3)")


def test_p1_sufficiency_bound_on_random_instances():
    worst_slack = -np.inf
    for i in range(200):
        joint, part = random_discrete_instance([101, i])
        rep = check_sufficiency(joint, part)
        assert rep.deviation <= rep.epsilon + 1e-12, f"instance {i}"
        worst_slack = max(worst_slack, rep.deviation - rep.epsilon)
    zero_devs = []
    for i in range(200):
        joint, part = random_discrete_instance([102, i], homogeneous=True)
        rep = check_sufficiency(joint, part)
        zero_devs.append(rep.deviation)
    criterion("P1", all(d == 0.0 for d in zero_devs),
              f"200 random instances bounded (max dev-eps={worst_slack:.2e}); "
              f"200 homogeneous instances have deviation exactly 0")


def test_p2_indicator_error_equals_impurity_formula():
    worst = 0.0
    pure_errors = []
    for i in range(200):
        pure = i % 4 == 0
        joint, part = nearest_mean_instance([103, i], pure=pure)
        rep = check_indicator_error(joint, part)
        assert rep.hypothesis_ok, f"instance {i} violated the nearest-mean hypothesis"
        diff = abs(rep.error_classified - rep.error_formula)
        assert diff <= 1e-12, f"instance {i}: diff {diff:.2e}"
        worst = max(worst, diff)
        if pure:
            pure_errors.append(rep.error_classified)
    criterion("P2", all(e == 0.0 for e in pure_errors),
              f"200 nearest-mean instances agree (max diff={worst:.2e}); "
              f"pure instances classify perfectly")


def test_p3_nearest_anchor_identity():
    rng = np.random.default_rng(104)
    pairs = 0
    worst_rel = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 9))
        p = int(rng.integers(1, 6))
        anchors = rng.normal(scale=3.0, size=(m, p))
        xs = rng.normal(scale=3.0, size=(100, p))
        z = xs @ anchors.T + anchor_intercept(anchors)
        d2 = ((xs[:, None, :] - anchors[None]) ** 2).sum(axis=2)
        assert np.array_equal(z.argmax(axis=1), d2.argmin(axis=1))
        lhs = z[:, :, None] - z[:, None, :]
        rhs = 0.5 * (d2[:, None, :] - d2[:, :, None])
        scale = np.abs(rhs).max()
        err = np.abs(lhs - rhs).max()
        assert err <= 1e-10 * max(scale, 1.0)
        worst_rel = max(worst_rel, err / max(scale, 1.0))
        pairs += xs.shape[0]
    # exact ties (duplicated anchors) must break the same way on both sides
    anchors = np.array([[2.0, 1.0], [-1.0, 3.0], [2.0, 1.0]])
    xs = rng.normal(size=(100, 2))
    z = xs @ anchors.T + anchor_intercept(anchors)
    d2 = ((xs[:, None, :] - anchors[None]) ** 2).sum(axis=2)
    ties_ok = np.array_equal(z.argmax(axis=1), d2.argmin(axis=1))
    criterion("P3", pairs == 10_000 and ties_ok,
              f"{pairs} (x, anchors) pairs: argmax Z == nearest anchor, "
              f"identity max rel err={worst_rel:.2e} (<=1e-10), ties consistent")


def test_p4_leaf_means_aggregate_to_global_mean(iris, wine, cancer):
    from dte.data import bootstrap
    from dte.embed import _leaf_means
    from dte.tree import fit_tree_arrays

    datasets = {"iris": iris, "wine": wine, "cancer": cancer,
                "sim": sample_mixture(three_cluster_spec(), 100, 77)}
    worst = 0.0
    trees = 0
    for name, ds in datasets.items():
        # the tree on the data itself plus two fitted on bootstrap resamples,
        # each checked against the matrix it was actually fitted on
        matrices = [(ds.features, ds.labels)]
        for s in (1, 2):
            idx = bootstrap(ds, [13, s])
            matrices.append((ds.features[idx], ds.labels[idx]))
        for X, y in matrices:
            tree = fit_tree_arrays(X, y, ds.n_classes, TreeConfig())
            means = _leaf_means(X, tree.apply(X), tree.n_leaves)
            sizes = tree.histogram.sum(axis=1)
            agg = (sizes[:, None] * means).sum(axis=0) / X.shape[0]
            global_mean = X.mean(axis=0)
            rel = np.abs(agg - global_mean).max() / max(np.abs(global_mean).max(), 1.0)
            assert rel <= 1e-10, f"{name}: rel {rel:.2e}"
            worst = max(worst, rel)
            trees += 1
    criterion("P4", trees == 12,
              f"{trees} fitted trees: mass-weighted leaf means reproduce the "
              f"global mean, max rel err={worst:.2e} (<=1e-10)")


def test_p5_intercept_sign_flip_never_changes_predictions():
    spec = three_cluster_spec()
    flips = 0
    for s in range(20):
        train = sample_mixture(spec, 80, [105, s])
        test = sample_mixture(spec, 60, [106, s])
        clf = fit(train, TreeConfig(), seed=s)
        # the rule on x against pseudoinverse LDA on Z under either sign of b
        for emb in (clf.embedding,
                    dataclasses.replace(clf.embedding, intercept=-clf.embedding.intercept)):
            lda = fit_lda(project(emb, train.features), train.labels)
            for X in (test.features, train.features):
                assert np.array_equal(predict(clf, X), predict_lda(lda, project(emb, X))), \
                    f"instance {s}: sign flip changed predictions"
        flips += 1
    criterion("P5", flips == 20,
              "20 seeded instances: flipping the intercept sign leaves every "
              "LDA prediction unchanged")
