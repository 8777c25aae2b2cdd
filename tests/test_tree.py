import json
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dte import DecisionTree, TreeConfig, fit_tree, from_arrays, stratified_folds
from dte import tree as tree_module
from dte.embed import tree_samples
from dte.oracle import sample_mixture, three_cluster_spec
from dte.tree import LeafNode, SplitNode, fit_tree_arrays, fit_trees_arrays

import test_tree_golden as golden
from reference_tree import reference_split


def gini(hist):
    n = hist.sum()
    return 1.0 - float(((hist / n) ** 2).sum())


def exhaustive_best_decrease(x, y):
    """Best Gini decrease over every threshold between consecutive values."""
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    n = len(x)
    k = int(y.max())
    parent = gini(np.bincount(ys, minlength=k + 1)[1:])
    best = 0.0
    for i in range(1, n):
        if xs[i] == xs[i - 1]:
            continue
        left = np.bincount(ys[:i], minlength=k + 1)[1:]
        right = np.bincount(ys[i:], minlength=k + 1)[1:]
        dec = parent - (i / n) * gini(left) - ((n - i) / n) * gini(right)
        best = max(best, dec)
    return best


@pytest.fixture(scope="module")
def deep_tree():
    """x = i over 2,000 rows with alternating labels and one bin per row: a chain of
    depth 1,999, deeper than Python's default recursion limit of 1,000."""
    x = np.arange(2000, dtype=np.float64)[:, None]
    tree = fit_tree(from_arrays(x, np.arange(2000) % 2 + 1),
                    TreeConfig(min_leaf_size=1, num_bins=2000))
    depth, todo = 0, [0]   # the depths of the pre-order nodes still to read
    for f in tree.to_dict()["feature"]:
        d = todo.pop()
        depth = max(depth, d)
        if f >= 0:
            todo += [d + 1, d + 1]
    assert depth == 1999 > sys.getrecursionlimit()
    return x, tree


class TestFitTree:
    def test_pure_node_is_single_leaf(self):
        ds = from_arrays(np.arange(20)[:, None].astype(float), np.ones(20, int))
        tree = fit_tree(ds, TreeConfig(min_leaf_size=1))
        assert tree.n_leaves == 1

    def test_one_dimensional_split_matches_exhaustive_search(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1, 1, 2, 2])
        best = exhaustive_best_decrease(x, y)
        assert best == 0.5  # frozen from the oracle above

        tree = fit_tree(from_arrays(x[:, None], y), TreeConfig(min_leaf_size=1))
        assert tree.n_leaves == 2
        root = tree.root
        assert isinstance(root, SplitNode)
        assert 2.0 < root.threshold <= 3.0
        left, right = root.left, root.right
        assert gini(left.histogram) == 0.0 and gini(right.histogram) == 0.0
        achieved = gini(left.histogram + right.histogram) \
            - 0.5 * gini(left.histogram) - 0.5 * gini(right.histogram)
        assert achieved == best

    def test_simulation_leaf_counts_in_band(self):
        spec = three_cluster_spec()
        counts = []
        for s in range(20):
            ds = sample_mixture(spec, 100, [5, s])
            counts.append(fit_tree(ds, TreeConfig()).n_leaves)
        assert all(2 <= m <= 12 for m in counts)
        assert max(counts) >= 4  # richer partitions do occur

    def test_root_leaf_when_too_small_to_split(self):
        ds = from_arrays([[0.0], [1.0]], [1, 2])
        tree = fit_tree(ds, TreeConfig(min_leaf_size=10))
        assert tree.n_leaves == 1

    def test_deterministic(self, iris):
        a = fit_tree(iris, TreeConfig())
        b = fit_tree(iris, TreeConfig())
        assert a.to_dict() == b.to_dict()

    def test_max_depth_zero_forces_single_leaf(self, iris):
        tree = fit_tree(iris, TreeConfig(max_depth=0))
        assert tree.n_leaves == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="^min_leaf_size must be >= 1$"):
            TreeConfig(min_leaf_size=0)
        with pytest.raises(ValueError, match="^num_bins must be >= 2$"):
            TreeConfig(num_bins=1)
        with pytest.raises(ValueError, match="^max_depth must be >= 0 or None$"):
            TreeConfig(max_depth=-1)


class TestApply:
    def test_single_leaf_tree_routes_everything_to_leaf_0(self):
        ds = from_arrays([[0.0], [1.0]], [1, 2])
        tree = fit_tree(ds, TreeConfig(min_leaf_size=10))
        assert tree.apply(np.array([[-5.0], [0.0], [99.0]])).tolist() == [0, 0, 0]

    def test_training_rows_route_to_their_leaf(self, iris):
        tree = fit_tree(iris, TreeConfig())
        ids = tree.apply(iris.features)
        for j, hist in enumerate(tree.histogram):
            rows = np.flatnonzero(ids == j)
            assert np.array_equal(np.bincount(iris.labels[rows] - 1, minlength=iris.n_classes),
                                  hist)

    def test_boundary_value_routes_right(self):
        tree = DecisionTree.from_dict({"n_features": 1, "n_classes": 2,
                                       "config": TreeConfig().to_dict(), "feature": [0, -1, -1],
                                       "threshold": [1.5], "histogram": [[2, 0], [0, 2]]})
        assert tree.apply(np.array([1.5])) == 1
        assert tree.apply(np.array([1.4999])) == 0

    def test_dimension_mismatch(self, iris):
        tree = fit_tree(iris, TreeConfig())
        with pytest.raises(ValueError, match="features"):
            tree.apply(np.zeros((3, 7)))
        with pytest.raises(ValueError, match="features"):
            tree.apply(np.zeros(7))
        with pytest.raises(ValueError, match="finite"):
            tree.apply(np.full(iris.p, np.nan))

    def test_single_vector_reaches_the_reference_leaf(self, iris):
        # one row reaches one path, so apply skips every other subtree
        x = np.arange(1500, dtype=np.float64)[:, None]
        chain = fit_tree(from_arrays(x, np.arange(1500) % 2 + 1),
                         TreeConfig(min_leaf_size=1, num_bins=1000))
        for tree, X in ((fit_tree(iris, TreeConfig(min_leaf_size=1)), iris.features[::7]),
                        (chain, np.vstack([x[::61], x[::61] + 0.5]))):
            at_thresholds = np.resize(tree.threshold, X.shape)   # x == threshold goes right
            for v in np.vstack([X, at_thresholds]):
                (leaf, _), = reference_partition(tree.root, v[None, :])
                got = tree.apply(v)
                assert type(got) is int and got == leaf.leaf_id

    def test_partition_property_on_random_points(self, iris, rng):
        tree = fit_tree(iris, TreeConfig())
        pts = rng.uniform(-10, 10, size=(10_000, iris.p))
        first = tree.apply(pts)
        assert first.min() >= 0 and first.max() < tree.n_leaves
        assert np.array_equal(first, tree.apply(pts))


class TestPredict:
    def test_pure_leaves_give_zero_training_error(self, iris):
        tree = fit_tree(iris, TreeConfig(min_leaf_size=1))
        assert all(gini(hist) == 0.0 for hist in tree.histogram)
        assert np.array_equal(tree.predict(iris.features), iris.labels)

    def test_majority_tie_prefers_smallest_class(self):
        tree = DecisionTree.from_dict({"n_features": 1, "n_classes": 3,
                                       "config": TreeConfig().to_dict(), "feature": [0, -1, -1],
                                       "threshold": [1.5], "histogram": [[3, 3, 0], [0, 4, 4]]})
        assert tree.predict(np.array([0.0])) == 1
        assert tree.predict(np.array([[0.0], [2.0]])).tolist() == [1, 2]

    def test_module_level_alias(self, iris):
        tree = fit_tree(iris, TreeConfig())
        assert np.array_equal([tree.predict(x) for x in iris.features],
                              tree.predict(iris.features))


class TestInvariants:
    def test_leaf_index_sets_partition_training_rows(self, wine):
        tree = fit_tree(wine, TreeConfig())
        ids = tree.apply(wine.features)
        assert ids.min() >= 0 and ids.max() < tree.n_leaves
        assert np.array_equal(np.bincount(ids, minlength=tree.n_leaves),
                              tree.histogram.sum(axis=1))

    def test_min_leaf_size_respected(self, wine):
        for mls in (1, 5, 10, 25):
            tree = fit_tree(wine, TreeConfig(min_leaf_size=mls))
            assert np.all(tree.histogram.sum(axis=1) >= mls)

    def test_every_split_strictly_decreases_gini(self, cancer):
        tree = fit_tree(cancer, TreeConfig())

        def hist_of(node):
            if isinstance(node, LeafNode):
                return node.histogram
            return hist_of(node.left) + hist_of(node.right)

        def walk(node):
            if isinstance(node, LeafNode):
                return
            hl, hr = hist_of(node.left), hist_of(node.right)
            h = hl + hr
            n, nl, nr = h.sum(), hl.sum(), hr.sum()
            dec = gini(h) - (nl / n) * gini(hl) - (nr / n) * gini(hr)
            assert dec > 0.0
            walk(node.left)
            walk(node.right)

        walk(tree.root)

    def test_thresholds_strictly_inside_node_range(self, iris):
        tree = fit_tree(iris, TreeConfig())

        def walk(node, rows):
            if isinstance(node, LeafNode):
                return
            vals = iris.features[rows, node.feature]
            assert vals.min() < node.threshold < vals.max()
            mask = vals < node.threshold
            walk(node.left, rows[mask])
            walk(node.right, rows[~mask])

        walk(tree.root, np.arange(iris.n))

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=8, max_value=60),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_structure_invariants_on_random_data(self, seed, n, p, mls):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        y = rng.integers(1, 4, size=n)
        y[:3] = [1, 2, 3]  # keep every class present
        tree = fit_tree(from_arrays(X, y), TreeConfig(min_leaf_size=mls, num_bins=8))
        sizes = tree.histogram.sum(axis=1)
        assert sizes.sum() == n
        assert np.all(sizes >= mls)
        ids = tree.apply(X)
        assert np.array_equal(np.bincount(ids, minlength=tree.n_leaves), sizes)


class TestSplitRuleReference:
    """Each node of a level gets the split an exact search over its own sorted
    values picks. Roots grown in one call are the nodes of one level."""

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=11),
           st.integers(min_value=2, max_value=300), st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5))
    # two features' best splits have equal decreases; float rounding once split on the later
    @example(seed=3, k=3, bins=3, mls=1, roots=2)
    @settings(max_examples=60, deadline=None)
    def test_roots_split_as_the_scalar_reference(self, seed, k, bins, mls, roots):
        # tied columns, ties mixing -0.0 and 0.0, bootstrap duplicates and fold subsets
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        X = np.column_stack([rng.normal(size=n), rng.choice([-0.0, 0.0, 1.0, -2.5], size=n),
                             rng.integers(0, 3, size=n).astype(np.float64),
                             np.round(rng.normal(size=n), 1)])
        y = rng.integers(1, k + 1, size=n)
        samples = [np.flatnonzero(rng.random(n) < 0.8) if rng.random() < 0.5
                   else rng.integers(0, n, size=n) for _ in range(roots)]
        cfg = TreeConfig(min_leaf_size=mls, num_bins=bins, max_depth=1)
        with mock.patch.object(tree_module, "_BATCH_ENTRIES", 1 << 30):   # one batch
            trees = fit_trees_arrays(X, y, samples, k, cfg)
        for s, tree in zip(samples, trees):
            want = reference_split(X[s], y[s] - 1, k, mls, bins)
            if want is None:
                assert tree.feature.tolist() == [-1]
                continue
            j, threshold, left = want
            assert tree.feature.tolist() == [j, -1, -1]
            assert float(tree.threshold[0]).hex() == float(threshold).hex()
            assert tree.histogram[0].tolist() == left.tolist()


    @pytest.mark.parametrize("n", [200, 40_000])
    def test_counts_past_a_narrower_type_split_as_the_reference(self, n):
        # the root's left class counts pass 127 (n = 200) or 32,767 (n = 40,000),
        # so counts held in a type sized for a smaller node would wrap
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 2))
        y = np.where(X[:, 0] < 1.5, 1, rng.integers(2, 4, size=n))
        cfg = TreeConfig(max_depth=1)
        tree = fit_tree_arrays(X, y, 3, cfg)
        j, threshold, left = reference_split(X, y - 1, 3, cfg.min_leaf_size, cfg.num_bins)
        assert left.max() > (127 if n < 32_768 else 32_767)
        assert tree.feature.tolist() == [j, -1, -1]
        assert float(tree.threshold[0]).hex() == float(threshold).hex()
        assert tree.histogram[0].tolist() == left.tolist()


class TestSerialization:
    def test_json_round_trip_exact(self, wine):
        tree = fit_tree(wine, TreeConfig())
        blob = json.dumps(tree.to_dict())
        again = DecisionTree.from_dict(json.loads(blob))
        assert again.to_dict() == tree.to_dict()
        assert np.array_equal(again.apply(wine.features), tree.apply(wine.features))

    def test_golden_trees_read_their_class_count_from_their_histograms(self):
        for make, cfg in golden.CASES.values():
            X, y, k = make()
            tree = fit_tree_arrays(X, y, k, TreeConfig(*cfg))
            again = DecisionTree.from_dict(json.loads(json.dumps(tree.to_dict())))
            for t in (tree, again):
                assert t.n_classes == t.histogram.shape[1] == k

    def test_signed_zero_threshold_saved_the_same_for_any_row_order(self):
        # the only split falls between tied -0.0 and 0.0 values, whose sorted
        # order depends on the row order
        x = np.array([-1.0] * 4 + [-0.0, 0.0] * 6 + [1.0] * 4)
        y = np.array([1] * 4 + [2] * 16)
        saved = set()
        for s in range(20):
            perm = np.random.default_rng(s).permutation(len(x))
            tree = fit_tree(from_arrays(x[perm, None], y[perm]),
                            TreeConfig(min_leaf_size=1, num_bins=2))
            saved.add(json.dumps(tree.to_dict()))
        assert len(saved) == 1
        assert '"threshold": [0.0]' in saved.pop()

    def test_depth_1999_tree_round_trips(self, deep_tree):
        x, tree = deep_tree
        again = DecisionTree.from_dict(json.loads(json.dumps(tree.to_dict())))
        assert again.to_dict() == tree.to_dict()
        assert np.array_equal(again.apply(x), tree.apply(x))

    def test_depth_1999_tree_repr_and_equality_do_not_recurse(self, deep_tree):
        _, tree = deep_tree
        assert repr(tree).startswith("DecisionTree(")
        assert tree == tree and tree != DecisionTree.from_dict(tree.to_dict())  # identity

    VALID = {"n_features": 1, "n_classes": 2, "config": TreeConfig().to_dict(),
             "feature": [0, -1, 0, -1, -1], "threshold": [0.5, 1.5],
             "histogram": [[1, 0], [0, 1], [1, 1]]}

    def test_flat_lists_load_in_pre_order(self):
        tree = DecisionTree.from_dict(self.VALID)
        assert tree.to_dict() == self.VALID
        assert reference_lists(tree.root)[2] == self.VALID["histogram"]
        assert tree.apply(np.array([[0.0], [1.0], [2.0]])).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("key, value, message", [
        ("feature", [0, -1, -1, -1], "2m - 1 nodes"),
        ("feature", [1, -1, 0, -1, -1], "feature"),
        ("feature", [0.0, -1, 0, -1, -1], "feature"),
        ("feature", [0, -1, False, -1, -1], "feature"),
        ("feature", [-1, -1, 0, 0, -1], "not the pre-order of one tree"),
        ("threshold", [0.5], "m - 1 finite thresholds"),
        ("threshold", [0.5, float("nan")], "finite thresholds"),
        ("threshold", [0.5, True], "finite thresholds"),
        ("threshold", [0.5, None], "finite thresholds"),
        ("histogram", [[1, 0], [0, 1]], "histogram"),
        ("histogram", [[1, 0], [0, -1], [1, 1]], "histogram"),
        ("histogram", [[1, 0], [0, 1.5], [1, 1]], "histogram"),
        ("histogram", [[1, 0], [0, True], [1, 1]], "histogram"),
        ("histogram", [[1, 0, 0], [0, 1, 0], [1, 1, 0]], "histogram"),
        ("n_features", 1.0, "n_features and n_classes must be integers"),
        ("n_classes", 2.0, "n_features and n_classes must be integers"),
        ("n_features", 0, "n_features and n_classes must be integers >= 1"),
        ("n_classes", 0, "n_features and n_classes must be integers >= 1"),
        ("n_features", True, "n_features and n_classes must be integers"),
        ("n_classes", "2", "n_features and n_classes must be integers"),
        ("config", {"min_leaf_size": 10.0, "num_bins": 30.0, "max_depth": None},
         "min_leaf_size and num_bins must be integers"),
        ("config", {"min_leaf_size": True, "num_bins": 30, "max_depth": None},
         "min_leaf_size and num_bins must be integers"),
        ("config", {"min_leaf_size": 10, "num_bins": 30, "max_depth": 2.5},
         "max_depth an integer or null"),
        ("config", {"min_leaf_size": 10, "num_bins": 30, "max_depth": False},
         "max_depth an integer or null"),
    ], ids=["extra-leaf", "feature-out-of-range", "float-feature", "bool-feature",
            "nodes-left-over", "short-threshold", "nan-threshold", "bool-threshold",
            "null-threshold", "short-histogram", "negative-count", "float-count",
            "bool-count", "wide-histogram", "float-n_features", "float-n_classes",
            "zero-n_features", "zero-n_classes", "bool-n_features", "string-n_classes",
            "float-config-sizes", "bool-min_leaf_size", "float-max_depth", "bool-max_depth"])
    def test_malformed_lists_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            DecisionTree.from_dict({**self.VALID, key: value})


def _fold_samples(ds, replicates, t):
    """Row ids into ds of the t trees of every fold of a 5-fold plan, as in CV."""
    plan = stratified_folds(ds, replicates, 5, 7)
    samples = []
    for r in range(replicates):
        for f in range(5):
            rows = plan.train_rows(r, f)
            train = ds.subset(rows)
            samples += [rows[s] for s in tree_samples(train, t, np.random.SeedSequence([7, r, f]))]
    return samples


class TestBatchedRoots:
    """fit_trees_arrays grows every sample's tree byte for byte as
    fit_tree_arrays grows it alone."""

    @staticmethod
    def assert_same_trees(X, y, samples, k, cfg, batched=None):
        if batched is None:
            batched = fit_trees_arrays(X, y, samples, k, cfg)
        assert len(batched) == len(samples)
        for s, tree in zip(samples, batched):
            alone = fit_tree_arrays(X[s], y[s], k, cfg)
            assert json.dumps(tree.to_dict()) == json.dumps(alone.to_dict())

    @pytest.mark.parametrize("cfg", [TreeConfig(), TreeConfig(2, 7), TreeConfig(1, 2, 3)],
                             ids=["default", "small-leaves", "depth-3"])
    def test_fold_subsets_and_resamples(self, iris, wine, cancer, cfg):
        for ds in (iris, wine, cancer):
            samples = _fold_samples(ds, 1, 3)   # fold rows, then resamples with repeated rows
            assert any(np.unique(s).size < s.size for s in samples)
            self.assert_same_trees(ds.features, ds.labels, samples, ds.n_classes, cfg)

    @pytest.mark.parametrize("cfg", [TreeConfig(), TreeConfig(max_depth=0)],
                             ids=["default", "depth-0"])
    def test_roots_that_are_leaves_at_once(self, cfg):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 3))
        y = rng.integers(1, 4, size=200)
        X[:40] = 1.5                                    # constant rows
        samples = [np.arange(200), np.arange(40),           # growing, constant
                   np.flatnonzero(y == 2), np.arange(60, 79),  # pure, too few to split
                   np.arange(0), slice(None),                  # no rows, all rows
                   rng.integers(0, 200, size=200)]
        self.assert_same_trees(X, y, samples, 3, cfg)
        assert fit_trees_arrays(X, y, [], 3, cfg) == []

    def test_missing_class_signed_zeros_and_ten_classes(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 4))
        X[:, 0] = rng.choice([-0.0, 0.0, 1.0, -1.0], size=300)  # ties mixing -0.0 and 0.0
        y = rng.integers(1, 11, size=300)
        missing = np.flatnonzero(y != 10)
        samples = [missing[rng.integers(0, missing.size, size=missing.size)]] + [
            rng.integers(0, 300, size=300) for _ in range(5)]
        for cfg in (TreeConfig(), TreeConfig(1, 3)):
            self.assert_same_trees(X, y, samples, 10, cfg)

    @staticmethod
    def roots_per_grow(monkeypatch, ds, samples):
        """fit_trees_arrays on the samples, and the root count of each _grow call."""
        roots_per_batch, grow = [], tree_module._grow

        def counted(X, y0, rows, sizes, *rest):
            roots_per_batch.append(len(sizes))
            return grow(X, y0, rows, sizes, *rest)

        monkeypatch.setattr(tree_module, "_grow", counted)
        batched = fit_trees_arrays(ds.features, ds.labels, samples, ds.n_classes)
        monkeypatch.undo()
        return batched, roots_per_batch

    def test_samples_spanning_several_batches(self, wine, monkeypatch):
        # a replicate's 15 fold roots of ~142 rows count about 15 * 142 * p *
        # 29 / 20 entries against the budget: enough replicates for three batches
        per_replicate = 15 * 142 * wine.p * 29 / 20
        samples = _fold_samples(wine, int(2 * tree_module._BATCH_ENTRIES / per_replicate) + 1, 3)
        batched, roots_per_batch = self.roots_per_grow(monkeypatch, wine, samples)
        assert len(roots_per_batch) >= 3 and min(roots_per_batch) > 1
        self.assert_same_trees(wine.features, wine.labels, samples, wine.n_classes,
                               TreeConfig(), batched)

    def test_breast_cancer_folds_share_batches(self, cancer, monkeypatch):
        # a 455-row, 30-feature fold root must not be too large to share a batch
        samples = _fold_samples(cancer, 1, 1)
        batched, roots_per_batch = self.roots_per_grow(monkeypatch, cancer, samples)
        assert len(samples) == 5 and len(roots_per_batch) < len(samples)
        self.assert_same_trees(cancer.features, cancer.labels, samples, cancer.n_classes,
                               TreeConfig(), batched)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_each_root_sorts_its_own_rows(self, seed, roots):
        # fold subsets, resamples with repeated rows, and columns of ties mixing -0.0 and 0.0
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        X = np.column_stack([rng.normal(size=n), rng.choice([-0.0, 0.0, 1.0, -2.5], size=n),
                             rng.integers(0, 3, size=n).astype(np.float64)])
        y0 = rng.integers(0, 3, size=n)
        samples = [np.flatnonzero(rng.random(n) < 0.8) if rng.random() < 0.5
                   else rng.integers(0, n, size=n) for _ in range(roots)]
        rows = np.concatenate(samples)
        sizes = np.array([s.size for s in samples], dtype=np.int64)
        lists = tree_module._Columns(X, y0, rows, 3).sorted_rows(sizes)
        assert lists.shape == (3, rows.size)
        for begin, end in zip(sizes.cumsum() - sizes, sizes.cumsum()):
            for j, order in enumerate(lists[:, begin:end]):
                assert np.array_equal(np.sort(order), np.arange(begin, end))
                assert np.all(np.diff(X[rows[order], j]) >= 0)

    def test_growth_peak_is_bounded_by_the_batch_budget(self, iris, wine, cancer):
        # one batch of all 150 wine roots would peak near 9.5 MiB; a level of a
        # batch holds a few arrays of its list entries and candidates at once
        for ds in (iris, wine, cancer):
            samples = _fold_samples(ds, 10, 3)
            tracemalloc.start()
            try:
                fit_trees_arrays(ds.features, ds.labels, samples, ds.n_classes)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * 8 * 2 ** 14, (ds.n, peak)


def reference_from_dict(d: dict) -> tuple:
    """Reference for DecisionTree.from_dict: the same checks and messages, then
    linked SplitNode/LeafNode objects built from the last node back, so a
    split's subtrees exist before it. Returns (root, leaves in id order)."""
    p, k = d["n_features"], d["n_classes"]
    if not (type(p) is int and p >= 1 and type(k) is int and k >= 1):
        raise ValueError("tree n_features and n_classes must be integers >= 1")
    feature, threshold, histogram = (np.asarray(d[key]) for key in
                                     ("feature", "threshold", "histogram"))
    # a JSON true or false, which numpy reads as 1 or 0 among numbers
    has_bool = {key: any(type(x) is bool for x in np.asarray(d[key], dtype=object).ravel())
                for key in ("feature", "threshold", "histogram")}
    if feature.ndim != 1 or feature.dtype.kind != "i" or has_bool["feature"] or not np.all(
            (feature >= -1) & (feature < p)):
        raise ValueError(f"tree feature must be a list of -1 or 0..{p - 1}")
    m = int(np.count_nonzero(feature < 0))
    if feature.size != 2 * m - 1 or threshold.shape != (m - 1,) or has_bool["threshold"] \
            or threshold.dtype.kind not in "if" or not np.all(np.isfinite(threshold)):
        raise ValueError("a tree of m leaves needs 2m - 1 nodes and m - 1 finite thresholds")
    if histogram.shape != (m, k) or histogram.dtype.kind != "i" or has_bool["histogram"] \
            or np.any(histogram < 0):
        raise ValueError(f"tree histogram must be {k} counts >= 0 per leaf")
    splits, counts = iter(threshold.tolist()[::-1]), iter(histogram[::-1])
    built, leaves = [], []   # subtrees awaiting a parent, the next left child last
    for f in reversed(feature.tolist()):
        if f < 0:
            leaves.append(LeafNode(m - 1 - len(leaves), next(counts)))
            built.append(leaves[-1])
        elif len(built) < 2:  # with 2m - 1 nodes, this is the only way to fail
            raise ValueError("tree lists are not the pre-order of one tree")
        else:
            built.append(SplitNode(f, next(splits), built.pop(), built.pop()))
    return built[0], leaves[::-1]


def reference_lists(root) -> tuple[list, list, list]:
    """Reference for to_dict: the linked nodes' feature, threshold and
    histogram lists in pre-order."""
    feature, threshold, histogram = [], [], []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, LeafNode):
            feature.append(-1)
            histogram.append(node.histogram.tolist())
        else:
            feature.append(node.feature)
            threshold.append(node.threshold)
            stack += [node.right, node.left]
    return feature, threshold, histogram


def reference_partition(root, X):
    """Reference for apply: (leaf, the ascending rows of X routed to it)
    for each leaf X reaches, walking the linked nodes."""
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if isinstance(node, LeafNode):
            yield node, idx
        else:
            goes_left = X[idx, node.feature] < node.threshold
            stack.append((node.left, idx[goes_left]))
            stack.append((node.right, idx[~goes_left]))


@st.composite
def tree_lists(draw):
    """Tree lists in the model file's layout: the pre-order of a random tree,
    maybe with two entries swapped, the last moved first, one dropped or one
    added, or m leaves and m - 1 splits in random order; then maybe one
    corrupted feature, threshold, histogram, or feature or class count, or one
    entry replaced by a boolean."""
    p, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        feature, awaiting = [], 1
        while awaiting:
            grow = len(feature) < 30 and draw(st.booleans())
            feature.append(draw(st.integers(0, p - 1)) if grow else -1)
            awaiting += 1 if grow else -1
        edit = draw(st.sampled_from(["none", "swap", "rotate", "drop", "add"]))
        if edit == "swap":
            i, j = (draw(st.integers(0, len(feature) - 1)) for _ in range(2))
            feature[i], feature[j] = feature[j], feature[i]
        elif edit == "rotate":
            feature = feature[-1:] + feature[:-1]
        elif edit == "drop":
            del feature[draw(st.integers(0, len(feature) - 1))]
        elif edit == "add":
            feature.insert(draw(st.integers(0, len(feature))), draw(st.integers(-1, p - 1)))
    else:
        m = draw(st.integers(0, 8))
        feature = draw(st.permutations([-1] * m + [draw(st.integers(0, p - 1))] * max(m - 1, 0)))
    m = feature.count(-1)
    threshold = draw(st.lists(st.sampled_from([0.5, -0.0, 1.0, 2.5]),
                              min_size=max(m - 1, 0), max_size=max(m - 1, 0)))
    histogram = [draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)) for _ in range(m)]
    fault = draw(st.sampled_from(["none"] * 5 + ["feature", "float-feature", "nan", "threshold",
                                                "count", "float-count", "histogram", "size",
                                                "bool"]))
    if fault == "feature" and feature:
        feature[draw(st.integers(0, len(feature) - 1))] = draw(st.sampled_from([-2, p]))
    elif fault == "float-feature":
        feature = [float(f) for f in feature]
    elif fault == "nan" and threshold:
        threshold[draw(st.integers(0, len(threshold) - 1))] = float("nan")
    elif fault == "threshold":
        threshold = threshold[1:] if threshold and draw(st.booleans()) else threshold + [0.5]
    elif fault == "count" and histogram:
        histogram[draw(st.integers(0, m - 1))][0] = -1
    elif fault == "float-count" and histogram:
        histogram[draw(st.integers(0, m - 1))][0] = 1.5
    elif fault == "histogram":
        histogram = histogram[1:] if histogram and draw(st.booleans()) else histogram + [[0] * k]
    elif fault == "bool":   # one entry of a list, or of a leaf's counts, made true or false
        entries = draw(st.sampled_from([feature, threshold, *histogram]))
        if entries:
            entries[draw(st.integers(0, len(entries) - 1))] = draw(st.booleans())
    if fault == "size":   # a float or a zero feature or class count
        p, k = draw(st.sampled_from([(float(p), k), (p, float(k)), (0, k), (p, 0)]))
    return {"n_features": p, "n_classes": k, "config": TreeConfig().to_dict(),
            "feature": feature, "threshold": threshold, "histogram": histogram}


class TestTreeListsReference:
    """The tree's pre-order lists against linked node objects, the reference."""

    @given(tree_lists())
    @settings(max_examples=400, deadline=None)
    def test_lists_accepted_and_rejected_as_by_the_reference(self, d):
        try:
            root, leaves = reference_from_dict(d)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                DecisionTree.from_dict(d)
            assert str(raised.value) == str(exc)
            return
        tree = DecisionTree.from_dict(d)
        assert reference_lists(tree.root) == reference_lists(root)
        assert tree.histogram.tolist() == [leaf.histogram.tolist() for leaf in leaves]

    @staticmethod
    def assert_matches_reference(tree, X):
        d = tree.to_dict()
        assert reference_lists(tree.root) == (d["feature"], d["threshold"], d["histogram"])
        ids, majority = (np.empty(X.shape[0], dtype=np.int64) for _ in range(2))
        for leaf, rows in reference_partition(tree.root, X):
            ids[rows] = leaf.leaf_id
            majority[rows] = np.argmax(leaf.histogram) + 1   # ties go to the smallest class
        assert np.array_equal(tree.apply(X), ids)
        assert np.array_equal(tree.predict(X), majority)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=11),
           st.sampled_from([None, 0, 1, 3]), st.sampled_from([1, 2, 5]),
           st.sampled_from([2, 3, 8, 30]))
    @settings(max_examples=80, deadline=None)
    def test_grown_trees_route_as_the_reference(self, seed, k, max_depth, mls, bins):
        # tied columns, ties mixing -0.0 and 0.0, bootstrap duplicates and fold subsets
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        X = np.column_stack([rng.normal(size=n), rng.choice([-0.0, 0.0, 1.0, -2.5], size=n),
                             rng.integers(0, 3, size=n).astype(np.float64)])
        y = rng.integers(1, k + 1, size=n)
        samples = [slice(None), rng.integers(0, n, size=n), np.flatnonzero(rng.random(n) < 0.7)]
        cfg = TreeConfig(min_leaf_size=mls, num_bins=bins, max_depth=max_depth)
        for s, tree in zip(samples, fit_trees_arrays(X, y, samples, k, cfg)):
            thresholds = np.array(tree.to_dict()["threshold"] + [0.0])
            at_thresholds = rng.choice(thresholds, size=(50, X.shape[1]))  # x == threshold goes right
            self.assert_matches_reference(tree, np.vstack([X[s], at_thresholds]))

    def test_depth_1999_tree_routes_as_the_reference(self, deep_tree):
        x, tree = deep_tree
        self.assert_matches_reference(tree, np.vstack([x, x + 0.5, x - 0.5]))
