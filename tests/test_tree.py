import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dte import DecisionTree, TreeConfig, fit_tree, from_arrays, stratified_folds
from dte import tree as tree_module
from dte.embed import tree_samples
from dte.oracle import sample_mixture, three_cluster_spec
from dte.tree import LeafNode, SplitNode, _sum_sq, fit_tree_arrays, fit_trees_arrays


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
        with pytest.raises(ValueError):
            TreeConfig(min_leaf_size=0)
        with pytest.raises(ValueError):
            TreeConfig(num_bins=1)


class TestApply:
    def test_single_leaf_tree_routes_everything_to_leaf_0(self):
        ds = from_arrays([[0.0], [1.0]], [1, 2])
        tree = fit_tree(ds, TreeConfig(min_leaf_size=10))
        assert tree.apply(np.array([[-5.0], [0.0], [99.0]])).tolist() == [0, 0, 0]

    def test_training_rows_route_to_their_leaf(self, iris):
        tree = fit_tree(iris, TreeConfig())
        ids = tree.apply(iris.features)
        for leaf, rows in tree.partition(iris.features):
            assert np.all(ids[rows] == leaf.leaf_id)
            assert np.array_equal(np.bincount(iris.labels[rows] - 1, minlength=iris.n_classes),
                                  leaf.histogram)

    def test_boundary_value_routes_right(self):
        leaves = [LeafNode(0, np.array([2, 0])), LeafNode(1, np.array([0, 2]))]
        tree = DecisionTree(SplitNode(0, 1.5, leaves[0], leaves[1]),
                            leaves, 1, 2, TreeConfig())
        assert tree.apply(np.array([1.5])) == 1
        assert tree.apply(np.array([1.4999])) == 0

    def test_dimension_mismatch(self, iris):
        tree = fit_tree(iris, TreeConfig())
        with pytest.raises(ValueError, match="features"):
            tree.apply(np.zeros((3, 7)))

    def test_partition_property_on_random_points(self, iris, rng):
        tree = fit_tree(iris, TreeConfig())
        pts = rng.uniform(-10, 10, size=(10_000, iris.p))
        first = tree.apply(pts)
        assert first.min() >= 0 and first.max() < tree.n_leaves
        assert np.array_equal(first, tree.apply(pts))


class TestPredict:
    def test_pure_leaves_give_zero_training_error(self, iris):
        tree = fit_tree(iris, TreeConfig(min_leaf_size=1))
        assert all(gini(leaf.histogram) == 0.0 for leaf in tree.leaves)
        assert np.array_equal(tree.predict(iris.features), iris.labels)

    def test_majority_tie_prefers_smallest_class(self):
        leaf = LeafNode(0, np.array([3, 3]))
        assert leaf.majority == 1

    def test_module_level_alias(self, iris):
        tree = fit_tree(iris, TreeConfig())
        assert np.array_equal([tree.predict(x) for x in iris.features],
                              tree.predict(iris.features))


class TestInvariants:
    def test_leaf_index_sets_partition_training_rows(self, wine):
        tree = fit_tree(wine, TreeConfig())
        parts = list(tree.partition(wine.features))
        assert sorted(leaf.leaf_id for leaf, _ in parts) == list(range(tree.n_leaves))
        assert all(np.all(np.diff(rows) > 0) for _, rows in parts)
        assert all(rows.size == leaf.size for leaf, rows in parts)
        all_rows = np.concatenate([rows for _, rows in parts])
        assert sorted(all_rows.tolist()) == list(range(wine.n))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_split_gini_sums_keep_numpy_sum_bits(self, k):
        # values spanning 16 decades, so any other order of the additions shows
        rng = np.random.default_rng(k)
        q = rng.random((500, k)) * 10.0 ** rng.integers(-8, 8, size=(500, k))
        assert np.all(_sum_sq(q) == (q ** 2).sum(axis=1))

    def test_min_leaf_size_respected(self, wine):
        for mls in (1, 5, 10, 25):
            tree = fit_tree(wine, TreeConfig(min_leaf_size=mls))
            assert all(leaf.size >= mls for leaf in tree.leaves)

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
        assert [leaf.leaf_id for leaf in tree.leaves] == list(range(tree.n_leaves))
        assert sum(leaf.size for leaf in tree.leaves) == n
        assert all(leaf.size >= mls for leaf in tree.leaves)
        ids = tree.apply(X)
        assert np.array_equal(np.bincount(ids, minlength=tree.n_leaves),
                              np.array([leaf.size for leaf in tree.leaves]))


class TestSerialization:
    def test_json_round_trip_exact(self, wine):
        tree = fit_tree(wine, TreeConfig())
        blob = json.dumps(tree.to_dict())
        again = DecisionTree.from_dict(json.loads(blob))
        assert again.to_dict() == tree.to_dict()
        assert np.array_equal(again.apply(wine.features), tree.apply(wine.features))

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

    @pytest.fixture(scope="class")
    def deep_tree(self):
        """A depth-1538 tree, deeper than Python's default recursion limit of 1000."""
        x = np.arange(4000, dtype=np.float64)[:, None]
        return x, fit_tree(from_arrays(x, np.arange(4000) % 2 + 1),
                           TreeConfig(min_leaf_size=1, num_bins=1000))

    def test_deep_tree_round_trips(self, deep_tree):
        x, tree = deep_tree
        again = DecisionTree.from_dict(json.loads(json.dumps(tree.to_dict())))
        assert again.to_dict() == tree.to_dict()
        assert np.array_equal(again.apply(x), tree.apply(x))

    def test_deep_tree_repr_and_equality_do_not_recurse(self, deep_tree):
        _, tree = deep_tree
        assert repr(tree).startswith("DecisionTree(")
        assert tree == tree and tree != DecisionTree.from_dict(tree.to_dict())  # identity

    VALID = {"n_features": 1, "n_classes": 2, "config": TreeConfig().to_dict(),
             "feature": [0, -1, 0, -1, -1], "threshold": [0.5, 1.5],
             "histogram": [[1, 0], [0, 1], [1, 1]]}

    def test_flat_lists_load_in_pre_order(self):
        tree = DecisionTree.from_dict(self.VALID)
        assert tree.to_dict() == self.VALID
        assert [leaf.histogram.tolist() for leaf in tree.leaves] == self.VALID["histogram"]
        assert tree.apply(np.array([[0.0], [1.0], [2.0]])).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("key, value, message", [
        ("feature", [0, -1, -1, -1], "2m - 1 nodes"),
        ("feature", [1, -1, 0, -1, -1], "feature"),
        ("feature", [0.0, -1, 0, -1, -1], "feature"),
        ("feature", [-1, -1, 0, 0, -1], "not the pre-order of one tree"),
        ("threshold", [0.5], "m - 1 finite thresholds"),
        ("threshold", [0.5, float("nan")], "finite thresholds"),
        ("histogram", [[1, 0], [0, 1]], "histogram"),
        ("histogram", [[1, 0], [0, -1], [1, 1]], "histogram"),
        ("histogram", [[1, 0], [0, 1.5], [1, 1]], "histogram"),
        ("histogram", [[1, 0, 0], [0, 1, 0], [1, 1, 0]], "histogram"),
    ], ids=["extra-leaf", "feature-out-of-range", "float-feature", "nodes-left-over",
            "short-threshold", "nan-threshold", "short-histogram", "negative-count",
            "float-count", "wide-histogram"])
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
        samples = _fold_samples(wine, 4, 3)
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

    def test_growth_peak_is_bounded_by_the_batch_budget(self, iris, wine, cancer):
        # one batch of all 150 wine roots would peak near 16 MiB; a level of a
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
