import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dte import DecisionTree, TreeConfig, fit_tree, from_arrays
from dte.oracle import sample_mixture, three_cluster_spec
from dte.tree import LeafNode, SplitNode


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
        assert '"threshold": 0.0,' in saved.pop()

    def test_bad_leaf_ids_rejected(self):
        with pytest.raises(ValueError, match="leaf ids"):
            DecisionTree.from_dict({
                "n_features": 1, "n_classes": 2,
                "config": TreeConfig().to_dict(),
                "root": {"feature": 0, "threshold": 0.5,
                         "left": {"leaf_id": 0, "histogram": [1, 0]},
                         "right": {"leaf_id": 2, "histogram": [0, 1]}},
            })
