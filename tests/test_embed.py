import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dte import Embedding, TreeConfig, dte_t, fit_embedding, from_arrays, project
from dte.embed import _leaf_means, anchor_intercept, tree_samples
from dte.oracle import sample_mixture, three_cluster_spec
from dte.tree import DecisionTree, fit_tree, fit_trees_arrays


@pytest.fixture(scope="module")
def sim100():
    return sample_mixture(three_cluster_spec(), 100, 31)


class TestLeafMeans:
    def test_single_leaf_is_global_mean(self, iris):
        tree = fit_tree(iris, TreeConfig(max_depth=0))
        means = _leaf_means(iris.features, tree.apply(iris.features), tree.n_leaves)
        assert np.allclose(means[0], iris.features.mean(axis=0), rtol=1e-12)

    def test_hand_computed_two_leaf_means(self):
        ds = from_arrays([[0.0, 0.0], [0.0, 2.0], [4.0, 0.0], [4.0, 2.0]], [1, 1, 2, 2])
        tree = fit_tree(ds, TreeConfig(min_leaf_size=1, num_bins=4))
        assert tree.n_leaves == 2
        means = _leaf_means(ds.features, tree.apply(ds.features), tree.n_leaves)
        assert np.array_equal(means, np.array([[0.0, 1.0], [4.0, 1.0]]))

    def test_recomputed_via_apply_matches_stored(self, wine):
        tree = fit_tree(wine, TreeConfig())
        stored = _leaf_means(wine.features, tree.apply(wine.features), tree.n_leaves)
        rebuilt = Embedding.from_dict(
            json.loads(json.dumps(dte_t(wine, TreeConfig(), 1, 0)[1].to_dict()))).trees[0]
        assert np.array_equal(
            _leaf_means(wine.features, rebuilt.apply(wine.features), rebuilt.n_leaves), stored)

    def test_bit_equal_to_each_leafs_own_mean(self, iris, wine, cancer):
        signed = from_arrays([[-0.0, 0.0], [-0.0, 1.0], [-0.0, 2.0], [5.0, -0.0], [6.0, -0.0]],
                             [1, 1, 1, 2, 2])   # a column of -0.0 averages to 0.0, as in numpy
        for ds in (iris, wine, cancer, signed):
            tree = fit_tree(ds, TreeConfig(min_leaf_size=1))
            own = np.zeros((tree.n_leaves, ds.p))
            ids = tree.apply(ds.features)
            for j in range(tree.n_leaves):
                own[j] = ds.features[np.flatnonzero(ids == j)].mean(axis=0)
            means = _leaf_means(ds.features, tree.apply(ds.features), tree.n_leaves)
            assert np.array_equal(means.view(np.int64), own.view(np.int64))

    def test_leaf_without_rows_is_an_error(self, wine):
        tree = fit_tree(wine, TreeConfig())
        keep = tree.apply(wine.features) != 0
        others = from_arrays(wine.features[keep], wine.labels[keep])
        with pytest.raises(ValueError, match="leaf 0 received no rows"):
            _leaf_means(others.features, tree.apply(others.features), tree.n_leaves)

    def test_mass_weighted_means_aggregate_to_global_mean(self, wine, cancer, sim100):
        for ds in (wine, cancer, sim100):
            tree = fit_tree(ds, TreeConfig())
            means = _leaf_means(ds.features, tree.apply(ds.features), tree.n_leaves)
            sizes = tree.histogram.sum(axis=1)
            agg = (sizes[:, None] * means).sum(axis=0) / ds.n
            assert np.allclose(agg, ds.features.mean(axis=0), rtol=1e-10)


def _add_at_means(X, leaf, n_leaves):
    """Leaf means by np.add.at: each leaf's sum starts at 0.0 and adds its rows in turn."""
    sums = np.zeros((n_leaves, X.shape[1]))
    np.add.at(sums, leaf, X)
    return sums / np.bincount(leaf, minlength=n_leaves)[:, None]


class TestGrowerLeafIds:
    """The leaf ids fit_trees_arrays hands back are where the tree routes each
    sample row, and the anchors built from them are the routed means bit for bit."""

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6),
           st.sampled_from([TreeConfig(), TreeConfig(1, 3), TreeConfig(max_depth=0),
                            TreeConfig(1, 7, 4), TreeConfig(2, 30)]))
    @settings(max_examples=80, deadline=None)
    def test_ids_route_and_anchors_match_the_routed_means(self, seed, roots, cfg):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        # a continuous column, ties mixing -0.0 and 0.0, and a small-integer column
        X = np.column_stack([rng.normal(size=n), rng.choice([-0.0, 0.0, 1.0, -2.5], size=n),
                             rng.integers(0, 3, size=n).astype(np.float64)])
        y = rng.integers(1, 4, size=n)
        kinds = [lambda: slice(None),                               # all rows
                 lambda: rng.integers(0, n, size=n),                # bootstrap, repeated rows
                 lambda: np.flatnonzero(rng.random(n) < 0.8),       # a fold's rows
                 lambda: np.flatnonzero(y == y[0]),                 # pure: a one-leaf root
                 lambda: np.arange(min(n, 3))]                      # too few rows to split
        samples = [kinds[int(rng.integers(0, len(kinds)))]() for _ in range(roots)]
        leaf_ids = []
        trees = fit_trees_arrays(X, y, samples, 3, cfg, leaf_ids)
        assert len(leaf_ids) == len(samples)
        for s, tree, leaf in zip(samples, trees, leaf_ids):
            Xs = X[s]
            assert leaf.dtype == np.int64 and np.array_equal(leaf, tree.apply(Xs))
            if Xs.shape[0]:
                means = _leaf_means(Xs, leaf, tree.n_leaves)
                assert means.tobytes() == _add_at_means(Xs, leaf, tree.n_leaves).tobytes()

    def test_fit_embedding_anchors_equal_the_routed_means(self, iris, wine, cancer):
        for ds in (iris, wine, cancer):
            emb = fit_embedding(ds, TreeConfig(), 3, 42)
            routed = [_add_at_means(ds.features, emb.trees[0].apply(ds.features),
                                    emb.trees[0].n_leaves)]
            # the resamples are redrawn with the same seed
            for rows, tree in zip(tree_samples(ds, 3, 42)[1:], emb.trees[1:]):
                routed.append(_add_at_means(ds.features[rows], tree.apply(ds.features[rows]),
                                            tree.n_leaves))
            assert emb.anchors.tobytes() == np.vstack(routed).tobytes()


class TestDte1:
    def test_width_equals_leaf_count(self, sim100):
        z, emb = dte_t(sim100, TreeConfig(), 1, 0)
        assert z.shape == (100, emb.m)
        assert emb.m == emb.trees[0].n_leaves
        assert emb.leaf_counts == (emb.m,)

    def test_intercept_is_negative_half_squared_norm(self, sim100):
        _, emb = dte_t(sim100, TreeConfig(), 1, 0)
        assert np.array_equal(emb.intercept, -0.5 * (emb.anchors ** 2).sum(axis=1))

    def test_single_leaf_column_against_scalar_formula(self, rng):
        X = rng.normal(size=(12, 3))
        ds = from_arrays(X, np.r_[np.ones(6, int), np.full(6, 2)])
        z, emb = dte_t(ds, TreeConfig(max_depth=0), 1, 0)
        mu = X.mean(axis=0)
        expected = np.array([float(np.dot(x, mu) - 0.5 * np.dot(mu, mu)) for x in X])
        assert np.allclose(z[:, 0], expected, rtol=1e-12)

    def test_rows_peak_at_their_nearest_anchor_column(self, wine, sim100):
        # axis-aligned leaves do not guarantee rows are nearest their own
        # leaf mean, but the max coordinate always names the nearest anchor
        for ds in (wine, sim100):
            z, emb = dte_t(ds, TreeConfig(), 1, 0)
            d2 = ((ds.features[:, None, :] - emb.anchors[None]) ** 2).sum(axis=2)
            assert np.array_equal(z.argmax(axis=1), d2.argmin(axis=1))


class TestDteT:
    def test_t1_identical_to_dte1(self, sim100):
        z1, e1 = dte_t(sim100, TreeConfig(), 1, 0)
        zt, et = dte_t(sim100, TreeConfig(), 1, seed=99)
        assert np.array_equal(z1, zt)
        assert et.to_dict() == e1.to_dict()

    def test_t3_concatenates_leaf_counts(self, iris):
        z, emb = dte_t(iris, TreeConfig(), 3, seed=5)
        assert emb.n_trees == 3
        assert emb.m == sum(t.n_leaves for t in emb.trees)
        assert z.shape == (iris.n, emb.m)

    def test_first_block_equals_single_tree_embedding(self, iris):
        z1, e1 = dte_t(iris, TreeConfig(), 1, 0)
        z3, e3 = dte_t(iris, TreeConfig(), 3, seed=5)
        m1 = e3.leaf_counts[0]
        assert np.array_equal(z3[:, :m1], z1)
        assert np.array_equal(e3.anchors[:m1], e1.anchors)

    def test_deterministic_given_seed(self, iris):
        a = dte_t(iris, TreeConfig(), 3, seed=17)[1]
        b = dte_t(iris, TreeConfig(), 3, seed=17)[1]
        assert a.to_dict() == b.to_dict()

    def test_reusing_one_seed_object_stays_deterministic(self, iris):
        ss = np.random.SeedSequence(17)
        a = dte_t(iris, TreeConfig(), 3, seed=ss)[1]
        b = dte_t(iris, TreeConfig(), 3, seed=ss)[1]
        assert a.to_dict() == b.to_dict()
        assert a.to_dict() == dte_t(iris, TreeConfig(), 3, seed=17)[1].to_dict()

    def test_spawned_sibling_seeds_draw_different_resamples(self, iris):
        a, b = np.random.SeedSequence(7).spawn(2)
        ea = dte_t(iris, TreeConfig(), 3, seed=a)[1]
        eb = dte_t(iris, TreeConfig(), 3, seed=b)[1]
        m1 = ea.leaf_counts[0]
        assert np.array_equal(ea.anchors[:m1], eb.anchors[:m1])  # tree 1 sees the data itself
        assert not np.array_equal(ea.anchors[m1:], eb.anchors[m1:])
        # an empty spawn key derives the same streams as the plain integer seed
        assert dte_t(iris, TreeConfig(), 3, seed=np.random.SeedSequence(7))[1].to_dict() \
            == dte_t(iris, TreeConfig(), 3, seed=7)[1].to_dict()

    def test_rejects_nonpositive_t(self, iris):
        with pytest.raises(ValueError):
            dte_t(iris, TreeConfig(), 0, seed=0)


class TestLeafCounts:
    """An embedding reads its leaf counts from its trees; nothing else states them."""

    def test_read_from_the_trees(self, iris):
        emb = fit_embedding(iris, TreeConfig(), 3, seed=5)
        for built in (emb, Embedding(emb.anchors, emb.intercept, emb.trees),
                      Embedding.from_dict(emb.to_dict())):
            assert built.leaf_counts == tuple(tree.n_leaves for tree in emb.trees)
            assert built.n_trees == 3

    def test_anchor_matrix_one_row_short_rejected(self, iris):
        emb = fit_embedding(iris, TreeConfig(), 3, seed=5)
        short = emb.anchors[:-1], emb.intercept[:-1]
        with pytest.raises(ValueError, match="leaf_counts must sum to the anchor count"):
            Embedding(*short, emb.trees)
        counts = (*emb.leaf_counts[:-1], emb.leaf_counts[-1] - 1)  # sums to the short W
        with pytest.raises(TypeError):
            Embedding(*short, counts, emb.trees)

    def test_anchor_and_intercept_shapes_rejected(self, iris):
        emb = fit_embedding(iris, TreeConfig(), 1, seed=5)
        message = r"^anchors must be \(m, p\) with one intercept per row$"
        for anchors, intercept in ((emb.anchors, emb.intercept[:-1]),
                                   (emb.anchors.ravel(), emb.intercept)):
            with pytest.raises(ValueError, match=message):
                Embedding(anchors, intercept, emb.trees)


class TestProject:
    def test_training_matrix_reproduces_fit_embedding(self, wine):
        for t in (1, 3):
            z, emb = dte_t(wine, TreeConfig(), t, seed=2)
            assert fit_embedding(wine, TreeConfig(), t, seed=2).to_dict() == emb.to_dict()
            assert np.array_equal(project(emb, wine.features), z)

    def test_zero_rows_map_to_intercept(self, sim100):
        _, emb = dte_t(sim100, TreeConfig(), 1, 0)
        out = project(emb, np.zeros((4, emb.p)))
        assert np.array_equal(out, np.tile(emb.intercept, (4, 1)))

    def test_two_anchor_scalar_loop_oracle(self, rng):
        anchors = np.array([[0.0, 0.0], [4.0, 2.0]])
        stump = DecisionTree.from_dict({  # x0 < 2 to leaf 0, else leaf 1
            "n_features": 2, "n_classes": 2, "config": TreeConfig().to_dict(),
            "feature": [0, -1, -1], "threshold": [2.0], "histogram": [[1, 0], [0, 1]]})
        emb = Embedding(anchors, anchor_intercept(anchors), (stump,))
        X = rng.normal(size=(50, 2))
        out = project(emb, X)
        for i, x in enumerate(X):
            assert out[i, 0] == pytest.approx(0.0, abs=1e-12)
            assert out[i, 1] == pytest.approx(4 * x[0] + 2 * x[1] - 10.0, rel=1e-12)

    def test_concatenation_linearity(self, iris):
        _, emb = dte_t(iris, TreeConfig(), 3, seed=4)
        X = iris.features[::7]
        blocks = []
        start = 0
        for count, tree in zip(emb.leaf_counts, emb.trees):
            sub = Embedding(emb.anchors[start:start + count],
                            emb.intercept[start:start + count], (tree,))
            blocks.append(project(sub, X))
            start += count
        assert np.array_equal(np.hstack(blocks), project(emb, X))

    def test_dimension_mismatch(self, sim100):
        _, emb = dte_t(sim100, TreeConfig(), 1, 0)
        with pytest.raises(ValueError):
            project(emb, np.zeros((3, emb.p + 1)))


class TestNearestAnchorIdentity:
    def test_difference_identity_and_argmax(self, rng):
        checked = 0
        for _ in range(100):
            m = int(rng.integers(2, 9))
            p = int(rng.integers(1, 6))
            anchors = rng.normal(scale=3.0, size=(m, p))
            xs = rng.normal(scale=3.0, size=(100, p))
            z = xs @ anchors.T + anchor_intercept(anchors)
            d2 = ((xs[:, None, :] - anchors[None]) ** 2).sum(axis=2)
            lhs = z[:, :, None] - z[:, None, :]
            rhs = 0.5 * (d2[:, None, :] - d2[:, :, None])
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)
            assert np.array_equal(z.argmax(axis=1), d2.argmin(axis=1))
            checked += xs.shape[0]
        assert checked == 10_000

    def test_tied_anchors_break_identically(self):
        anchors = np.array([[1.0, 2.0], [3.0, -1.0], [1.0, 2.0]])
        xs = np.array([[1.0, 2.0], [0.0, 0.0], [5.0, 5.0]])
        z = xs @ anchors.T + anchor_intercept(anchors)
        d2 = ((xs[:, None, :] - anchors[None]) ** 2).sum(axis=2)
        assert np.array_equal(z.argmax(axis=1), d2.argmin(axis=1))


class TestSerialization:
    def test_round_trip_exact(self, iris):
        _, emb = dte_t(iris, TreeConfig(), 2, seed=8)
        blob = json.dumps(emb.to_dict())
        again = Embedding.from_dict(json.loads(blob))
        assert again.to_dict() == emb.to_dict()
        assert np.array_equal(again.anchors, emb.anchors)
        assert np.array_equal(again.intercept, emb.intercept)

    def test_flipped_intercept_shifts_projection_by_constant(self, sim100):
        _, emb = dte_t(sim100, TreeConfig(), 1, 0)
        flipped = dataclasses.replace(emb, intercept=-emb.intercept)
        delta = project(flipped, sim100.features) - project(emb, sim100.features)
        assert np.allclose(delta, delta[0], rtol=0, atol=1e-12)
