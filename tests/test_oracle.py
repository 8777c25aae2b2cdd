import re

import numpy as np
import pytest

from dte import oracle
from dte.oracle import (DiscreteJoint, GaussianMixtureSpec, Partition, bayes_accuracy, check_indicator_error,
                        check_sufficiency, epsilon_homogeneity,
                        nearest_mean_instance, oracle_embedding,
                        population_embedding, random_discrete_instance,
                        region_posteriors, sample_mixture, three_cluster_spec,
                        verify_instance)


def tiny_joint(points, weights, cond):
    return DiscreteJoint(np.asarray(points, float), np.asarray(weights, float),
                         np.asarray(cond, float))


def two_class_interval_joint() -> DiscreteJoint:
    """Uniform 10,000-cell grid discretization of two unit-interval classes on [-1, 1].

    Class 1 is uniform on [-1, 0], class 2 on [0, 1], equal priors; cell
    centers never sit at 0, so conditionals are one-hot by sign.
    """
    n_grid = 10_000
    centers = -1.0 + (np.arange(n_grid) + 0.5) * (2.0 / n_grid)
    weights = np.full(n_grid, 1.0 / n_grid)
    cond = np.zeros((n_grid, 2))
    cond[centers < 0, 0] = 1.0
    cond[centers > 0, 1] = 1.0
    return DiscreteJoint(centers[:, None], weights, cond)


def threshold_partition(joint: DiscreteJoint, threshold: float) -> Partition:
    """Two regions split by x[0] < threshold (region 0) vs >= (region 1)."""
    return Partition((joint.points[:, 0] >= threshold).astype(np.int64))


class TestEpsilonHomogeneity:
    def test_singleton_regions_have_zero_spread(self):
        j = tiny_joint([[0.0], [1.0]], [0.5, 0.5], [[1, 0], [0, 1]])
        per, eps = epsilon_homogeneity(j, Partition([0, 1]))
        assert per.tolist() == [0.0, 0.0] and eps == 0.0

    def test_l1_spread_hand_value(self):
        j = tiny_joint([[0.0], [1.0]], [0.5, 0.5], [[1.0, 0.0], [0.6, 0.4]])
        per, eps = epsilon_homogeneity(j, Partition([0, 0]))
        assert per[0] == pytest.approx(0.8, abs=1e-15)
        assert eps == per[0]

    def test_constant_conditionals_give_zero(self):
        j = tiny_joint([[0.0], [1.0], [2.0]], [1 / 3] * 3, [[0.3, 0.7]] * 3)
        _, eps = epsilon_homogeneity(j, Partition([0, 0, 1]))
        assert eps == 0.0


class TestPopulationEmbedding:
    def test_interval_means_with_offset_split(self):
        j = two_class_interval_joint()
        pe = population_embedding(j, threshold_partition(j, 0.04))
        assert np.allclose(pe.anchors.ravel(), [-0.48, 0.52], atol=1e-12)

    def test_interval_means_with_perfect_split(self):
        j = two_class_interval_joint()
        pe = population_embedding(j, threshold_partition(j, 0.0))
        assert np.allclose(pe.anchors.ravel(), [-0.5, 0.5], atol=1e-12)
        assert np.allclose(pe.masses, [0.5, 0.5], atol=1e-12)

    def test_single_region_gives_total_expectation(self, rng):
        pts = rng.normal(size=(10, 3))
        w = rng.uniform(0.5, 1.0, 10)
        w /= w.sum()
        j = tiny_joint(pts, w, np.tile([0.5, 0.5], (10, 1)))
        pe = population_embedding(j, Partition(np.zeros(10, int)))
        assert np.allclose(pe.anchors[0], (w[:, None] * pts).sum(0), rtol=1e-12)

    def test_values_match_affine_formula(self, rng):
        joint, part = random_discrete_instance(3)
        pe = population_embedding(joint, part)
        expected = joint.points @ pe.anchors.T - 0.5 * (pe.anchors ** 2).sum(1)
        assert np.allclose(pe.values, expected, rtol=1e-12)


class TestSufficiency:
    def test_homogeneous_instances_have_exactly_zero_deviation(self):
        for i in range(50):
            joint, part = random_discrete_instance(i, homogeneous=True)
            rep = check_sufficiency(joint, part)
            assert rep.epsilon == 0.0
            assert rep.deviation == 0.0
            assert rep.bound_ok

    def test_bound_holds_on_random_instances(self):
        for i in range(200):
            joint, part = random_discrete_instance(i)
            rep = check_sufficiency(joint, part)
            assert rep.deviation <= rep.epsilon + 1e-12

    def test_deviation_can_be_strictly_below_epsilon(self):
        j = tiny_joint([[0.0], [1.0]], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        rep = check_sufficiency(j, Partition([0, 0]))
        assert rep.epsilon == 2.0
        assert rep.deviation == pytest.approx(1.0, abs=1e-15)
        assert rep.deviation < rep.epsilon

    def test_posterior_rows_are_distributions(self):
        for i in range(20):
            joint, part = random_discrete_instance(i)
            post = region_posteriors(joint, part)
            assert np.all(post >= 0)
            assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)


class TestIndicatorError:
    def test_pure_regions_have_zero_error(self):
        for i in range(20):
            joint, part = nearest_mean_instance(i, pure=True)
            rep = check_indicator_error(joint, part)
            assert rep.hypothesis_ok
            assert rep.error_classified == 0.0
            assert rep.error_formula == 0.0

    def test_two_region_hand_instance(self):
        # two equal-mass regions with impurities 0.2 and 0.4
        j = tiny_joint([[0.0], [0.2], [10.0], [10.2]], [0.25] * 4,
                       [[0.8, 0.2], [0.8, 0.2], [0.4, 0.6], [0.4, 0.6]])
        rep = check_indicator_error(j, Partition([0, 0, 1, 1]))
        assert rep.hypothesis_ok
        assert rep.error_formula == pytest.approx(0.3, abs=1e-15)
        assert rep.error_classified == pytest.approx(0.3, abs=1e-15)

    def test_equality_on_nearest_mean_instances(self):
        for i in range(200):
            joint, part = nearest_mean_instance(i, pure=(i % 4 == 0))
            rep = check_indicator_error(joint, part)
            assert rep.hypothesis_ok
            assert abs(rep.error_classified - rep.error_formula) <= 1e-12

    def test_hypothesis_violation_is_reported_not_asserted(self):
        # region means coincide poorly with geometry: far point grouped with near ones
        j = tiny_joint([[0.0], [0.1], [5.0], [5.1], [3.5]], [0.2] * 5,
                       [[1, 0], [1, 0], [0, 1], [0, 1], [1, 0]])
        part = Partition([0, 0, 1, 1, 0])  # 3.5 is closer to region 1's mean
        rep = check_indicator_error(j, part)
        assert not rep.hypothesis_ok
        assert np.isfinite(rep.error_classified) and np.isfinite(rep.error_formula)

    def test_majority_ties_take_smallest_class(self):
        j = tiny_joint([[0.0], [1.0]], [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        rep = check_indicator_error(j, Partition([0, 1]))
        assert rep.region_classes.tolist() == [1, 1]

    def test_region_classes_cover_every_region(self):
        for i in range(20):
            joint, part = nearest_mean_instance(i)
            rep = check_indicator_error(joint, part)
            assert rep.region_classes.shape == (part.n_regions,)
            assert np.all((1 <= rep.region_classes)
                          & (rep.region_classes <= joint.n_classes))


class TestNearestMeanInstance:
    """The restarts of `nearest_mean_instance`, driven by a support whose starts can
    leave a region without points: a start picks 3 of the 20 points as anchors."""

    @staticmethod
    def use_support(monkeypatch, points):
        drawn = []   # the instance's generator, to count its draws afterwards

        def support(rng):
            drawn.append(rng)
            return points, np.full(len(points), 1 / len(points))

        monkeypatch.setattr(oracle, "_random_support", support)
        return drawn

    def test_every_start_empties_a_region(self, monkeypatch):
        # equal points go to the first anchor, so the other two regions stay empty
        self.use_support(monkeypatch, np.ones((20, 2)))
        with pytest.raises(RuntimeError, match="did not stabilize"):
            nearest_mean_instance(0)

    def test_a_start_that_empties_a_region_restarts(self, monkeypatch):
        # two anchors at the origin tie, and the second one's region stays empty
        points = np.vstack([np.zeros((17, 2)), [[3.0, 0.0], [0.0, 3.0], [-3.0, -3.0]]])
        drawn = self.use_support(monkeypatch, points)
        joint, part = nearest_mean_instance(29)
        one_start = np.random.default_rng(29)
        one_start.choice(20, size=3, replace=False)
        one_start.dirichlet(np.ones(3), size=20)
        # the instance's generator drew past one start's anchors and the conditionals
        assert drawn[0].bit_generator.state != one_start.bit_generator.state
        assert np.array_equal(joint.points, points)
        assert check_indicator_error(joint, part).hypothesis_ok


def per_class_max_error(joint, part):
    """The indicator rule's error as the rule was first stated: each class scores
    the largest coordinate among its majority regions (-inf when it has none),
    and the best score wins, ties to the smallest class id."""
    z = population_embedding(joint, part).values
    region_classes = np.argmax(region_posteriors(joint, part), axis=1) + 1
    owned = region_classes[None, :] == np.arange(1, joint.n_classes + 1)[:, None]
    scores = np.where(owned[None, :, :], z[:, None, :], -np.inf).max(axis=2)
    preds = np.argmax(scores, axis=1) + 1
    return float((joint.weights * (1.0 - joint.conditionals[np.arange(joint.n_points),
                                                             preds - 1])).sum())


class TestIndicatorRule:
    """check_indicator_error classifies by the class of the largest coordinate;
    it must err exactly as the per-class maximum rule does."""

    def test_classifies_by_largest_owned_coordinate(self):
        # regions 0 and 2 lean to class 1, region 1 to class 2; each point is
        # classified by its own region, so the error is the mean impurity
        j = tiny_joint([[0.0], [5.0], [10.0]], [0.2, 0.5, 0.3],
                       [[0.9, 0.1], [0.3, 0.7], [0.6, 0.4]])
        rep = check_indicator_error(j, Partition([0, 1, 2]))
        assert rep.region_classes.tolist() == [1, 2, 1]
        assert rep.error_classified == pytest.approx(0.2 * 0.1 + 0.5 * 0.3 + 0.3 * 0.4,
                                                     abs=1e-15)
        assert rep.error_classified == per_class_max_error(j, Partition([0, 1, 2]))

    def test_class_without_regions_never_wins(self):
        j = tiny_joint([[0.0], [10.0]], [0.5, 0.5], [[0.4, 0.6], [0.3, 0.7]])
        rep = check_indicator_error(j, Partition([0, 1]))
        assert rep.region_classes.tolist() == [2, 2]
        assert rep.error_classified == pytest.approx(0.5 * 0.4 + 0.5 * 0.3, abs=1e-15)
        assert rep.error_classified == per_class_max_error(j, Partition([0, 1]))

    def test_tied_coordinates_of_two_classes_give_the_smaller_class(self):
        # both regions have mean 0, so every coordinate is 0: region 0 (class 2)
        # and region 1 (class 1) tie at every point and class 1 must win
        j = tiny_joint([[-2.0], [2.0], [-1.0], [1.0]], [0.2, 0.2, 0.3, 0.3],
                       [[0, 1], [0, 1], [1, 0], [1, 0]])
        part = Partition([0, 0, 1, 1])
        assert np.array_equal(population_embedding(j, part).anchors, [[0.0], [0.0]])
        rep = check_indicator_error(j, part)
        assert rep.region_classes.tolist() == [2, 1]
        assert rep.error_classified == pytest.approx(0.4, abs=1e-15)  # P(Y = 2)
        assert rep.error_classified == per_class_max_error(j, part)

    def test_equals_the_per_class_maximum_rule_on_random_instances(self):
        for i in range(100):
            for joint, part in (random_discrete_instance(i),
                                nearest_mean_instance(i, pure=(i % 2 == 0))):
                rep = check_indicator_error(joint, part)
                assert rep.error_classified == per_class_max_error(joint, part)


class TestVerifyInstance:
    def test_record_schema(self):
        joint, part = random_discrete_instance(0)
        rec = verify_instance(joint, part, instance_seed=0)
        assert set(rec) == {"instance_seed", "epsilon", "deviation", "bound_ok",
                            "Lg_classifier", "Lg_formula", "hypothesis_ok"}
        assert rec["bound_ok"] is True


class TestValidation:
    def test_joint_invariants(self):
        with pytest.raises(ValueError, match="sum to 1"):
            tiny_joint([[0.0]], [0.5], [[1.0]])
        with pytest.raises(ValueError, match="positive"):
            tiny_joint([[0.0], [1.0]], [1.0, 0.0], [[1.0], [1.0]])
        with pytest.raises(ValueError, match="distributions"):
            tiny_joint([[0.0]], [1.0], [[0.7, 0.7]])

    @pytest.mark.parametrize("points, weights, cond", [
        ([0.0, 1.0], [0.5, 0.5], [[1.0], [1.0]]),
        ([[0.0], [1.0]], [1.0], [[1.0], [1.0]]),
        ([[0.0], [1.0]], [0.5, 0.5], [[1.0]]),
        ([[0.0]], [1.0], [1.0]),
    ], ids=["points", "weights", "conditionals", "1-D conditionals"])
    def test_joint_shapes_rejected(self, points, weights, cond):
        message = "points (N,p), weights (N,), conditionals (N,K) required"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tiny_joint(points, weights, cond)

    def test_partition_invariants(self):
        with pytest.raises(ValueError, match="nonempty|at least one"):
            Partition([0, 0, 2])

    @pytest.mark.parametrize("regions", [[], [[0, 1]], [0, -1]], ids=["empty", "2-D", "negative"])
    def test_partition_regions_rejected(self, regions):
        with pytest.raises(ValueError,
                           match="^regions must be a non-empty vector of ids >= 0$"):
            Partition(regions)

    @pytest.mark.parametrize("check", [epsilon_homogeneity, population_embedding,
                                       region_posteriors, check_sufficiency,
                                       check_indicator_error])
    @pytest.mark.parametrize("size", [10, 40])
    def test_partition_must_cover_the_support(self, check, size):
        joint, part = random_discrete_instance(0)
        other = Partition(np.resize(part.regions, size))
        with pytest.raises(ValueError,
                           match=f"partition assigns {size} points, but the joint has 20 "):
            check(joint, other)


class TestGaussianMixture:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="priors"):
            GaussianMixtureSpec(np.zeros((2, 2)), 1.0, np.array([1, 2]),
                                np.array([0.7, 0.7]))
        with pytest.raises(ValueError, match="component"):
            GaussianMixtureSpec(np.zeros((1, 2)), 1.0, np.array([1]),
                                np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="sigma"):
            GaussianMixtureSpec(np.zeros((1, 2)), -1.0, np.array([1]), np.array([1.0]))

    @pytest.mark.parametrize("priors, message", [
        ([1.0, 0.0], "class 2 has prior 0.0; every class prior must be > 0"),
        ([-0.5, 1.5], "class 1 has prior -0.5; every class prior must be > 0"),
        ([np.nan, 1.0], "class 1 has prior nan; every class prior must be > 0"),
    ], ids=["zero", "negative", "nan"])
    def test_every_class_prior_must_be_positive(self, priors, message):
        # a class of prior 0 is never drawn, so sampling could only ask for a larger n
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GaussianMixtureSpec(np.zeros((2, 2)), 1.0, np.array([1, 2]), np.array(priors))

    @pytest.mark.parametrize("classes, message", [
        ([1], "one class id per component required"),
        ([1, 3], "component class ids must lie in 1..K"),
        ([0, 1], "component class ids must lie in 1..K"),
    ], ids=["count", "above", "below"])
    def test_component_classes_rejected(self, classes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GaussianMixtureSpec(np.zeros((2, 2)), 1.0, np.array(classes), np.array([0.5, 0.5]))

    def test_sample_missing_a_class_is_rejected(self):
        # seed 5 draws two class-2 points: class 1, not the highest class, is missed
        with pytest.raises(ValueError, match="^sample of size 2 missed a class; increase n$"):
            sample_mixture(three_cluster_spec(), 2, 5)

    def test_sampling_deterministic(self):
        spec = three_cluster_spec()
        a = sample_mixture(spec, 50, 7)
        b = sample_mixture(spec, 50, 7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_class_one_fraction_concentrates(self):
        ds = sample_mixture(three_cluster_spec(), 10 ** 6, 123)
        frac = float(np.mean(ds.labels == 1))
        assert abs(frac - 2 / 3) <= 0.002

    def test_zero_sigma_collapses_to_component_means(self):
        spec = three_cluster_spec(sigma=0.0)
        ds, comps = sample_mixture(spec, 200, 5, return_components=True)
        assert np.array_equal(ds.features, spec.means[comps])

    def test_components_drawn_uniformly_within_class(self):
        ds, comps = sample_mixture(three_cluster_spec(), 20_000, 11,
                                   return_components=True)
        class1 = comps[ds.labels == 1]
        frac = np.mean(class1 == 0)
        assert abs(frac - 0.5) < 0.02


class TestOracleEmbedding:
    def test_width_is_component_count(self):
        spec = three_cluster_spec()
        z = oracle_embedding(spec, np.zeros((5, 2)))
        assert z.shape == (5, 3)

    def test_component_mean_peaks_at_its_own_column(self):
        spec = three_cluster_spec()
        z = oracle_embedding(spec, spec.means)
        assert np.array_equal(z.argmax(axis=1), np.arange(3))

    def test_matches_scalar_loop(self, rng):
        spec = three_cluster_spec()
        X = rng.normal(size=(20, 2))
        z = oracle_embedding(spec, X)
        for i, x in enumerate(X):
            for jj, mu in enumerate(spec.means):
                assert z[i, jj] == pytest.approx(
                    float(x @ mu - 0.5 * mu @ mu), rel=1e-12, abs=1e-12)


class TestBayesAccuracy:
    def test_separated_components_are_perfectly_classified(self):
        spec = GaussianMixtureSpec(np.array([[0.0, 0.0], [100.0, 100.0]]), 0.5,
                                   np.array([1, 2]), np.array([0.5, 0.5]))
        assert bayes_accuracy(spec, 100_000, 3) == 1.0

    def test_single_class_is_exact(self):
        spec = GaussianMixtureSpec(np.array([[0.0, 0.0]]), 1.0,
                                   np.array([1]), np.array([1.0]))
        assert bayes_accuracy(spec, 10_000, 0) == 1.0

    def test_requires_positive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            bayes_accuracy(three_cluster_spec(sigma=0.0), 10, 0)

    def test_requires_a_draw(self):
        with pytest.raises(ValueError, match="^n_mc must be >= 1$"):
            bayes_accuracy(three_cluster_spec(), 0, 0)
