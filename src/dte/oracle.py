"""Exact population-level verification on finite discrete supports.

Continuous statements about leaf-mean embeddings are checked here by brute
force on joints with finitely many support points, where conditional
distributions, region means, and classification errors are all exact
weighted sums. Two facts are verified per instance:

  * sufficiency: if conditional class distributions vary by at most eps
    (L1) within every region, then conditioning on the embedding instead of
    the input moves the conditional by at most eps, exactly 0 when eps = 0;
  * indicator-rule error: when every support point is nearest (in Euclidean
    norm) to its own region's mean, classifying by the majority class of the
    region with the largest embedding coordinate, which is the nearest
    mean's region, errs with probability
    sum_j P(region j) * (1 - max_c P(Y=c | region j)).

The module also hosts the Gaussian-mixture generators used by the
simulation pipeline, including the oracle embedding built from the true
component means and a Monte Carlo estimate of Bayes accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import anchor_intercept


@dataclass(frozen=True)
class DiscreteJoint:
    """Finite joint law: support points, their masses, and P(Y | X = x_i) rows."""

    points: np.ndarray        # (N, p)
    weights: np.ndarray       # (N,) strictly positive, sums to 1
    conditionals: np.ndarray  # (N, K) stochastic rows

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        c = np.asarray(self.conditionals, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "conditionals", c)
        if pts.ndim != 2 or w.shape != (pts.shape[0],) or c.ndim != 2 or c.shape[0] != pts.shape[0]:
            raise ValueError("points (N,p), weights (N,), conditionals (N,K) required")
        if np.any(w <= 0):
            raise ValueError("support weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("support weights must sum to 1")
        if np.any(c < 0) or np.any(np.abs(c.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("conditional rows must be distributions")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_classes(self) -> int:
        return self.conditionals.shape[1]


@dataclass(frozen=True)
class Partition:
    """Assignment of each support point to a region 0..m-1, all nonempty."""

    regions: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.regions, dtype=np.int64)
        object.__setattr__(self, "regions", r)
        if r.ndim != 1 or r.size == 0 or r.min() < 0:
            raise ValueError("regions must be a non-empty vector of ids >= 0")
        m = int(r.max()) + 1
        if np.any(np.bincount(r, minlength=m) == 0):
            raise ValueError("every region must contain at least one point")

    @property
    def n_regions(self) -> int:
        return int(self.regions.max()) + 1


def _region_members(joint: DiscreteJoint, part: Partition) -> list[np.ndarray]:
    """The support point ids of each region; the partition must assign every point."""
    if part.regions.size != joint.n_points:
        raise ValueError(f"the partition assigns {part.regions.size} points, "
                         f"but the joint has {joint.n_points} support points")
    return [np.flatnonzero(part.regions == j) for j in range(part.n_regions)]


def epsilon_homogeneity(joint: DiscreteJoint, part: Partition):
    """Max within-region L1 spread of P(Y|X): per-region values and the max."""
    members = _region_members(joint, part)
    eps = np.zeros(len(members))
    for j, idx in enumerate(members):
        rows = joint.conditionals[idx]
        if rows.shape[0] > 1:
            spread = np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2)
            eps[j] = float(spread.max())
    return eps, float(eps.max())


@dataclass(frozen=True)
class PopulationEmbedding:
    anchors: np.ndarray  # (m, p) region means E[X | region]
    values: np.ndarray   # (N, m) embedding of every support point
    masses: np.ndarray   # (m,) P(X in region)


def population_embedding(joint: DiscreteJoint, part: Partition) -> PopulationEmbedding:
    """Exact region-mean anchors and per-point embedding values."""
    members = _region_members(joint, part)
    anchors = np.empty((len(members), joint.points.shape[1]))
    masses = np.empty(len(members))
    for j, idx in enumerate(members):
        masses[j] = joint.weights[idx].sum()
        anchors[j] = (joint.weights[idx, None] * joint.points[idx]).sum(axis=0) / masses[j]
    values = joint.points @ anchors.T + anchor_intercept(anchors)
    return PopulationEmbedding(anchors, values, masses)


def region_posteriors(joint: DiscreteJoint, part: Partition) -> np.ndarray:
    """P(Y | region j) rows: mass-weighted mixtures of member conditionals.

    When every member row is identical the common row is returned as-is,
    keeping the homogeneous case exact in floating point.
    """
    members = _region_members(joint, part)
    out = np.empty((len(members), joint.n_classes))
    for j, idx in enumerate(members):
        rows = joint.conditionals[idx]
        if np.all(rows == rows[0]):
            out[j] = rows[0]
        else:
            out[j] = (joint.weights[idx, None] * rows).sum(axis=0) / joint.weights[idx].sum()
    return out


@dataclass(frozen=True)
class SufficiencyReport:
    epsilon: float
    deviation: float   # max_i || P(Y|X=x_i) - P(Y | region(x_i)) ||_1
    bound_ok: bool


def check_sufficiency(joint: DiscreteJoint, part: Partition) -> SufficiencyReport:
    """Conditioning on the embedding moves P(Y|X) by at most the homogeneity eps."""
    _, eps = epsilon_homogeneity(joint, part)
    post = region_posteriors(joint, part)
    deviation = float(np.abs(joint.conditionals - post[part.regions]).sum(axis=1).max())
    return SufficiencyReport(eps, deviation, deviation <= eps + 1e-12)


@dataclass(frozen=True)
class IndicatorErrorReport:
    hypothesis_ok: bool          # every point nearest its own region mean
    error_classified: float      # error of the indicator rule, point by point
    error_formula: float         # sum_j P(region j) * impurity_j
    region_classes: np.ndarray   # (m,) each region's majority class id, ties to the smallest


def check_indicator_error(joint: DiscreteJoint, part: Partition) -> IndicatorErrorReport:
    """Compare the indicator rule's exact error against the impurity formula.

    The rule gives each region's coordinate its majority class and classifies
    a point by its largest coordinate, the nearest mean's region; regions of
    different classes tied at the largest give the smallest class. The two
    errors agree whenever the nearest-own-mean hypothesis holds; when it does
    not, both numbers are still reported for diagnosis.
    """
    pe = population_embedding(joint, part)
    # hypothesis check by direct squared distances, independent of the Z path
    d2 = ((joint.points[:, None, :] - pe.anchors[None, :, :]) ** 2).sum(axis=2)
    hypothesis_ok = bool(np.all(np.argmin(d2, axis=1) == part.regions))

    post = region_posteriors(joint, part)
    region_classes = np.argmax(post, axis=1).astype(np.int64) + 1
    top = pe.values == pe.values.max(axis=1, keepdims=True)
    preds = np.where(top, region_classes, joint.n_classes).min(axis=1)
    per_point = 1.0 - joint.conditionals[np.arange(joint.n_points), preds - 1]
    error_classified = float((joint.weights * per_point).sum())

    impurity = 1.0 - post.max(axis=1)
    error_formula = float((pe.masses * impurity).sum())
    return IndicatorErrorReport(hypothesis_ok, error_classified, error_formula, region_classes)


def verify_instance(joint: DiscreteJoint, part: Partition, instance_seed=None) -> dict:
    """Both checks on one instance, as a JSON-ready record."""
    suff = check_sufficiency(joint, part)
    ind = check_indicator_error(joint, part)
    return {
        "instance_seed": instance_seed,
        "epsilon": suff.epsilon,
        "deviation": suff.deviation,
        "bound_ok": suff.bound_ok,
        "Lg_classifier": ind.error_classified,
        "Lg_formula": ind.error_formula,
        "hypothesis_ok": ind.hypothesis_ok,
    }


# ---------------------------------------------------------------------------
# instance generators

# every random instance: 20 support points in the plane, 3 regions, 3 classes
_N_POINTS, _N_REGIONS, _N_CLASSES, _DIM = 20, 3, 3, 2


def _random_support(rng: np.random.Generator):
    """Standard normal support points and positive weights summing to 1."""
    points = rng.normal(size=(_N_POINTS, _DIM))
    weights = rng.uniform(0.2, 1.0, size=_N_POINTS)
    return points, weights / weights.sum()


def random_discrete_instance(seed, homogeneous=False):
    """Random discrete joint plus an arbitrary nonempty partition.

    With homogeneous=True all points of a region share one conditional row
    (the eps = 0 case).
    """
    rng = np.random.default_rng(seed)
    points, weights = _random_support(rng)
    base = np.concatenate([np.arange(_N_REGIONS),
                           rng.integers(0, _N_REGIONS, size=_N_POINTS - _N_REGIONS)])
    regions = rng.permutation(base)
    if homogeneous:
        per_region = rng.dirichlet(np.ones(_N_CLASSES), size=_N_REGIONS)
        cond = per_region[regions]
    else:
        cond = rng.dirichlet(np.ones(_N_CLASSES), size=_N_POINTS)
    return DiscreteJoint(points, weights, cond), Partition(regions)


def nearest_mean_instance(seed, pure=False):
    """Instance whose partition is a fixed point of weighted nearest-mean
    assignment, so every point is nearest its own region mean. Up to 50
    random starts are tried.

    With pure=True each region's points share a one-hot conditional row.
    """
    rng = np.random.default_rng(seed)
    points, weights = _random_support(rng)

    for _ in range(50):
        anchors = points[rng.choice(_N_POINTS, size=_N_REGIONS, replace=False)]
        assign = None
        for _ in range(200):
            d2 = ((points[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2)
            new_assign = np.argmin(d2, axis=1)
            if np.any(np.bincount(new_assign, minlength=_N_REGIONS) == 0):
                assign = None
                break
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for j in range(_N_REGIONS):
                idx = np.flatnonzero(assign == j)
                anchors[j] = (weights[idx, None] * points[idx]).sum(axis=0) / weights[idx].sum()
        if assign is not None:
            break
    else:
        raise RuntimeError("nearest-mean partition did not stabilize; try another seed")
    regions = assign

    if pure:
        region_class = rng.integers(1, _N_CLASSES + 1, size=_N_REGIONS)
        cond = np.zeros((_N_POINTS, _N_CLASSES))
        cond[np.arange(_N_POINTS), region_class[regions] - 1] = 1.0
    else:
        cond = rng.dirichlet(np.ones(_N_CLASSES), size=_N_POINTS)
    return DiscreteJoint(points, weights, cond), Partition(regions)


# ---------------------------------------------------------------------------
# Gaussian-mixture simulation model


@dataclass(frozen=True)
class GaussianMixtureSpec:
    """Isotropic Gaussian clusters, each owned by a class.

    Sampling draws the class by prior, a component uniformly within the
    class, then an isotropic Gaussian around that component's mean. sigma
    may be 0 (point-mass clusters); density-based operations require > 0.
    """

    means: np.ndarray              # (M, p)
    sigma: float
    component_classes: np.ndarray  # (M,) class ids 1..K
    class_priors: np.ndarray       # (K,)

    def __post_init__(self):
        mu = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        cc = np.asarray(self.component_classes, dtype=np.int64)
        pr = np.asarray(self.class_priors, dtype=np.float64)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "component_classes", cc)
        object.__setattr__(self, "class_priors", pr)
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if cc.shape != (mu.shape[0],):
            raise ValueError("one class id per component required")
        k = pr.shape[0]
        if cc.min(initial=1) < 1 or cc.max(initial=0) > k:
            raise ValueError("component class ids must lie in 1..K")
        if np.any(np.bincount(cc, minlength=k + 1)[1:] == 0):
            raise ValueError("every class needs at least one component")
        bad = np.flatnonzero(~(pr > 0))   # a class of prior 0 is never sampled
        if bad.size:
            raise ValueError(f"class {bad[0] + 1} has prior {pr[bad[0]]}; "
                             f"every class prior must be > 0")
        if abs(pr.sum() - 1.0) > 1e-12:
            raise ValueError("class priors must sum to 1")

    @property
    def n_classes(self) -> int:
        return self.class_priors.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def three_cluster_spec(sigma: float = 0.3) -> GaussianMixtureSpec:
    """Two-class planar benchmark: class 1 owns clusters at (0,0) and (0,3),
    class 2 the cluster at (1,2); class priors 2/3 and 1/3."""
    return GaussianMixtureSpec(
        means=np.array([[0.0, 0.0], [0.0, 3.0], [1.0, 2.0]]),
        sigma=sigma,
        component_classes=np.array([1, 1, 2]),
        class_priors=np.array([2.0 / 3.0, 1.0 / 3.0]),
    )


def _draw(spec: GaussianMixtureSpec, n: int, rng: np.random.Generator):
    labels = rng.choice(np.arange(1, spec.n_classes + 1), size=n, p=spec.class_priors)
    groups = [np.flatnonzero(spec.component_classes == c)
              for c in range(1, spec.n_classes + 1)]
    sizes = np.array([g.size for g in groups])
    lookup = np.full((spec.n_classes, int(sizes.max())), -1, dtype=np.int64)
    for c, g in enumerate(groups):
        lookup[c, : g.size] = g
    picks = rng.integers(0, sizes[labels - 1])
    components = lookup[labels - 1, picks]
    X = spec.means[components] + spec.sigma * rng.standard_normal((n, spec.dim))
    return X, labels, components


def sample_mixture(spec: GaussianMixtureSpec, n: int, seed, return_components=False):
    """i.i.d. sample as a Dataset; n must be large enough that every class
    is drawn at least once (raises otherwise)."""
    from .data import from_arrays

    X, labels, components = _draw(spec, n, np.random.default_rng(seed))
    if np.unique(labels).size != spec.n_classes:
        raise ValueError(f"sample of size {n} missed a class; increase n")
    ds = from_arrays(X, labels)
    return (ds, components) if return_components else ds


def oracle_embedding(spec: GaussianMixtureSpec, X) -> np.ndarray:
    """Embedding built from the true component means instead of leaf means."""
    X = np.asarray(X, dtype=np.float64)
    return X @ spec.means.T + anchor_intercept(spec.means)


def bayes_accuracy(spec: GaussianMixtureSpec, n_mc: int, seed) -> float:
    """Monte Carlo accuracy of the exact posterior-argmax rule."""
    if spec.sigma <= 0:
        raise ValueError("density-based Bayes rule requires sigma > 0")
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    X, labels, _ = _draw(spec, n_mc, np.random.default_rng(seed))
    d2 = ((X[:, None, :] - spec.means[None, :, :]) ** 2).sum(axis=2)
    # shift by the row minimum so at least one exponential survives underflow
    lik = np.exp(-(d2 - d2.min(axis=1, keepdims=True)) / (2.0 * spec.sigma ** 2))
    scores = np.zeros((n_mc, spec.n_classes))
    for c in range(1, spec.n_classes + 1):
        comps = np.flatnonzero(spec.component_classes == c)
        scores[:, c - 1] = spec.class_priors[c - 1] * lik[:, comps].mean(axis=1)
    preds = np.argmax(scores, axis=1) + 1
    return float(np.mean(preds == labels))
