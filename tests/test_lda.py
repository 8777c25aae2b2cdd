import math
import re

import numpy as np
import pytest

from dte import LdaModel, discriminant_scores, fit_lda, from_arrays, predict_lda
from dte.data import class_sizes


def pinv_2x2_closed_form(S):
    """Independent spectral pseudoinverse of a symmetric 2x2 matrix via the
    characteristic polynomial."""
    a, b, c = S[0, 0], S[0, 1], S[1, 1]
    disc = math.sqrt(max((a - c) ** 2 + 4 * b * b, 0.0))
    lams = [(a + c + disc) / 2, (a + c - disc) / 2]
    out = np.zeros((2, 2))
    tol = 2 * np.finfo(float).eps * max(lams[0], 0.0)
    for lam in lams:
        if lam <= tol:
            continue
        if abs(b) > 0:
            v = np.array([b, lam - a])
        elif abs(lam - a) < abs(lam - c):
            v = np.array([1.0, 0.0])
        else:
            v = np.array([0.0, 1.0])
        v = v / np.linalg.norm(v)
        out += np.outer(v, v) / lam
    return out


def brute_force_scores(model, Z):
    """Scalar-loop evaluation of the discriminant for every (row, class)."""
    out = np.empty((len(Z), model.n_classes))
    for i, z in enumerate(Z):
        for c in range(model.n_classes):
            mc = model.means[c]
            out[i, c] = float(z @ model.cov_pinv @ mc
                              - 0.5 * mc @ model.cov_pinv @ mc
                              + model.log_priors[c])
    return out


def reference_scores(model, Z):
    """The rule's (q, K) scores built from the model's fields, row-major:
    (Z S+ M' - quad) + log pi, the two per-class terms applied apart."""
    proj = model.cov_pinv @ model.means.T
    quad = 0.5 * np.einsum("cd,dc->c", model.means, proj)
    return Z @ proj - quad + model.log_priors


def same_bits(a, b):
    """Equal shapes and equal IEEE bits, so -0.0 differs from +0.0 and NaN equals NaN."""
    return a.shape == b.shape and (np.ascontiguousarray(a).tobytes()
                                   == np.ascontiguousarray(b).tobytes())


def random_instance(rng, n=60, d=3, k=3, spread=4.0):
    y = rng.integers(1, k + 1, size=n)
    y[:k] = np.arange(1, k + 1)
    centers = rng.normal(scale=spread, size=(k, d))
    Z = centers[y - 1] + rng.normal(size=(n, d))
    return Z, y


class TestFitLda:
    def test_zero_scatter_degenerates_to_prior_rule(self):
        model = fit_lda(np.array([[-1.0], [-1.0], [1.0], [1.0]]), [1, 1, 2, 2])
        assert np.array_equal(model.means, np.array([[-1.0], [1.0]]))
        assert np.array_equal(model.cov_pinv, np.zeros((1, 1)))
        # equal priors, all scores tie -> smallest class id everywhere
        assert predict_lda(model, np.array([[-1.0], [5.0]])).tolist() == [1, 1]

    def test_six_point_pinv_against_closed_form(self):
        Z = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0],
                      [3.0, 3.0], [4.0, 3.5], [3.5, 4.0]])
        y = np.array([1, 1, 1, 2, 2, 2])
        model = fit_lda(Z, y)
        centered = Z - model.means[y - 1]
        cov = centered.T @ centered / (len(Z) - 2)
        expected = pinv_2x2_closed_form(cov)
        assert np.allclose(model.cov_pinv, expected, rtol=1e-10, atol=1e-12)
        assert np.allclose(discriminant_scores(model, Z),
                           brute_force_scores(model, Z), rtol=1e-12)

    def test_pinv_defining_property_on_rank_deficient_input(self, rng):
        base = rng.normal(size=(40, 2))
        Z = np.hstack([base, base @ rng.normal(size=(2, 3))])  # 5 cols, rank 2
        y = rng.integers(1, 3, size=40)
        y[:2] = [1, 2]
        model = fit_lda(Z, y)
        centered = Z - model.means[y - 1]
        cov = centered.T @ centered / (len(Z) - 2)
        cov = (cov + cov.T) / 2
        resid = cov @ model.cov_pinv @ cov - cov
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(cov)
        assert np.allclose(model.cov_pinv, model.cov_pinv.T)

    def test_priors_are_empirical_frequencies(self, rng):
        Z, y = random_instance(rng, n=90)
        model = fit_lda(Z, y)
        counts = np.bincount(y, minlength=4)[1:]
        assert np.allclose(np.exp(model.log_priors), counts / 90, rtol=1e-12)
        assert math.isclose(np.exp(model.log_priors).sum(), 1.0, rel_tol=1e-12)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="class 2"):
            fit_lda(np.zeros((3, 2)), [1, 1, 3])
        with pytest.raises(ValueError, match="d >= 1"):
            fit_lda(np.zeros((3, 0)), [1, 1, 2])
        with pytest.raises(ValueError, match="more rows"):
            fit_lda(np.zeros((2, 2)), [1, 2])

    @pytest.mark.parametrize("labels", [[0, 1, 2], [1, 1, 3], []])
    def test_labels_rejected_as_a_dataset_rejects_them(self, labels):
        # one row per label, and a row for no labels, so that the label checks speak
        X = np.zeros((max(len(labels), 1), 1))
        with pytest.raises(ValueError) as from_dataset:
            from_arrays(X, np.array(labels, dtype=np.int64))
        with pytest.raises(ValueError, match=f"^{re.escape(str(from_dataset.value))}$"):
            fit_lda(X, labels)

    def test_no_rows_have_no_class_ids(self):
        for reject in (lambda: fit_lda(np.zeros((0, 1)), []),
                       lambda: class_sizes(np.zeros(0, dtype=np.int64))):
            with pytest.raises(ValueError, match="^class ids must be >= 1$"):
                reject()

    def test_deterministic(self, rng):
        Z, y = random_instance(rng)
        a, b = fit_lda(Z, y), fit_lda(Z, y)
        assert np.array_equal(a.cov_pinv, b.cov_pinv)
        assert np.array_equal(a.means, b.means)


class TestPredictLda:
    def test_symmetric_two_class_boundary(self):
        model = LdaModel(means=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                         cov_pinv=np.eye(2),
                         log_priors=np.log([0.5, 0.5]))
        assert predict_lda(model, np.array([[0.5, 0.0]])).tolist() == [2]
        assert predict_lda(model, np.array([[-0.5, 0.0]])).tolist() == [1]
        # the boundary itself ties -> smallest class id
        assert predict_lda(model, np.array([[0.0, 3.0]])).tolist() == [1]

    def test_class_mean_predicted_as_its_class(self, rng):
        Z, y = random_instance(rng, n=120, d=4, k=4)
        model = fit_lda(Z, y)
        assert predict_lda(model, model.means).tolist() == [1, 2, 3, 4]

    def test_matches_brute_force_argmax(self, rng):
        for trial in range(10):
            Z, y = random_instance(rng, n=50, d=3, k=3, spread=2.0)
            model = fit_lda(Z, y)
            Znew = rng.normal(scale=3.0, size=(40, 3))
            expected = np.argmax(brute_force_scores(model, Znew), axis=1) + 1
            assert np.array_equal(predict_lda(model, Znew), expected)

    def test_dimension_mismatch(self, rng):
        Z, y = random_instance(rng)
        model = fit_lda(Z, y)
        with pytest.raises(ValueError):
            predict_lda(model, np.zeros((2, model.dim + 1)))


class TestInvariances:
    def test_translation_invariance_of_predictions(self, rng):
        for trial in range(20):
            Z, y = random_instance(rng, n=80, d=3, k=3)
            shift = rng.normal(scale=10.0, size=3)
            Znew = rng.normal(scale=4.0, size=(60, 3))
            base = predict_lda(fit_lda(Z, y), Znew)
            shifted = predict_lda(fit_lda(Z + shift, y), Znew + shift)
            assert np.array_equal(base, shifted)

    def test_raising_a_prior_never_shrinks_its_decision_region(self, rng):
        Z, y = random_instance(rng, n=90, d=2, k=3, spread=2.0)
        model = fit_lda(Z, y)
        grid = rng.normal(scale=4.0, size=(500, 2))
        before = predict_lda(model, grid)
        priors = np.exp(model.log_priors)
        for c in range(1, 4):
            bumped = priors.copy()
            bumped[c - 1] *= 3.0
            bumped /= bumped.sum()
            model_c = LdaModel(model.means, model.cov_pinv, np.log(bumped))
            after = predict_lda(model_c, grid)
            assert np.all(after[before == c] == c)

    def test_duplicating_a_class_grows_its_predictions(self, rng):
        # well-separated blobs: reweighting by duplication raises the prior
        Z, y = random_instance(rng, n=60, d=2, k=2, spread=8.0)
        grid = rng.normal(scale=6.0, size=(400, 2))
        before = predict_lda(fit_lda(Z, y), grid)
        dup = np.flatnonzero(y == 2)
        Z2 = np.vstack([Z, Z[dup]])
        y2 = np.concatenate([y, y[dup]])
        after = predict_lda(fit_lda(Z2, y2), grid)
        assert np.all(after[before == 2] == 2)


class TestScoresEqualTheRowMajorRule:
    """`discriminant_scores` and `predict_lda` give, bit for bit, the scores
    `(Z S+ M' - quad) + log pi` and their `np.argmax` (first maximum, first NaN)
    at every batch size, whatever order they are computed in."""

    @staticmethod
    def check(model, Z):
        expected = reference_scores(model, Z)
        assert same_bits(discriminant_scores(model, Z), expected)
        labels = predict_lda(model, Z)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, np.argmax(expected, axis=1) + 1)
        return expected

    @staticmethod
    def random_model(rng, k, d):
        A = rng.normal(size=(d, d))
        return LdaModel(means=rng.normal(scale=2.0, size=(k, d)), cov_pinv=A @ A.T,
                        log_priors=np.log(rng.dirichlet(np.ones(k))))

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    @pytest.mark.parametrize("q", [0, 1, 30, 5000])
    def test_random_models(self, rng, k, q):
        model = self.random_model(rng, k, 10)
        self.check(model, rng.normal(scale=3.0, size=(q, 10)))

    def test_repeated_batches_of_one_model(self, rng):
        model = self.random_model(rng, 3, 10)
        for q in (5000, 30, 5000, 1, 30):
            self.check(model, rng.normal(scale=3.0, size=(q, 10)))

    def test_predicting_leaves_the_model_unchanged(self, rng):
        # the rule's terms are built with the model, so a frozen model stays as built
        model = self.random_model(rng, 3, 10)
        before = {name: id(value) for name, value in vars(model).items()}
        for q in (5000, 30):
            predict_lda(model, rng.normal(size=(q, 10)))
            discriminant_scores(model, rng.normal(size=(q, 10)))
        assert {name: id(value) for name, value in vars(model).items()} == before
        assert not any(a.flags.writeable for a in vars(model).values())

    def test_model_arrays_are_read_only(self, rng):
        # the rule's terms, computed with the model, would not see an edit in place
        means = rng.normal(size=(3, 4))
        model = LdaModel(means, np.eye(4), np.log(np.full(3, 1 / 3)))
        predict_lda(model, rng.normal(size=(5, 4)))
        for name in ("means", "cov_pinv", "log_priors"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(model, name)[0] = 1.0
        means[0, 0] = 1.0   # the caller's own array stays writable, and apart
        assert model.means[0, 0] != 1.0

    @pytest.mark.parametrize("q", [30, 5000])
    def test_exact_ties_go_to_the_first_class(self, rng, q):
        # integer rows and means with S+ = I make every score exact; classes 2 and 4
        # share a mean, so ties also fall between classes after the first
        means = rng.integers(-1, 2, size=(5, 3)).astype(float)
        means[3] = means[1]
        model = LdaModel(means, np.eye(3), np.log(np.full(5, 0.2)))
        Z = rng.integers(-2, 3, size=(q, 3)).astype(float)
        scores = self.check(model, Z)
        top = scores == scores.max(axis=1, keepdims=True)
        tied = top.sum(axis=1) > 1
        assert tied.any() and (tied & ~top[:, 0]).any()

    @pytest.mark.parametrize("q", [30, 5000])
    def test_signed_zero_ties(self, rng, q):
        # products near 1e-200 * 1e-200 underflow to a zero of their sign, the squared
        # means underflow to +0.0 and log pi = -0.0 keeps that sign in the scores
        signs = rng.choice([-1.0, 1.0], size=(4, 2))
        model = LdaModel(signs * 1e-200, np.eye(2), np.full(4, -0.0))
        Z = rng.choice([-1.0, 1.0], size=(q, 2)) * 1e-200
        scores = self.check(model, Z)
        assert np.all(scores == 0.0)
        if not (np.signbit(scores).any() and not np.signbit(scores).all()):
            pytest.skip("this BLAS kernel rounds each underflowing product before summing, "
                        "so no score is -0.0")

    @pytest.mark.parametrize("q", [30, 5000])
    def test_overflowing_scores(self, rng, q):
        # finite rows near 1e308. Class 2's quadratic term overflows to +inf, so it
        # scores NaN where its product is +inf too and -inf elsewhere; classes 3 and 4
        # score +-inf on the large rows. The first NaN is the maximum, as in np.argmax
        means = np.array([[0.0, 0.0], [1e200, 1e200], [1e10, 1e10], [-1e10, -1e10],
                          [1.0, 0.5]])
        model = LdaModel(means, np.eye(2), np.log(np.full(5, 0.2)))
        Z = rng.normal(size=(q, 2))
        big = rng.random(q) < 0.5
        Z[big] = rng.choice([-1.0, 1.0], size=(big.sum(), 2)) * rng.uniform(
            1e307, 1.7e308, size=(big.sum(), 2))
        with np.errstate(over="ignore", invalid="ignore"):
            scores = self.check(model, Z)
        nan = np.isnan(scores)
        assert nan[:, 1].any() and not nan[:, 0].any()
        assert (~nan.any(axis=1) & np.isposinf(scores).any(axis=1)).any()
        assert np.isneginf(scores).any()
