"""Linear discriminant analysis with a pseudoinverse pooled covariance.

Valid under rank deficiency: the pinv of the pooled within-class covariance is the
Gram product of its eigenvectors scaled by 1/sqrt(lambda), kept where lambda exceeds
d * eps * lambda_max. It is zero, and prediction falls back to priors, only when each
class's rows equal its computed mean; rounding noise is kept as within-class scatter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import class_sizes, feature_rows, json_numbers, json_object
from .embed import _leaf_means

# predict_lda scores a batch class-major when it has at least _CLASS_MAJOR_ROWS rows;
# below that numpy's per-row loops over the K classes cost less (on a 2-vCPU x86-64
# host the two paths crossed between 200 and 500 rows at K = 2 and 3).
_CLASS_MAJOR_ROWS = 256


@dataclass(frozen=True, eq=False)
class LdaModel:
    means: np.ndarray       # (K, d) per-class means
    cov_pinv: np.ndarray    # (d, d) pseudoinverse of the pooled covariance
    log_priors: np.ndarray  # (K,)
    # the rule's per-model terms S+ M' (d, K) and M_c' S+ M_c / 2 (K,), set once by
    # __post_init__, so the batches of one model share them
    _proj: np.ndarray = field(init=False, repr=False)
    _quad: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        names = ("means", "cov_pinv", "log_priors")
        for name in names:
            # read-only private copies: the rule's terms come from them
            a = np.array(getattr(self, name), dtype=np.float64)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        shapes = tuple(getattr(self, name).shape for name in names)
        k, d = shapes[0] if len(shapes[0]) == 2 else (0, 0)
        if k < 1 or d < 1 or shapes[1:] != ((d, d), (k,)):
            raise ValueError(f"lda means, cov_pinv and log_priors have shapes {shapes}, "
                             f"not (K, d), (d, d) and (K,) with K, d >= 1")
        bad = [name for name in names if not np.all(np.isfinite(getattr(self, name)))]
        if bad:
            raise ValueError(f"non-finite values in lda {', '.join(bad)}")
        proj = self.cov_pinv @ self.means.T
        quad = 0.5 * np.einsum("cd,dc->c", self.means, proj)
        for name, a in (("_proj", proj), ("_quad", quad)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def to_dict(self) -> dict:
        return {"means": self.means.tolist(), "cov_pinv": self.cov_pinv.tolist(),
                "log_priors": self.log_priors.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "LdaModel":
        d = json_object(d, "lda")
        arrays = {name: json_numbers(d[name]) for name in ("means", "cov_pinv", "log_priors")}
        bad = [name for name, a in arrays.items() if a is None]
        if bad:
            raise ValueError(f"lda {', '.join(bad)} must hold numbers")
        return LdaModel(**arrays)


def fit_lda(Z, labels) -> LdaModel:
    """Fit on embedded rows with class ids 1..K (every class present, n > K)."""
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if Z.ndim != 2 or Z.shape[1] < 1:
        raise ValueError("Z must be (n, d) with d >= 1")
    n = len(Z)
    if y.shape != (n,):
        raise ValueError("labels must be one value per row")
    counts = class_sizes(y)
    k = len(counts)
    if n <= k:
        raise ValueError(f"need more rows ({n}) than classes ({k})")

    means = _leaf_means(Z, y - 1, k)   # class c's rows as leaf c - 1's
    centered = Z - means[y - 1]
    cov = centered.T @ centered / (n - k)   # numpy's syrk: symmetric bit for bit

    cov_pinv = _spectral_pinv(cov)
    log_priors = np.log(counts / n)
    return LdaModel(means, cov_pinv, log_priors)


def _spectral_pinv(cov: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix, with eigenvalues
    <= d * eps * lambda_max treated as numerically zero."""
    w, v = np.linalg.eigh(cov)
    keep = w > cov.shape[0] * np.finfo(np.float64).eps * max(float(w[-1]), 0.0)
    vk = v[:, keep] / np.sqrt(w[keep])   # no column when nothing is kept: the product is zero
    return vk @ vk.T   # numpy's syrk: symmetric bit for bit


def _class_scores(model: LdaModel, Z: np.ndarray) -> np.ndarray:
    """(K, q) scores, one contiguous row per class: (z' S+ M_c - quad_c) + log pi_c.

    The product is taken (q, K), as on predict_lda's row-major path, and each term
    is applied on its own, so every score has that path's bits.
    """
    scores = (Z @ model._proj).T.copy()
    scores -= model._quad[:, None]
    scores += model.log_priors[:, None]
    return scores


def predict_lda(model: LdaModel, Z) -> np.ndarray:
    """Class ids maximizing the discriminant; ties go to the smallest id.

    The rule's per-model terms come with the model. A large batch is
    scored class-major: one row of scores per class, then K - 1 whole-row
    comparisons keep the first maximum. A row holding a NaN
    score takes ``np.argmax``'s first NaN, so the labels equal ``np.argmax`` of
    the scores on either path.
    """
    Z = feature_rows(Z, model.dim)
    if len(Z) < _CLASS_MAJOR_ROWS:
        scores = Z @ model._proj   # (q, K), each term applied in place on the product
        scores -= model._quad
        scores += model.log_priors
        return np.argmax(scores, axis=1).astype(np.int64, copy=False) + 1
    scores = _class_scores(model, Z)
    small = np.min_scalar_type(model.n_classes).type   # labels and each class's term
    best, labels = scores[0].copy(), np.ones(len(Z), dtype=small)
    for c in range(1, model.n_classes):
        # labels only rise, so the class that beats the best so far is the maximum
        np.maximum(labels, (scores[c] > best) * small(c + 1), out=labels)
        np.maximum(best, scores[c], out=best)   # a NaN stays, marking its row
    nan = np.isnan(best)
    if nan.any():
        labels[nan] = np.argmax(scores[:, nan], axis=0) + 1
    return labels.astype(np.int64)
