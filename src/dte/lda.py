"""Linear discriminant analysis with a pseudoinverse pooled covariance.

Valid under rank deficiency: the pooled within-class covariance is
eigendecomposed and eigenvalues at or below d * eps * lambda_max are
truncated. If every class is constant the covariance is zero and
prediction falls back to priors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LdaModel:
    means: np.ndarray       # (K, d) per-class means
    cov_pinv: np.ndarray    # (d, d) pseudoinverse of the pooled covariance
    log_priors: np.ndarray  # (K,)

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=np.float64))
        object.__setattr__(self, "cov_pinv", np.asarray(self.cov_pinv, dtype=np.float64))
        object.__setattr__(self, "log_priors", np.asarray(self.log_priors, dtype=np.float64))

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
        return LdaModel(np.asarray(d["means"]), np.asarray(d["cov_pinv"]),
                        np.asarray(d["log_priors"]))


def fit_lda(Z, labels) -> LdaModel:
    """Fit on embedded rows with class ids 1..K (every class present, n > K)."""
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if Z.ndim != 2 or Z.shape[1] < 1:
        raise ValueError("Z must be (n, d) with d >= 1")
    n, d = Z.shape
    if y.shape != (n,):
        raise ValueError("labels must be one value per row")
    k = int(y.max(initial=0))
    if k < 1 or y.min(initial=1) < 1:
        raise ValueError("class ids must be >= 1")
    counts = np.bincount(y, minlength=k + 1)[1:]
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0]) + 1
        raise ValueError(f"class {missing} has no samples")
    if n <= k:
        raise ValueError(f"need more rows ({n}) than classes ({k})")

    means = np.empty((k, d))
    for c in range(k):
        means[c] = Z[y == c + 1].mean(axis=0)
    centered = Z - means[y - 1]
    cov = centered.T @ centered / (n - k)
    cov = (cov + cov.T) / 2.0

    cov_pinv = _spectral_pinv(cov)
    log_priors = np.log(counts / n)
    return LdaModel(means, cov_pinv, log_priors)


def _spectral_pinv(cov: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix.

    Eigenvalues <= d * eps * lambda_max are treated as numerically zero.
    """
    d = cov.shape[0]
    w, v = np.linalg.eigh(cov)
    lam_max = max(float(w[-1]), 0.0)
    tau = d * np.finfo(np.float64).eps * lam_max
    keep = w > tau
    if not keep.any():
        return np.zeros_like(cov)
    vk = v[:, keep]
    pinv = (vk / w[keep]) @ vk.T
    return (pinv + pinv.T) / 2.0


def discriminant_scores(model: LdaModel, Z) -> np.ndarray:
    """Per-class discriminant z' S+ M_c - M_c' S+ M_c / 2 + log pi_c."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != model.dim:
        raise ValueError(f"expected (q, {model.dim}) inputs, got shape {Z.shape}")
    if Z.size and not np.all(np.isfinite(Z)):
        raise ValueError("inputs must be finite")
    proj = model.cov_pinv @ model.means.T          # (d, K)
    quad = 0.5 * np.einsum("cd,dc->c", model.means, proj)
    return Z @ proj - quad + model.log_priors


def predict_lda(model: LdaModel, Z) -> np.ndarray:
    """Class ids maximizing the discriminant; ties go to the smallest id."""
    return np.argmax(discriminant_scores(model, Z), axis=1).astype(np.int64) + 1
