"""Sample statistics and the generalized eigensolver of the Gaussian IB.

Everything downstream of the compressor rests on three operations defined
here: shrinkage-regularized sample covariance, the covariance pair
(sigma_x and the whitened cross-covariance K = L_y^-1 sigma_yx, with
sigma_y = L_y L_y^T), and the generalized eigenproblem
sigma_x|y v = lam sigma_x v with sigma_x|y = sigma_x - K^T K, solved in
the target's min(n_x, n_y) dimensions without forming sigma_x|y.  The
eigenvalues are clamped away from the boundary of [0, 1] so that
downstream loading formulas stay finite.  ``as_rows`` is the one input
check of the four inference stages: DFT, encoder, re-expander and head.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .errors import DimensionError, NumericalError

CLAMP_EPS = 1e-9


@dataclass
class DataMatrix:
    """N x d matrix of samples (rows) by features (columns)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionError("DataMatrix expects a 2-d array, got ndim=%d"
                                 % self.values.ndim)
        n, d = self.values.shape
        if n < 1 or d < 1:
            raise DimensionError("DataMatrix needs at least one row and one "
                                 "column, got shape %s" % (self.values.shape,))

    @property
    def n_samples(self):
        return self.values.shape[0]

    @property
    def n_features(self):
        return self.values.shape[1]


@dataclass
class CovariancePair:
    """Covariance of x together with the whitened cross-covariance
    ``cross`` = K = L_y^-1 sigma_yx, so that sigma_x|y = sigma_x - K^T K."""

    sigma_x: np.ndarray
    cross: np.ndarray

    def __post_init__(self):
        self.sigma_x = np.asarray(self.sigma_x, dtype=np.float64)
        self.cross = np.asarray(self.cross, dtype=np.float64)
        if self.cross.ndim != 2 or \
                self.sigma_x.shape != (self.cross.shape[1],) * 2:
            raise DimensionError("sigma_x must be square with one row per "
                                 "column of cross")
        m = self.sigma_x
        if np.max(np.abs(m - m.T)) > 1e-10 * max(np.max(np.abs(m)), 1e-300):
            raise ValueError("sigma_x is not symmetric within tolerance")

    @property
    def dim(self):
        return self.sigma_x.shape[0]


@dataclass
class GeneralizedEigenResult:
    """Ascending eigenvalues and Sigma_x-orthonormal left eigenvectors.

    Row i of ``left_eigenvectors`` is v_i^T, with V sigma_x V^T = I and its
    largest-magnitude entry positive.  ``raw_eigenvalues`` are the values
    before clipping into [CLAMP_EPS, 1 - CLAMP_EPS]; ``clamped`` tells
    whether any of them was clipped.
    """

    eigenvalues: np.ndarray
    left_eigenvectors: np.ndarray
    raw_eigenvalues: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return self.eigenvalues.shape[0]

    @property
    def clamped(self):
        return bool(np.any(self.eigenvalues != self.raw_eigenvalues))


def as_rows(x, width, dtype=np.float64):
    """``x``, one vector or a batch, as 2-d rows of ``width`` values each,
    and whether it was one vector.  ``dtype=None`` keeps the input's."""
    x = np.asarray(x, dtype=dtype)
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.ndim != 2 or batch.shape[1] != width:
        raise DimensionError("expected rows of length %d, got shape %s"
                             % (width, x.shape))
    return batch, single


def sample_covariance(x, shrinkage=0.0):
    """Shrinkage covariance (1-g)*Xc'Xc/N + g*(tr/d)*I of the samples (rows)
    of x, where Xc is x with its column means removed."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise DimensionError("cannot estimate covariance from zero samples")
    if not 0.0 <= shrinkage < 1.0:
        raise ValueError("shrinkage must lie in [0, 1)")
    x = x - x.mean(axis=0)
    s = x.T @ x / x.shape[0]
    s = 0.5 * (s + s.T)
    if shrinkage > 0.0:
        mu = np.trace(s) / s.shape[0]
        s *= (1.0 - shrinkage)
        s[np.diag_indices_from(s)] += shrinkage * mu
    return s


def covariance_pair(sigma_x, sigma_xy, sigma_y):
    """The pair of sigma_x and a target y, with K = L_y^-1 sigma_yx."""
    try:
        chol_y = np.linalg.cholesky(np.asarray(sigma_y, dtype=np.float64))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("sigma_y is not positive definite: the "
                             "targets need a noise floor") from exc
    return CovariancePair(sigma_x, linalg.solve_triangular(
        chol_y, np.asarray(sigma_xy).T, lower=True))


def gib_eigensystem(cov):
    """Solve sigma_x|y v = lam sigma_x v from the thin SVD of L^-1 K^T.

    With sigma_x = L L^T and L^-1 K^T = P S Q^T, the whitened conditional
    covariance is I - P S^2 P^T, so lam = 1 - s^2 ascends as the canonical
    correlations s descend, and v = L^-T p is Sigma_x-orthonormal.  Only
    these min(n_x, n_y) directions come back; every other one has lam = 1.
    Each v_i has its largest-magnitude entry positive, and eigenvalues are
    clipped into [CLAMP_EPS, 1 - CLAMP_EPS].
    """
    try:
        chol = np.linalg.cholesky(cov.sigma_x)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("sigma_x is not positive definite; raise the "
                             "shrinkage coefficient") from exc
    g = linalg.solve_triangular(chol, cov.cross.T, lower=True)
    try:
        p, s, _ = np.linalg.svd(g, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD of the whitened cross-covariance did not "
                             "converge") from exc
    v = linalg.solve_triangular(chol, p, lower=True, trans="T")
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v *= np.sign(pivots)
    lam_raw = 1.0 - s ** 2
    return GeneralizedEigenResult(
        eigenvalues=np.clip(lam_raw, CLAMP_EPS, 1.0 - CLAMP_EPS),
        left_eigenvectors=v.T.copy(), raw_eigenvalues=lam_raw)


def logdet_psd(matrix, jitter=None):
    """log det of a symmetric PSD matrix via Cholesky, with a small jitter."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape[0] == 0:
        return 0.0
    if jitter is None:
        jitter = 1e-10 * max(np.trace(m) / m.shape[0], 0.0)
    try:
        chol = np.linalg.cholesky(m + jitter * np.eye(m.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("matrix is not positive definite even after "
                             "jitter %g" % jitter) from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol))))
