"""Sample statistics and the whitened generalized eigensolver.

Everything downstream of the compressor rests on three operations defined
here: shrinkage-regularized sample covariance, the Schur-complement
conditional covariance, and the generalized symmetric eigenproblem

    sigma_x_given_y @ v = lam * sigma_x @ v

solved through Cholesky whitening.  The eigenvalues lie in [0, 1] whenever
sigma_x_given_y <= sigma_x in the PSD order; they are clamped away from the
boundary so that downstream loading formulas stay finite.
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
    """Covariance of x together with its conditional covariance given y."""

    sigma_x: np.ndarray
    sigma_x_given_y: np.ndarray

    def __post_init__(self):
        self.sigma_x = np.asarray(self.sigma_x, dtype=np.float64)
        self.sigma_x_given_y = np.asarray(self.sigma_x_given_y,
                                          dtype=np.float64)
        if self.sigma_x.shape != self.sigma_x_given_y.shape or \
                self.sigma_x.ndim != 2 or \
                self.sigma_x.shape[0] != self.sigma_x.shape[1]:
            raise DimensionError("covariances must be square matrices of "
                                 "equal size")
        for name, m in (("sigma_x", self.sigma_x),
                        ("sigma_x_given_y", self.sigma_x_given_y)):
            scale = max(float(np.max(np.abs(m))), 1e-300)
            if float(np.max(np.abs(m - m.T))) > 1e-10 * scale:
                raise ValueError("%s is not symmetric within tolerance" % name)

    @property
    def dim(self):
        return self.sigma_x.shape[0]


@dataclass
class GeneralizedEigenResult:
    """Ascending eigenvalues and Sigma_x-orthonormal left eigenvectors.

    Row i of ``left_eigenvectors`` is v_i^T, with V sigma_x V^T = I.
    ``clamped`` records whether any raw eigenvalue had to be clipped into
    [CLAMP_EPS, 1 - CLAMP_EPS].
    """

    eigenvalues: np.ndarray
    left_eigenvectors: np.ndarray
    clamped: bool = False
    raw_eigenvalues: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self):
        return self.eigenvalues.shape[0]


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


def conditional_covariance(sigma_x, sigma_xy, sigma_y):
    """Schur complement sigma_x - sigma_xy sigma_y^-1 sigma_yx."""
    sigma_x = np.asarray(sigma_x, dtype=np.float64)
    sigma_xy = np.asarray(sigma_xy, dtype=np.float64)
    sigma_y = np.asarray(sigma_y, dtype=np.float64)
    try:
        cho = linalg.cho_factor(sigma_y, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("sigma_y is not positive definite; raise "
                             "noise_lambda") from exc
    m = sigma_x - sigma_xy @ linalg.cho_solve(cho, sigma_xy.T)
    return 0.5 * (m + m.T)


def gib_eigensystem(cov):
    """Solve sigma_x_given_y v = lam sigma_x v by Cholesky whitening.

    sigma_x = L L^T, the symmetric eigenproblem of L^-1 sigma_x_given_y L^-T
    is solved, and v = L^-T u.  Because both matrices are symmetric, the v_i
    are simultaneously left eigenvectors of sigma_x_given_y sigma_x^-1, and
    since the u_i are orthonormal, v_i^T sigma_x v_i = u_i^T u_i = 1.
    Eigenvalues come back ascending and clipped into
    [CLAMP_EPS, 1 - CLAMP_EPS].
    """
    try:
        chol = np.linalg.cholesky(cov.sigma_x)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("sigma_x is not positive definite; raise the "
                             "shrinkage coefficient") from exc
    li = linalg.solve_triangular(chol, np.eye(cov.dim), lower=True)
    m = li @ cov.sigma_x_given_y @ li.T
    lam_raw, u = np.linalg.eigh(0.5 * (m + m.T))
    v = li.T @ u
    lam = np.clip(lam_raw, CLAMP_EPS, 1.0 - CLAMP_EPS)
    clamped = bool(np.any(lam != lam_raw))
    return GeneralizedEigenResult(eigenvalues=lam,
                                  left_eigenvectors=v.T.copy(),
                                  clamped=clamped,
                                  raw_eigenvalues=lam_raw)


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
