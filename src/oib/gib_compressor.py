"""Closed-form Gaussian information-bottleneck compressor and baselines.

Given the generalized eigensystem of (sigma_x|y, sigma_x) with
ascending eigenvalues lam_i and Sigma_x-orthonormal directions v_i, the
optimal linear-Gaussian encoder at trade-off beta keeps every direction
whose critical value beta_i^c = 1 / (1 - lam_i) is exceeded and loads it
with

    alpha_i = sqrt((beta (1 - lam_i) - 1) / lam_i);

the general form also divides by v_i^T sigma_x v_i, which is 1 here.
There are min(n_x, n_y) directions, so an OIB or CCA compressor has at
most n_y rows.

The CCA baseline keeps the same directions with unit loadings; the PCA
baseline projects on the top-variance eigenvectors of sigma_x instead.
Both solutions are nested: the compressor of every size is built from a
prefix of one basis (the GIB eigenvectors, or the PCA eigenvectors as
rows), so each basis is solved once and sliced per n_z.  Encoding is the
deterministic linear map z = A x.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError
from .tensor_stats import GeneralizedEigenResult, as_rows, gib_eigensystem


@dataclass
class GibSolution:
    """Eigensystem plus the ascending critical beta values."""

    eigen: GeneralizedEigenResult
    beta_critical: np.ndarray


@dataclass
class Compressor:
    """A fitted linear feature extractor z = A x; ``mi_nats`` is I(z; y) on
    the covariance pair it was fitted to, or None if built outside a fit.
    Which basis it came from is named by its (kind, n_z) key on the grid,
    not by the compressor."""

    matrix_a: np.ndarray
    beta: float = None
    mi_nats: float = None

    def __post_init__(self):
        self.matrix_a = np.asarray(self.matrix_a, dtype=np.float64)
        if self.matrix_a.ndim != 2:
            raise DimensionError("matrix_a must be 2-d, got shape %s"
                                 % (self.matrix_a.shape,))
        if self.mi_nats is not None and not math.isfinite(self.mi_nats):
            raise ValueError("mi_nats %r is not finite" % (self.mi_nats,))

    @property
    def n_z(self):
        return self.matrix_a.shape[0]

    @property
    def n_x(self):
        return self.matrix_a.shape[1]

    @property
    def rho(self):
        """Compression ratio n_x / n_z."""
        if self.n_z == 0:
            return float("inf")
        return self.n_x / self.n_z


def solve_gib(cov):
    """Solve the eigensystem of a CovariancePair and attach critical betas."""
    eigen = gib_eigensystem(cov)
    beta_critical = 1.0 / (1.0 - eigen.eigenvalues)
    return GibSolution(eigen=eigen, beta_critical=beta_critical)


def _check_size(n_z, n_max):
    if not 1 <= n_z <= n_max:
        raise ValueError("n_z must lie in [1, %d], got %d" % (n_max, n_z))


def _oib_compressor(sol, beta, n_z):
    """Loadings alpha_i(beta) on the first n_z eigendirections."""
    lam = sol.eigen.eigenvalues[:n_z]
    alpha = np.sqrt(np.maximum(beta * (1.0 - lam) - 1.0, 0.0) / lam)
    matrix = alpha[:, None] * sol.eigen.left_eigenvectors[:n_z]
    return Compressor(matrix_a=matrix, beta=float(beta))


def compressor_at_beta(sol, beta):
    """Compressor whose row count is the number of critical betas below beta."""
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    return _oib_compressor(sol, beta, int(np.sum(beta > sol.beta_critical)))


def beta_for_size(sol, n_z):
    """Log-space midpoint of the critical interval that yields n_z rows.

    The interval above the last critical value is closed off at twice its
    lower end so every feasible n_z has a finite representative beta.
    """
    _check_size(n_z, sol.eigen.dim)
    upper = np.append(sol.beta_critical, 2.0 * sol.beta_critical[-1])
    return float(np.sqrt(sol.beta_critical[n_z - 1] * upper[n_z]))


def compressor_at_size(sol, n_z):
    """Compressor with exactly n_z rows, with beta chosen inside its interval."""
    return _oib_compressor(sol, beta_for_size(sol, n_z), n_z)


def cca_compressor(sol, n_z):
    """Unit-loading compressor on the first n_z eigendirections."""
    _check_size(n_z, sol.eigen.dim)
    return Compressor(matrix_a=sol.eigen.left_eigenvectors[:n_z].copy())


def pca_basis(sigma_x):
    """Eigenvectors of sigma_x as rows, in descending order of variance."""
    try:
        _, vecs = np.linalg.eigh(np.asarray(sigma_x, dtype=np.float64))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition of sigma_x did not "
                             "converge") from exc
    return vecs[:, ::-1].T


def pca_compressor(basis, n_z):
    """Projection on the first n_z rows of a ``pca_basis``."""
    _check_size(n_z, basis.shape[0])
    return Compressor(matrix_a=basis[:n_z].copy())


def encode(comp, x):
    """z = A x for one vector or a batch of rows."""
    batch, single = as_rows(x, comp.n_x)
    z = batch @ comp.matrix_a.T
    return z[0] if single else z
