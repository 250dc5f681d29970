"""Gaussian entropy and mutual-information measurements.

Everything here evaluates closed-form Gaussian quantities from covariance
matrices: differential entropy ½ log((2πe)^n |Σ|) and mutual information
as a half log-determinant ratio.  Nothing is estimated from samples drawn
here: the pipeline's entropy column is ``gaussian_entropy`` of an exact
covariance (that of the power-normalized noisy encodings), and its MI
column is ``encoding_mi`` with ``prefixes``, the MI of every row prefix
of one basis from one pair of Cholesky factors.  ``encoding_mi`` also
measures one encoder, noisy or not, and backs the checks below.  All
values are in nats; convert to bits only for display.

Two verification helpers back the theory the compressor relies on:
loading invariance (deterministic mutual information ignores row scaling,
and only noiseless encodings have that property) and projection optimality
(the generalized eigenvector subspace beats random projections of equal
rank).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError
from .tensor_stats import gib_eigensystem, logdet_psd

LOG_2PIE = float(np.log(2.0 * np.pi * np.e))


@dataclass
class LoadingInvarianceReport:
    """Spread of MI across random loadings, and the noisy-case comparison."""

    n_z: int
    trials: int
    max_relative_spread: float
    noiseless_mi: float
    noisy_mi: float


@dataclass
class ProjectionOptimalityReport:
    """Worst-case MI margin of the eigenvector subspace over random maps."""

    n_z: int
    trials: int
    mi_optimal: float
    min_margin: float


def gaussian_entropy(sigma):
    """Differential entropy ½ log((2πe)^n |Σ|) in nats."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionError("covariance must be square, got shape %s"
                             % (sigma.shape,))
    n = sigma.shape[0]
    return 0.5 * (n * LOG_2PIE + logdet_psd(sigma))


def gaussian_mi(sigma_z, sigma_z_given_y):
    """Mutual information ½(log|Σ_z| − log|Σ_{z|y}|) in nats.

    Both determinants are evaluated without jitter: the inputs must be
    strictly positive definite, and keeping them exact preserves the
    invariance of MI under loadings to machine precision.
    """
    sigma_z = np.asarray(sigma_z, dtype=np.float64)
    sigma_c = np.asarray(sigma_z_given_y, dtype=np.float64)
    if sigma_z.shape != sigma_c.shape:
        raise DimensionError("covariances must have equal shapes, got %s "
                             "and %s" % (sigma_z.shape, sigma_c.shape))
    return 0.5 * (logdet_psd(sigma_z, jitter=0.0)
                  - logdet_psd(sigma_c, jitter=0.0))


def encoding_mi(matrix_a, cov, noise_std=0.0, prefixes=False):
    """MI between z = A x̃ + ξ and the regression target y.

    Propagates the input covariances through the encoder, with
    AΣ_{x|y}Aᵀ = AΣ_xAᵀ − (AKᵀ)(AKᵀ)ᵀ from the pair's K, and applies the
    Gaussian formula; ``noise_std`` is the standard deviation of ξ.

    With ``prefixes``, returns instead the MI of every row prefix
    z_k = A[:k] x̃ + ξ_k, k = 1..n_rows.  The leading k×k block of a
    Cholesky factor is the factor of the leading block, so the cumulative
    sums of the log-diagonal differences of the factors of Σ_z and
    Σ_{z|y} are all of them: one pair of factorizations, without jitter
    as in ``gaussian_mi``.  Noiseless MI ignores positive row loadings, so
    these are also the MI of every encoder whose rows are scaled prefixes
    of A's.
    """
    a = np.asarray(matrix_a, dtype=np.float64)
    noise = float(noise_std) ** 2 * np.eye(a.shape[0])
    sigma_z = a @ cov.sigma_x @ a.T + noise
    ak = a @ cov.cross.T
    sigma_c = sigma_z - ak @ ak.T
    if not prefixes:
        return gaussian_mi(sigma_z, sigma_c)
    log_diags = []
    for sigma in (sigma_z, sigma_c):
        try:
            log_diags.append(np.log(np.diag(np.linalg.cholesky(sigma))))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("encoding covariance is not positive "
                                 "definite") from exc
    return np.cumsum(log_diags[0] - log_diags[1])


def mi_loading_invariance_check(sol, cov, n_z, trials=20, seed=0):
    """Verify MI ignores positive diagonal loadings when ξ = 0.

    Evaluates I(z;y) for ``trials`` random positive row scalings of the
    first ``n_z`` eigenvector rows with noiseless encodings and reports the
    maximum relative spread.  One unit-noise case is also evaluated and
    must come out strictly smaller, confirming that the invariance is a
    property of the noiseless map alone.
    """
    v = sol.eigen.left_eigenvectors[:n_z]
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(trials):
        w = 10.0 ** rng.uniform(-1.0, 1.0, size=n_z)
        values.append(encoding_mi(w[:, None] * v, cov))
    values = np.asarray(values)
    mean = float(values.mean())
    spread = float((values.max() - values.min()) / max(abs(mean), 1e-300))
    noisy = encoding_mi(v, cov, noise_std=1.0)
    if not noisy < mean:
        raise NumericalError("unit encoder noise failed to reduce MI "
                             "(%.6f >= %.6f)" % (noisy, mean))
    return LoadingInvarianceReport(n_z=n_z, trials=trials,
                                   max_relative_spread=spread,
                                   noiseless_mi=mean, noisy_mi=noisy)


def random_projection_optimality_check(cov, n_z, trials=100, seed=0):
    """Compare the eigenvector subspace against random rank-n_z maps.

    Returns the minimum over trials of MI(eigenvector rows) minus
    MI(random projection); a non-negative margin confirms the subspace is
    MI-optimal at that rank.
    """
    eigen = gib_eigensystem(cov)
    mi_opt = encoding_mi(eigen.left_eigenvectors[:n_z], cov)
    rng = np.random.default_rng(seed)
    margin = np.inf
    for _ in range(trials):
        m = rng.standard_normal((n_z, cov.dim))
        margin = min(margin, mi_opt - encoding_mi(m, cov))
    return ProjectionOptimalityReport(n_z=n_z, trials=trials,
                                      mi_optimal=mi_opt,
                                      min_margin=float(margin))
