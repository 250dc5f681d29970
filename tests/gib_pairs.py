"""Covariance pairs with known structure, shared by the eigen-layer tests."""

import numpy as np

from oib.tensor_stats import covariance_pair, sample_covariance


def exact_pair(seed, dim=6):
    """Exact pair with canonical correlations ``corr`` in (0.2, 0.95).

    sigma_x = M M^T and sigma_xy = M diag(corr) with sigma_y = I, so
    sigma_x|y = M diag(1 - corr^2) M^T and the generalized eigenvalues are
    1 - corr^2.
    """
    rng = np.random.default_rng(seed)
    corr = rng.uniform(0.2, 0.95, size=dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    mix = q * np.exp(rng.uniform(-0.5, 0.5, size=dim))
    sigma_x = mix @ mix.T
    return covariance_pair(0.5 * (sigma_x + sigma_x.T), mix * corr,
                           np.eye(dim)), corr


def pipeline_pair(seed, d, n_y, n=None, lam=0.3):
    """The pipeline's pair for the target y = W0 x + lam xi.

    sigma_x is a random full-rank covariance, or, when ``n`` is given, the
    shrinkage-1e-4 sample covariance of n samples with spread-out scales.
    Returns the pair and W0.
    """
    rng = np.random.default_rng(seed)
    if n is None:
        a = rng.standard_normal((d, d))
        sigma_x = a @ a.T / d + 0.1 * np.eye(d)
    else:
        x = rng.standard_normal((n, d)) * np.exp(rng.uniform(-2, 2, size=d))
        sigma_x = sample_covariance(x, shrinkage=1e-4)
    w0 = rng.standard_normal((n_y, d))
    sigma_xy = sigma_x @ w0.T
    sigma_y = w0 @ sigma_xy + lam ** 2 * np.eye(n_y)
    return covariance_pair(sigma_x, sigma_xy, sigma_y), w0


def conditional(cov):
    """sigma_x|y = sigma_x - K^T K, formed only as a test reference."""
    return cov.sigma_x - cov.cross.T @ cov.cross
