"""Gaussian entropy, mutual information, and the optimality check suites."""

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import digamma, gamma as gamma_fn

from gib_pairs import conditional, exact_pair
from oib.errors import DimensionError, NumericalError
from oib.gib_compressor import solve_gib
from oib.info_metrics import (LOG_2PIE, encoding_mi, gaussian_entropy,
                              gaussian_mi, mi_loading_invariance_check,
                              random_projection_optimality_check)


def knn_entropy(x, k=3):
    """Kozachenko-Leonenko nearest-neighbor entropy estimator."""
    n, d = x.shape
    dist, _ = cKDTree(x).query(x, k=k + 1)
    log_vd = (d / 2.0) * np.log(np.pi) - np.log(gamma_fn(d / 2.0 + 1.0))
    return digamma(n) - digamma(k) + log_vd + d * np.mean(np.log(dist[:, k]))


def test_gaussian_entropy_closed_forms():
    # logdet_psd adds a relative jitter of 1e-10 for robustness, so the
    # closed forms hold to that absolute level rather than machine epsilon
    assert gaussian_entropy(np.eye(2)) == pytest.approx(LOG_2PIE, abs=1e-9)
    sig2 = 0.3
    assert gaussian_entropy(np.array([[sig2]])) == pytest.approx(
        0.5 * np.log(2.0 * np.pi * np.e * sig2), abs=1e-9)
    with pytest.raises(DimensionError):
        gaussian_entropy(np.zeros(3))


def test_gaussian_entropy_agrees_with_knn_estimator():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3))
    cov = a @ a.T + 0.5 * np.eye(3)
    samples = rng.standard_normal((100_000, 3)) @ np.linalg.cholesky(cov).T
    h_analytic = gaussian_entropy(cov)
    h_sampled = knn_entropy(samples)
    assert abs(h_sampled - h_analytic) / abs(h_analytic) < 0.02


def test_gaussian_mi_matches_joint_covariance_oracle():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((7, 7))
    joint = a @ a.T + 0.5 * np.eye(7)
    sz, c, sy = joint[:4, :4], joint[:4, 4:], joint[4:, 4:]
    sz_given_y = sz - c @ np.linalg.inv(sy) @ c.T
    mi = gaussian_mi(sz, 0.5 * (sz_given_y + sz_given_y.T))
    _, ld_z = np.linalg.slogdet(sz)
    _, ld_y = np.linalg.slogdet(sy)
    _, ld_j = np.linalg.slogdet(joint)
    mi_joint = 0.5 * (ld_z + ld_y - ld_j)
    assert mi == pytest.approx(mi_joint, abs=1e-9)


def test_gaussian_mi_scalar_channel():
    snr = 3.7
    mi = gaussian_mi(np.array([[1.0 + snr]]), np.array([[1.0]]))
    assert mi == pytest.approx(0.5 * np.log1p(snr), rel=1e-12)


def test_gaussian_mi_invariant_under_invertible_maps():
    cov = exact_pair(3)[0]
    base = gaussian_mi(cov.sigma_x, conditional(cov))
    rng = np.random.default_rng(4)
    for _ in range(10):
        t = rng.standard_normal((6, 6)) + 2.0 * np.eye(6)
        mi = gaussian_mi(t @ cov.sigma_x @ t.T,
                         t @ conditional(cov) @ t.T)
        assert mi == pytest.approx(base, rel=1e-8)


def test_gaussian_mi_needs_positive_definite_inputs():
    with pytest.raises(NumericalError):
        gaussian_mi(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(DimensionError):
        gaussian_mi(np.eye(2), np.eye(3))


def test_encoding_mi_data_processing_inequality():
    cov = exact_pair(5)[0]
    full = gaussian_mi(cov.sigma_x, conditional(cov))
    rng = np.random.default_rng(6)
    for n_z in (1, 3, 5):
        for _ in range(20):
            a = rng.standard_normal((n_z, 6))
            assert encoding_mi(a, cov) <= full + 1e-9
    # an invertible encoder preserves the full MI
    t = rng.standard_normal((6, 6)) + 2.0 * np.eye(6)
    assert encoding_mi(t, cov) == pytest.approx(full, rel=1e-8)


def test_encoder_noise_strictly_reduces_mi():
    cov = exact_pair(8)[0]
    a = np.random.default_rng(9).standard_normal((3, 6))
    clean = encoding_mi(a, cov)
    for noise in (0.5, 1.0, 2.0):
        assert encoding_mi(a, cov, noise_std=noise) < clean
    assert encoding_mi(a, cov, noise_std=2.0) < \
        encoding_mi(a, cov, noise_std=0.5)


def test_loading_invariance_check_reports_tiny_spread():
    cov = exact_pair(10)[0]
    sol = solve_gib(cov)
    rep = mi_loading_invariance_check(sol, cov, n_z=3, trials=20, seed=0)
    assert rep.max_relative_spread < 1e-8
    assert rep.noisy_mi < rep.noiseless_mi
    assert rep.trials == 20 and rep.n_z == 3


def test_projection_optimality_check_margin():
    cov = exact_pair(11)[0]
    rep = random_projection_optimality_check(cov, n_z=2, trials=100, seed=1)
    assert rep.min_margin >= -1e-9
    sol = solve_gib(cov)
    want = encoding_mi(sol.eigen.left_eigenvectors[:2], cov)
    assert rep.mi_optimal == pytest.approx(want, rel=1e-12)


def test_encoding_mi_of_every_row_prefix():
    cov = exact_pair(12)[0]
    rng = np.random.default_rng(3)
    b = rng.standard_normal((cov.dim, cov.dim))
    got = encoding_mi(b, cov, prefixes=True)
    assert got.shape == (cov.dim,)
    for k in range(1, cov.dim + 1):
        assert got[k - 1] == pytest.approx(encoding_mi(b[:k], cov),
                                           rel=1e-10)
    # positive row loadings leave every prefix's MI as it is
    w = 10.0 ** rng.uniform(-1.0, 1.0, size=cov.dim)
    np.testing.assert_allclose(encoding_mi(w[:, None] * b, cov,
                                           prefixes=True), got,
                               rtol=1e-10)
    noisy = encoding_mi(b, cov, noise_std=0.5, prefixes=True)
    for k in (1, cov.dim // 2, cov.dim):
        assert noisy[k - 1] == pytest.approx(
            encoding_mi(b[:k], cov, noise_std=0.5), rel=1e-10)
    with pytest.raises(NumericalError):
        encoding_mi(np.vstack([np.zeros(cov.dim), b]), cov, prefixes=True)
