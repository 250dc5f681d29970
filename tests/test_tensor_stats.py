"""Covariance estimation and the whitened generalized eigensolver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oib.errors import DimensionError, NumericalError
from oib.tensor_stats import (CLAMP_EPS, CovariancePair, DataMatrix,
                              conditional_covariance, gib_eigensystem,
                              logdet_psd, sample_covariance)


def random_conditional_pair(seed, dim=6):
    """Exact covariance pair built from known canonical correlations."""
    rng = np.random.default_rng(seed)
    corr = rng.uniform(0.2, 0.95, size=dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    scales = np.exp(rng.uniform(-0.5, 0.5, size=dim))
    mix = q * scales
    sigma_x = mix @ mix.T
    sigma_xgy = mix @ np.diag(1.0 - corr ** 2) @ mix.T
    return CovariancePair(sigma_x=0.5 * (sigma_x + sigma_x.T),
                          sigma_x_given_y=0.5 * (sigma_xgy + sigma_xgy.T)), corr


def test_data_matrix_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        DataMatrix(np.zeros(5))
    with pytest.raises(DimensionError):
        DataMatrix(np.zeros((0, 3)))


def test_sample_covariance_matches_biased_estimator():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((500, 4))
    s = sample_covariance(x)
    np.testing.assert_allclose(s, np.cov(x.T, bias=True), rtol=1e-12)


def test_center_removes_column_means():
    # centering happens inside sample_covariance, with the column-mean
    # subtraction the covariance is defined by
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.0, size=(200, 5))
    xc = x - x.mean(axis=0)
    s = xc.T @ xc / len(x)
    assert np.array_equal(sample_covariance(x), 0.5 * (s + s.T))
    np.testing.assert_allclose(sample_covariance(x + 100.0),
                               sample_covariance(x), rtol=1e-9)


def test_sample_covariance_shrinkage_formula():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((300, 5))
    raw = sample_covariance(x)
    gamma = 0.1
    shrunk = sample_covariance(x, shrinkage=gamma)
    mu = np.trace(raw) / raw.shape[0]
    expected = (1.0 - gamma) * raw + gamma * mu * np.eye(5)
    np.testing.assert_allclose(shrunk, expected, rtol=1e-12)
    # trace is preserved by construction
    np.testing.assert_allclose(np.trace(shrunk), np.trace(raw), rtol=1e-12)


def test_sample_covariance_validates_shrinkage_range():
    x = np.random.default_rng(3).standard_normal((20, 2))
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            sample_covariance(x, shrinkage=bad)


def test_conditional_covariance_matches_direct_inverse():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((9, 9))
    joint = a @ a.T + 0.5 * np.eye(9)
    sx, sxy, sy = joint[:5, :5], joint[:5, 5:], joint[5:, 5:]
    got = conditional_covariance(sx, sxy, sy)
    want = sx - sxy @ np.linalg.inv(sy) @ sxy.T
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(got, got.T)


def test_conditional_covariance_singular_raises():
    sx = np.eye(3)
    sxy = np.zeros((3, 2))
    sy = np.zeros((2, 2))
    with pytest.raises(NumericalError, match="noise_lambda"):
        conditional_covariance(sx, sxy, sy)
    # target noise lambda^2 I on sigma_y rescues the same call
    out = conditional_covariance(sx, sxy, sy + 1e-6 * np.eye(2))
    np.testing.assert_allclose(out, sx)


def test_covariance_pair_validation():
    with pytest.raises(DimensionError):
        CovariancePair(np.eye(3), np.eye(2))
    with pytest.raises(ValueError):
        CovariancePair(np.eye(2), np.array([[1.0, 0.5], [0.1, 1.0]]))
    # the pair carries no shrinkage: sample_covariance applies it
    with pytest.raises(TypeError):
        CovariancePair(np.eye(2), np.eye(2), shrinkage=0.1)


def test_gib_eigensystem_solves_generalized_problem():
    cov, corr = random_conditional_pair(seed=10)
    res = gib_eigensystem(cov)
    lam, vecs = res.eigenvalues, res.left_eigenvectors
    # eigenvalues ascend and equal 1 - corr^2 up to reordering
    assert np.all(np.diff(lam) >= -1e-12)
    np.testing.assert_allclose(np.sort(lam), np.sort(1.0 - corr ** 2),
                               rtol=1e-9)
    # generalized eigenequation sigma_xgy v = lam sigma_x v, column form
    for i in range(res.dim):
        v = vecs[i]
        lhs = cov.sigma_x_given_y @ v
        rhs = lam[i] * (cov.sigma_x @ v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * np.linalg.norm(rhs))
    # the eigenvectors are sigma_x-orthonormal: V sigma_x V' = I
    assert _sigma_x_orthonormality_error(cov) <= 1e-9


def _sigma_x_orthonormality_error(cov):
    vecs = gib_eigensystem(cov).left_eigenvectors
    return np.max(np.abs(vecs @ cov.sigma_x @ vecs.T - np.eye(cov.dim)))


def test_gib_eigenvectors_are_sigma_x_orthonormal():
    # v = L^-T u with sigma_x = L L' and orthonormal u, so the loadings
    # need no v_i' sigma_x v_i normalization
    for seed in range(10):
        cov, _ = random_conditional_pair(seed=seed, dim=8)
        assert _sigma_x_orthonormality_error(cov) <= 1e-9
    # rank-deficient sample covariance (fewer samples than dimensions)
    # regularized by shrinkage, with the pipeline's analytic conditional
    rng = np.random.default_rng(12)
    d, n, n_y = 120, 40, 30
    x = rng.standard_normal((n, d)) * np.exp(rng.uniform(-2, 2, size=d))
    sigma_x = sample_covariance(x, shrinkage=1e-4)
    assert np.linalg.matrix_rank(sample_covariance(x)) < d
    w0 = rng.standard_normal((n_y, d))
    sigma_y = w0 @ sigma_x @ w0.T + 0.01 * np.eye(n_y)
    cov = CovariancePair(sigma_x, conditional_covariance(
        sigma_x, sigma_x @ w0.T, sigma_y))
    assert _sigma_x_orthonormality_error(cov) <= 1e-9


def test_gib_eigensystem_left_eigenvector_relation():
    cov, _ = random_conditional_pair(seed=11)
    res = gib_eigensystem(cov)
    m = cov.sigma_x_given_y @ np.linalg.inv(cov.sigma_x)
    for i in range(res.dim):
        v = res.left_eigenvectors[i]
        np.testing.assert_allclose(v @ m, res.eigenvalues[i] * v,
                                   atol=1e-8 * np.linalg.norm(v))


def test_gib_eigensystem_clamps_unit_eigenvalues():
    # zero conditional covariance along one direction: raw eigenvalue 0,
    # identical marginal along another: raw eigenvalue 1
    sigma_x = np.diag([2.0, 3.0])
    sigma_xgy = np.diag([0.0, 3.0])
    res = gib_eigensystem(CovariancePair(sigma_x, sigma_xgy))
    assert res.clamped
    assert res.eigenvalues[0] == pytest.approx(CLAMP_EPS)
    assert res.eigenvalues[-1] == pytest.approx(1.0 - CLAMP_EPS)
    assert res.raw_eigenvalues[0] == pytest.approx(0.0, abs=1e-12)


def test_gib_eigensystem_rejects_indefinite_sigma_x():
    cov = CovariancePair(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(NumericalError, match="shrinkage"):
        gib_eigensystem(cov)


def test_logdet_psd_matches_slogdet():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    m = a @ a.T + 0.1 * np.eye(6)
    sign, want = np.linalg.slogdet(m)
    assert sign > 0
    assert logdet_psd(m, jitter=0.0) == pytest.approx(want, rel=1e-12)


def test_logdet_psd_empty_and_failure():
    assert logdet_psd(np.zeros((0, 0))) == 0.0
    with pytest.raises(NumericalError, match="positive definite"):
        logdet_psd(np.diag([1.0, -5.0]), jitter=0.0)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(3, 40),
       d=st.integers(1, 6))
def test_sample_covariance_is_psd_and_symmetric(seed, n, d):
    x = np.random.default_rng(seed).standard_normal((n, d))
    s = sample_covariance(x, shrinkage=1e-4)
    np.testing.assert_allclose(s, s.T)
    assert np.min(np.linalg.eigvalsh(s)) >= -1e-10


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 31 - 1), dim=st.integers(2, 8))
def test_gib_eigenvalues_stay_in_unit_interval(seed, dim):
    cov, _ = random_conditional_pair(seed=seed, dim=dim)
    res = gib_eigensystem(cov)
    assert np.all(res.eigenvalues >= CLAMP_EPS)
    assert np.all(res.eigenvalues <= 1.0 - CLAMP_EPS)
    assert np.all(np.diff(res.eigenvalues) >= -1e-12)
