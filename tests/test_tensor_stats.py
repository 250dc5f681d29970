"""Covariance estimation and the generalized eigensolver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

from gib_pairs import conditional, exact_pair, pipeline_pair
from oib.errors import DimensionError, NumericalError
from oib.tensor_stats import (CLAMP_EPS, CovariancePair, DataMatrix,
                              covariance_pair, gib_eigensystem, logdet_psd,
                              sample_covariance)


def whitened_oracle(cov):
    """The n_x-dimensional solver, kept as a reference only: the symmetric
    eigenproblem of L^-1 sigma_x|y L^-T with sigma_x = L L^T, v = L^-T u."""
    chol = np.linalg.cholesky(cov.sigma_x)
    li = linalg.solve_triangular(chol, np.eye(cov.dim), lower=True)
    m = li @ conditional(cov) @ li.T
    lam, u = np.linalg.eigh(0.5 * (m + m.T))
    return lam, (li.T @ u).T


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


def test_covariance_pair_matches_schur_complement():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((9, 9))
    joint = a @ a.T + 0.5 * np.eye(9)
    sx, sxy, sy = joint[:5, :5], joint[:5, 5:], joint[5:, 5:]
    cov = covariance_pair(sx, sxy, sy)
    assert cov.cross.shape == (4, 5)
    want = sx - sxy @ np.linalg.inv(sy) @ sxy.T
    np.testing.assert_allclose(conditional(cov), want, rtol=1e-10,
                               atol=1e-12)


def test_covariance_pair_singular_sigma_y_raises():
    sx = np.eye(3)
    sxy = np.zeros((3, 2))
    sy = np.zeros((2, 2))
    with pytest.raises(NumericalError, match="noise floor"):
        covariance_pair(sx, sxy, sy)
    # target noise lambda^2 I on sigma_y rescues the same call
    cov = covariance_pair(sx, sxy, sy + 1e-6 * np.eye(2))
    np.testing.assert_allclose(conditional(cov), sx)


def test_covariance_pair_validation():
    with pytest.raises(DimensionError):
        CovariancePair(np.eye(3), np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        CovariancePair(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        CovariancePair(np.array([[1.0, 0.5], [0.1, 1.0]]), np.eye(2))
    # the pair carries no shrinkage: sample_covariance applies it
    with pytest.raises(TypeError):
        CovariancePair(np.eye(2), np.eye(2), shrinkage=0.1)


def test_gib_eigensystem_solves_generalized_problem():
    cov, corr = exact_pair(seed=10)
    res = gib_eigensystem(cov)
    lam, vecs = res.eigenvalues, res.left_eigenvectors
    # eigenvalues ascend and equal 1 - corr^2 up to reordering
    assert np.all(np.diff(lam) >= -1e-12)
    np.testing.assert_allclose(np.sort(lam), np.sort(1.0 - corr ** 2),
                               rtol=1e-9)
    # generalized eigenequation sigma_xgy v = lam sigma_x v, column form
    for i in range(res.dim):
        v = vecs[i]
        lhs = conditional(cov) @ v
        rhs = lam[i] * (cov.sigma_x @ v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * np.linalg.norm(rhs))
    # the eigenvectors are sigma_x-orthonormal: V sigma_x V' = I
    assert _sigma_x_orthonormality_error(cov) <= 1e-9


def _sigma_x_orthonormality_error(cov):
    vecs = gib_eigensystem(cov).left_eigenvectors
    return np.max(np.abs(vecs @ cov.sigma_x @ vecs.T
                         - np.eye(vecs.shape[0])))


def test_gib_eigenvectors_are_sigma_x_orthonormal():
    # v = L^-T p with sigma_x = L L' and orthonormal columns p, so the
    # loadings need no v_i' sigma_x v_i normalization
    for seed in range(10):
        cov, _ = exact_pair(seed=seed, dim=8)
        assert _sigma_x_orthonormality_error(cov) <= 1e-9
    # rank-deficient sample covariance (fewer samples than dimensions)
    # regularized by shrinkage, with the pipeline's analytic pair
    cov, _ = pipeline_pair(12, d=120, n_y=30, n=40, lam=0.1)
    assert _sigma_x_orthonormality_error(cov) <= 1e-9


def test_gib_eigensystem_left_eigenvector_relation():
    cov, _ = exact_pair(seed=11)
    res = gib_eigensystem(cov)
    m = conditional(cov) @ np.linalg.inv(cov.sigma_x)
    for i in range(res.dim):
        v = res.left_eigenvectors[i]
        np.testing.assert_allclose(v @ m, res.eigenvalues[i] * v,
                                   atol=1e-8 * np.linalg.norm(v))


def test_gib_eigenvector_signs_do_not_depend_on_the_target_basis():
    # a rotation y -> Q y leaves the pair's information unchanged; the
    # solver's sign rule (largest-magnitude entry positive) must give the
    # same informative rows for both bases
    n_y = 5
    cov, _ = pipeline_pair(13, d=12, n_y=n_y)
    q, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((n_y,
                                                                   n_y)))
    rows = [gib_eigensystem(CovariancePair(cov.sigma_x, k)).left_eigenvectors
            for k in (cov.cross, q @ cov.cross)]
    np.testing.assert_allclose(rows[1], rows[0],
                               atol=1e-10 * np.max(np.abs(rows[0])))
    pivots = np.argmax(np.abs(rows[0]), axis=1)
    assert np.all(rows[0][np.arange(n_y), pivots] > 0)


@pytest.mark.parametrize("seed,d,n_y,n", [
    (20, 20, 8, None), (21, 20, 8, None), (22, 8, 12, None),
    (23, 40, 40, None), (24, 120, 30, 40)])
def test_gib_eigensystem_matches_whitened_oracle(seed, d, n_y, n):
    # the last case has a rank-deficient sample covariance (n < d) that
    # only the shrinkage keeps positive definite
    cov, _ = pipeline_pair(seed, d=d, n_y=n_y, n=n)
    res = gib_eigensystem(cov)
    k = min(d, n_y)
    assert res.dim == k and res.left_eigenvectors.shape == (k, d)
    assert not res.clamped
    lam, rows = whitened_oracle(cov)
    np.testing.assert_allclose(res.eigenvalues, lam[:k], rtol=1e-9)
    # every direction past min(n_x, n_y) carries no information about y
    np.testing.assert_allclose(lam[k:], 1.0, atol=1e-9)
    signs = np.sign(np.sum(rows[:k] * res.left_eigenvectors, axis=1))
    aligned = signs[:, None] * rows[:k]
    err = np.linalg.norm(aligned - res.left_eigenvectors, axis=1)
    assert np.max(err / np.linalg.norm(aligned, axis=1)) < 1e-9


def test_gib_eigensystem_clamps_unit_eigenvalues():
    # zero conditional covariance along one direction: raw eigenvalue 0,
    # identical marginal along another: raw eigenvalue 1
    sigma_x = np.diag([2.0, 3.0])
    cross = np.array([[np.sqrt(2.0), 0.0], [0.0, 0.0]])
    res = gib_eigensystem(CovariancePair(sigma_x, cross))
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
    cov, _ = exact_pair(seed=seed, dim=dim)
    res = gib_eigensystem(cov)
    assert np.all(res.eigenvalues >= CLAMP_EPS)
    assert np.all(res.eigenvalues <= 1.0 - CLAMP_EPS)
    assert np.all(np.diff(res.eigenvalues) >= -1e-12)
