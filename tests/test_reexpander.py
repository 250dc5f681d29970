"""Least-squares and population L-MMSE re-expansion."""

import numpy as np
import pytest

from oib.errors import DimensionError, NumericalError
from oib.info_metrics import gaussian_entropy
from oib.reexpander import fit_lmmse, fit_ls, mse_entropy_gap, reexpand


def test_fit_lmmse_solves_normal_equations():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    c_zz = a @ a.T + 0.5 * np.eye(3)
    c_yz = rng.standard_normal((5, 3))
    rx = fit_lmmse(c_yz, c_zz)
    np.testing.assert_allclose(rx.theta @ c_zz, c_yz, rtol=1e-10, atol=1e-12)
    np.testing.assert_array_equal(rx.target_mean, np.zeros(5))


def test_fit_lmmse_singular_raises():
    with pytest.raises(NumericalError):
        fit_lmmse(np.ones((2, 2)), np.zeros((2, 2)))


def test_ls_converges_to_population_estimator():
    # N = 1e5 samples: sample LS within 1e-2 relative Frobenius of the
    # population L-MMSE coefficient matrix
    rng = np.random.default_rng(1)
    mix = rng.standard_normal((4, 4))
    c_zz = mix @ mix.T + np.eye(4)
    theta_true = rng.standard_normal((3, 4))
    n = 100_000
    z = rng.standard_normal((n, 4)) @ np.linalg.cholesky(c_zz).T
    y = z @ theta_true.T + 0.3 * rng.standard_normal((n, 3))
    c_yz = theta_true @ c_zz
    rx_pop = fit_lmmse(c_yz, c_zz)
    rx_ls = fit_ls(z, y)
    rel = np.linalg.norm(rx_ls.theta - rx_pop.theta) / np.linalg.norm(
        rx_pop.theta)
    assert rel < 1e-2
    np.testing.assert_allclose(rx_pop.theta, theta_true, rtol=1e-10)


def test_ls_centers_internally():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((500, 3)) + np.array([5.0, -3.0, 1.0])
    theta = rng.standard_normal((2, 3))
    offset = np.array([10.0, -7.0])
    y = z @ theta.T + offset
    rx = fit_ls(z, y, ridge=0.0)
    np.testing.assert_allclose(rx.theta, theta, rtol=1e-8)
    np.testing.assert_allclose(reexpand(rx, z), y, rtol=1e-8)


def test_ls_default_ridge_is_trace_scaled():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((200, 3))
    y = rng.standard_normal((200, 2))
    zc = z - z.mean(axis=0)
    yc = y - y.mean(axis=0)
    gram = zc.T @ zc
    ridge = 1e-8 * np.trace(gram) / 3
    theta_manual = np.linalg.solve(gram + ridge * np.eye(3), zc.T @ yc).T
    rx = fit_ls(z, y)
    np.testing.assert_allclose(rx.theta, theta_manual, rtol=1e-12)


def test_ls_rejects_underdetermined_sample():
    with pytest.raises(ValueError):
        fit_ls(np.zeros((3, 3)), np.zeros((3, 2)))


def test_ls_singular_gram_paths():
    # duplicated coordinate makes the gram exactly singular
    rng = np.random.default_rng(4)
    col = rng.standard_normal((50, 1))
    z = np.hstack([col, col])
    y = rng.standard_normal((50, 2))
    with pytest.raises(NumericalError, match="ridge"):
        fit_ls(z, y, ridge=0.0)
    # the default ridge makes the system solvable
    rx = fit_ls(z, y)
    assert np.all(np.isfinite(rx.theta))


def test_reexpand_applies_affine_map():
    theta = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
    from oib.reexpander import Reexpander
    rx = Reexpander(theta=theta, target_mean=np.array([1.0, 2.0, 3.0]))
    z = np.array([[1.0, 1.0], [0.0, 2.0]])
    want = z @ theta.T + np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(reexpand(rx, z), want)
    np.testing.assert_allclose(reexpand(rx, z[0]), want[0])
    with pytest.raises(DimensionError):
        reexpand(rx, z[:, :, None])


def test_mse_entropy_gap_formula():
    # gap = mse - (n_y / 2 pi e) exp(2 H / n_y); for an isotropic error
    # covariance the bound equals the true MSE exactly
    n_y, var = 4, 0.49
    h = gaussian_entropy(var * np.eye(n_y))
    assert mse_entropy_gap(n_y * var, h, n_y) == pytest.approx(0.0, abs=1e-9)
    # anisotropic covariance with equal trace leaves a strictly positive gap
    aniso = np.diag([0.9, 0.3, 0.4, 0.36])
    h2 = gaussian_entropy(aniso)
    assert mse_entropy_gap(float(np.trace(aniso)), h2, n_y) > 0.01


def test_mc_mse_meets_entropy_bound_at_optimum():
    # z ~ N(0, I2), y = M z + sigma eta: the LMMSE error is isotropic, so
    # the Monte-Carlo MSE sits on the entropy bound up to sampling noise
    rng = np.random.default_rng(7)
    m = rng.standard_normal((4, 2))
    n, sigma = 20_000, 0.7
    z = rng.standard_normal((n, 2))
    y = z @ m.T + sigma * rng.standard_normal((n, 4))
    rx = fit_lmmse(m, np.eye(2))
    err = y - reexpand(rx, z)
    sq = np.sum(err ** 2, axis=1)
    mse = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / np.sqrt(n))
    err_cov = np.cov(err.T, bias=True)
    gap = mse_entropy_gap(mse, gaussian_entropy(err_cov), 4)
    assert gap >= -1e-9
    assert gap <= 3.0 * se
    assert abs(mse - 4 * sigma ** 2) <= 3.0 * se


def test_prefix_fit_is_the_fit_of_the_scaled_leading_columns():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((300, 6)) @ rng.standard_normal((6, 6)) + 2.0
    y = z @ rng.standard_normal((6, 4)) + rng.standard_normal((300, 4))
    scales = [rng.uniform(0.1, 10.0, size=k) for k in (1, 3, 6)]
    fits = fit_ls(z, y, prefixes=[np.ones(6)] + scales)
    np.testing.assert_array_equal(fits[0].theta, fit_ls(z, y).theta)
    for s, got in zip(scales, fits[1:]):
        want = fit_ls(z[:, :len(s)] * s, y)
        np.testing.assert_allclose(got.theta, want.theta, rtol=1e-10)
        np.testing.assert_allclose(got.target_mean, want.target_mean,
                                   rtol=1e-10)
