"""Closed-form compressor loadings, critical betas, and baselines."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from gib_pairs import exact_pair, pipeline_pair
from oib import pipeline
from oib.config import config_from_dict
from oib.errors import DataFormatError, DimensionError
from oib.gib_compressor import (Compressor, beta_for_size, cca_compressor,
                                compressor_at_beta, compressor_at_size,
                                encode, pca_basis, pca_compressor, solve_gib)
from oib.inference_net import accuracy, head_model
from oib.info_metrics import encoding_mi, gaussian_entropy
from oib.reexpander import fit_ls
from oib.tensor_stats import sample_covariance
from test_config_cli import TINY


def test_critical_betas_follow_eigenvalues():
    cov, _ = exact_pair(0)
    sol = solve_gib(cov)
    np.testing.assert_allclose(sol.beta_critical,
                               1.0 / (1.0 - sol.eigen.eigenvalues),
                               rtol=1e-12)
    assert np.all(np.diff(sol.beta_critical) >= 0.0)
    assert np.all(sol.beta_critical > 1.0)


def test_loading_structure_identity():
    # alpha_i^2 lam_i + 1 == beta (1 - lam_i) for every active row; the
    # rows are alpha_i v_i with v_i' sigma_x v_i = 1, so the sigma_x-norm
    # of row i is alpha_i^2
    for seed in range(10):
        cov, _ = exact_pair(seed)
        sol = solve_gib(cov)
        beta = 3.0 * float(sol.beta_critical[-1])
        comp = compressor_at_beta(sol, beta)
        assert comp.n_z == sol.eigen.dim
        lam = sol.eigen.eigenvalues
        alpha_sq = np.einsum("ij,jk,ik->i", comp.matrix_a, cov.sigma_x,
                             comp.matrix_a)
        residual = alpha_sq * lam + 1.0 - beta * (1.0 - lam)
        assert np.max(np.abs(residual)) < 1e-8


def test_beta_below_first_critical_is_all_zero():
    cov, _ = exact_pair(1)
    sol = solve_gib(cov)
    for beta in (0.0, 1.0, float(sol.beta_critical[0])):
        comp = compressor_at_beta(sol, beta)
        assert comp.n_z == 0
        assert comp.matrix_a.shape == (0, cov.dim)
        assert np.count_nonzero(comp.matrix_a) == 0


def test_row_count_increments_at_each_crossing():
    cov, _ = exact_pair(2)
    sol = solve_gib(cov)
    bc = sol.beta_critical
    edges = np.append(bc, 2.0 * bc[-1])
    for i in range(sol.eigen.dim):
        inside = float(np.sqrt(edges[i] * edges[i + 1]))
        comp = compressor_at_beta(sol, inside)
        assert comp.n_z == i + 1
        assert np.all(np.linalg.norm(comp.matrix_a, axis=1) > 0.0)


def test_compressor_at_size_hits_requested_rank():
    cov, _ = exact_pair(3)
    sol = solve_gib(cov)
    for n_z in range(1, sol.eigen.dim + 1):
        comp = compressor_at_size(sol, n_z)
        assert comp.n_z == n_z
        assert comp.matrix_a.shape == (n_z, cov.dim)
        # the chosen beta sits strictly inside the matching interval
        assert comp.beta > sol.beta_critical[n_z - 1]
        if n_z < sol.eigen.dim:
            assert comp.beta < sol.beta_critical[n_z]
        # identical to the generic beta sweep at that beta
        again = compressor_at_beta(sol, comp.beta)
        np.testing.assert_array_equal(again.matrix_a, comp.matrix_a)


def test_beta_for_size_is_log_midpoint():
    cov, _ = exact_pair(4)
    sol = solve_gib(cov)
    bc = sol.beta_critical
    assert beta_for_size(sol, 1) == pytest.approx(np.sqrt(bc[0] * bc[1]))
    assert beta_for_size(sol, sol.eigen.dim) == pytest.approx(
        np.sqrt(bc[-1] * 2.0 * bc[-1]))
    with pytest.raises(ValueError):
        beta_for_size(sol, 0)
    with pytest.raises(ValueError):
        beta_for_size(sol, sol.eigen.dim + 1)


def test_rows_order_by_informativeness():
    # ascending eigenvalues mean descending correlation: earlier rows keep
    # their loadings under smaller beta than later rows
    cov, corr = exact_pair(5)
    sol = solve_gib(cov)
    np.testing.assert_allclose(np.sort(1.0 - corr ** 2),
                               sol.eigen.eigenvalues, rtol=1e-9)


def _lmmse_error(a, cov, w0):
    """Population error of the best linear reconstruction of W0 x from
    z = A x: tr(C) - tr(W0 S A' (A S A')^-1 A S W0') with S = sigma_x."""
    c_tz = w0 @ cov.sigma_x @ a.T
    c_zz = a @ cov.sigma_x @ a.T
    c_tt = w0 @ cov.sigma_x @ w0.T
    return float(np.trace(c_tt) - np.trace(c_tz @ np.linalg.solve(c_zz,
                                                                  c_tz.T)))


@pytest.mark.parametrize("seed,n", [(30, None), (31, None), (32, 15)])
def test_oib_rows_are_the_reduced_rank_regression_of_w0_x(seed, n):
    # for y = W0 x + lam xi the GIB directions span the top principal
    # directions of W0 x (reduced-rank regression), so at every n_z their
    # population error in reconstructing W0 x is the Eckart-Young optimum
    # and never above that of the top-variance (PCA) rows of the same
    # sigma_x
    cov, w0 = pipeline_pair(seed, d=20, n_y=8, n=n)
    sol = solve_gib(cov)
    basis = pca_basis(cov.sigma_x)
    c_eigs = np.linalg.eigvalsh(w0 @ cov.sigma_x @ w0.T)[::-1]
    scale = float(np.sum(c_eigs))
    for n_z in range(1, sol.eigen.dim + 1):
        err_oib = _lmmse_error(compressor_at_size(sol, n_z).matrix_a, cov,
                               w0)
        err_pca = _lmmse_error(basis[:n_z], cov, w0)
        assert err_oib <= err_pca + 1e-10 * scale
        assert err_oib == pytest.approx(float(np.sum(c_eigs[n_z:])),
                                        abs=1e-9 * scale)


def test_cca_compressor_has_unit_loadings():
    cov, _ = exact_pair(6)
    sol = solve_gib(cov)
    comp = cca_compressor(sol, 3)
    np.testing.assert_array_equal(comp.matrix_a,
                                  sol.eigen.left_eigenvectors[:3])
    oib = compressor_at_size(sol, 3)
    # same directions, different loadings
    ratios = oib.matrix_a / comp.matrix_a
    np.testing.assert_allclose(
        ratios, np.broadcast_to(ratios[:, :1], ratios.shape), rtol=1e-9)


def test_pca_compressor_takes_top_variance_directions():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5))
    sigma = a @ a.T + 0.1 * np.eye(5)
    comp = pca_compressor(pca_basis(sigma), 2)
    vals = np.linalg.eigvalsh(sigma)
    captured = np.einsum("ij,jk,ik->i", comp.matrix_a, sigma, comp.matrix_a)
    np.testing.assert_allclose(np.sort(captured), np.sort(vals[-2:]),
                               rtol=1e-9)
    # rows are orthonormal
    np.testing.assert_allclose(comp.matrix_a @ comp.matrix_a.T, np.eye(2),
                               atol=1e-12)


def test_pca_compressors_are_prefixes_of_one_basis():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((7, 7))
    sigma = a @ a.T + 0.1 * np.eye(7)
    basis = pca_basis(sigma)
    assert basis.shape == (7, 7)
    variances = np.einsum("ij,jk,ik->i", basis, sigma, basis)
    assert np.all(np.diff(variances) <= 1e-12)
    vecs = np.linalg.eigh(sigma)[1]
    for n_z in range(1, 8):
        comp = pca_compressor(basis, n_z)
        assert np.array_equal(comp.matrix_a, basis[:n_z])
        # the same matrix a per-size eigendecomposition produces
        assert np.array_equal(comp.matrix_a, vecs[:, ::-1][:, :n_z].T)
    for bad in (0, 8):
        with pytest.raises(ValueError):
            pca_compressor(basis, bad)


def test_encode_deterministic_and_stochastic():
    cov, _ = exact_pair(8)
    sol = solve_gib(cov)
    comp = compressor_at_size(sol, 3)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((40, cov.dim))
    z = encode(comp, x)
    np.testing.assert_array_equal(z, x @ comp.matrix_a.T)
    np.testing.assert_array_equal(encode(comp, x), z)
    # stochastic encodings add their noise outside the compressor
    with pytest.raises(TypeError):
        encode(comp, x, rng=123)
    single = encode(comp, x[0])
    assert single.shape == (3,)
    # single rows hit a different BLAS kernel than batches, so allow ulps
    np.testing.assert_allclose(single, z[0], rtol=1e-12, atol=1e-14)


def test_encode_rejects_wrong_width():
    cov, _ = exact_pair(10)
    comp = compressor_at_size(solve_gib(cov), 2)
    with pytest.raises(DimensionError):
        encode(comp, np.zeros(comp.n_x + 1))
    with pytest.raises(DimensionError):
        encode(comp, np.zeros((2, comp.n_x, 1)))


def test_compressor_validates_shape_and_noise():
    with pytest.raises(DimensionError):
        Compressor(matrix_a=np.zeros(4))
    # a compressor is a deterministic linear map with no noise model
    with pytest.raises(TypeError):
        Compressor(matrix_a=np.zeros((2, 4)), noise_std=1.0)
    comp = Compressor(matrix_a=np.zeros((0, 4)))
    assert comp.n_z == 0 and comp.rho == float("inf")


@pytest.mark.parametrize("mi", [float("nan"), float("inf"), "NaN"])
def test_compressor_rejects_an_mi_that_is_not_a_finite_number(mi):
    with pytest.raises((TypeError, ValueError)):
        Compressor(matrix_a=np.eye(2), mi_nats=mi)
    assert Compressor(matrix_a=np.eye(2), mi_nats=1.5).mi_nats == 1.5


def _grid_domains(cov):
    return {pipeline.TRANSFORM: SimpleNamespace(cov=cov),
            pipeline.RAW: SimpleNamespace(cov=cov)}


def test_build_compressors_solves_pca_basis_once(monkeypatch):
    cov, _ = exact_pair(12)
    domains = _grid_domains(cov)
    config = SimpleNamespace(n_z_grid=[1, 2, 3, 4, 5, 6],
                             compressor_kinds=["oib", "cca", "pca"])
    calls = []
    eigh = np.linalg.eigh

    def counted(matrix, *args, **kwargs):
        calls.append(matrix)
        return eigh(matrix, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    compressors = pipeline.build_compressors(config, domains)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], cov.sigma_x)
    monkeypatch.undo()
    basis = pca_basis(cov.sigma_x)
    for n_z in config.n_z_grid:
        comp = compressors[("pca", n_z)]
        assert np.array_equal(comp.matrix_a, basis[:n_z])
        assert np.array_equal(compressors[("cca", n_z)].matrix_a,
                              solve_gib(cov).eigen.left_eigenvectors[:n_z])
    assert len(compressors) == 3 * len(config.n_z_grid)


def test_cca_and_pca_compressors_are_views_of_their_basis():
    cov, _ = exact_pair(6)
    sol = solve_gib(cov)
    basis = pca_basis(cov.sigma_x)
    assert basis.flags.c_contiguous
    for n_z in (1, 3):
        assert np.shares_memory(cca_compressor(sol, n_z).matrix_a,
                                sol.eigen.left_eigenvectors)
        assert np.shares_memory(pca_compressor(basis, n_z).matrix_a, basis)
    config = SimpleNamespace(n_z_grid=[1, 2, 3],
                             compressor_kinds=["oib", "cca", "pca"])
    compressors = pipeline.build_compressors(config, _grid_domains(cov))
    for kind in ("cca", "pca"):
        largest = compressors[(kind, 3)].matrix_a
        for n_z in (1, 2):
            assert np.shares_memory(compressors[(kind, n_z)].matrix_a,
                                    largest)


def test_build_compressors_solves_the_gib_once_when_a_kind_reads_it(
        monkeypatch):
    cov, _ = exact_pair(12)
    domains = _grid_domains(cov)
    calls = []
    solve = pipeline.solve_gib

    def counted(pair):
        calls.append(pair)
        return solve(pair)
    monkeypatch.setattr(pipeline, "solve_gib", counted)
    for kinds, solved in ((["oib", "cca", "pca"], 1), (["oib"], 1),
                          (["cca"], 1), (["pca"], 0)):
        calls.clear()
        config = SimpleNamespace(n_z_grid=[1, 2, 3], compressor_kinds=kinds)
        pipeline.build_compressors(config, domains)
        assert len(calls) == solved, kinds
        assert all(pair is cov for pair in calls)


def test_build_compressors_without_pca_leaves_raw_domain_alone():
    cov, _ = exact_pair(13)
    domains = {pipeline.TRANSFORM: _grid_domains(cov)[pipeline.TRANSFORM]}
    config = SimpleNamespace(n_z_grid=[2, 4], compressor_kinds=["oib", "cca"])
    compressors = pipeline.build_compressors(config, domains)
    assert sorted(compressors) == [("cca", 2), ("cca", 4), ("oib", 2),
                                   ("oib", 4)]


@pytest.fixture(scope="module")
def tiny_fit(tmp_path_factory):
    """Stages 1-5 of the tiny CLI config, in memory."""
    out = tmp_path_factory.mktemp("nested") / "out"
    config = config_from_dict(dict(TINY, output_dir=str(out)))
    return pipeline.evaluate(pipeline.fit(pipeline.prepare(config)))


def _grid(result):
    for (kind, n_z), comp in result.compressors.items():
        yield kind, n_z, comp, result.domains[pipeline.domain_for_kind(kind)]


def test_nested_reexpanders_are_the_per_size_least_squares_fits(tiny_fit):
    for kind, n_z, comp, domain in _grid(tiny_fit):
        want = fit_ls(encode(comp, domain.x_train), domain.pre_train)
        got = tiny_fit.reexpanders[(kind, n_z)]
        for a, b in ((got.theta, want.theta),
                     (got.target_mean, want.target_mean)):
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b)), \
                (kind, n_z)


def test_nested_mi_is_each_compressors_own_mi(tiny_fit):
    for kind, n_z, comp, domain in _grid(tiny_fit):
        want = encoding_mi(comp.matrix_a, domain.cov)
        assert comp.mi_nats == pytest.approx(want, rel=1e-9), (kind, n_z)
        if kind == "oib":
            assert comp.mi_nats == tiny_fit.compressors[("cca", n_z)].mi_nats


def test_entropy_is_that_of_the_sample_covariance_of_the_codes(tiny_fit):
    for kind, n_z, comp, domain in _grid(tiny_fit):
        s = sample_covariance(encode(comp, domain.x_train))
        s[np.diag_indices_from(s)] += 1.0
        want = gaussian_entropy(s * (n_z / np.trace(s)))
        got = tiny_fit.record(kind, n_z).entropy_nats
        assert got == pytest.approx(want, rel=1e-12), (kind, n_z)


def test_oib_train_reconstructions_are_those_of_the_own_codes(tiny_fit):
    domain = tiny_fit.transform
    for n_z in tiny_fit.config.n_z_grid:
        rx = tiny_fit.reexpanders[("oib", n_z)]
        z = encode(tiny_fit.compressors[("oib", n_z)], domain.x_train)
        want = np.maximum(z @ rx.theta.T + rx.target_mean, 0)
        got = tiny_fit.head_inputs_train[n_z]
        assert got.dtype == np.float32
        assert got.min() >= 0
        ulp = np.spacing(np.float32(np.max(want)))
        assert np.max(np.abs(got - want)) <= ulp


def test_oib_records_are_scored_from_the_test_head_inputs_they_hand_on(
        tiny_fit):
    head = head_model(tiny_fit.transform.model)
    for n_z in tiny_fit.config.n_z_grid:
        x_test = tiny_fit.head_inputs_test[n_z]
        assert x_test.dtype == np.float32 and x_test.min() >= 0
        assert tiny_fit.record("oib", n_z).accuracy == accuracy(
            head, x_test, tiny_fit.test_labels)


@pytest.mark.parametrize("kind", ["oib", "cca", "pca"])
def test_a_compressor_off_the_nested_rows_is_refused(tiny_fit, kind):
    r = tiny_fit
    n_small = min(r.config.n_z_grid)
    comp = r.compressors[(kind, n_small)]
    bent = comp.matrix_a.copy()
    bent[-1] += 1e-6 * np.max(np.abs(bent))
    compressors = dict(r.compressors)
    compressors[(kind, n_small)] = dataclasses.replace(comp, matrix_a=bent)
    match = "%s compressor at n_z=%d" % (kind, n_small)
    with pytest.raises(DataFormatError, match=match):
        pipeline.fit_reexpanders(r.config, r.domains, compressors)
    with pytest.raises(DataFormatError, match=match):
        pipeline.evaluate_grid(r.config, r.domains, compressors,
                               r.reexpanders, r.test_labels)
    # a positive rescaling of a row keeps the set nested
    bent = comp.matrix_a.copy()
    bent[-1] *= 3.0
    compressors[(kind, n_small)] = dataclasses.replace(comp, matrix_a=bent)
    scales = pipeline.nested_scales(r.config, compressors, kind)
    assert scales[n_small][-1] == pytest.approx(
        3.0 * pipeline.nested_scales(r.config, r.compressors,
                                     kind)[n_small][-1], rel=1e-12)
