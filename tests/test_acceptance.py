"""Acceptance suite: the package's headline guarantees, end to end.

The first half is self-contained and fast: the published complexity
table, the closed-form loading structure, information optimality of the
compressed subspace, estimator consistency, the entropy lower bound on
reconstruction error, gradient correctness, normality-test calibration,
and bit-exact persistence.

The second half shares one full experiment run (10k train / 2k test
images, compressed sizes 10 through 100, retrained heads, normality
comparisons) through a session fixture and checks the behavior of the
complete pipeline: baseline accuracy, entropy orderings, dominance over
PCA in accuracy lost to compression and parity with CCA, and the gains
from head retraining.  OIB is served through the transform-domain
network and PCA through the separately trained raw-domain network, so
the PCA comparison measures each compressor against its own network's
uncompressed accuracy rather than comparing absolute accuracies.
"""

import struct
import time

import numpy as np
import pytest

from oib.complexity_model import (CLASSIFICATION, COMPRESSION, fft_macs,
                                  network_macs, pipeline_macs,
                                  saving_baseline, saving_percent)
from oib.config import config_from_dict
from oib.datasets import load_idx, save_idx
from oib.gaussianizer import RealDft2dPlan, forward as dft_forward, \
    henze_zirkler, inverse as dft_inverse
from oib.gib_compressor import (cca_compressor, compressor_at_beta,
                                compressor_at_size, solve_gib)
from oib.inference_net import (TrainConfig, _batch_loss_grads,
                               forward_from_layer, init_mlp, train)
from oib.info_metrics import (LOG_2PIE, gaussian_entropy,
                              mi_loading_invariance_check,
                              random_projection_optimality_check)
from oib.pipeline import baseline_accuracies, run_experiment
from oib.reexpander import fit_lmmse, fit_ls, mse_entropy_gap, reexpand
from oib.serialization import (load_compressor, load_model, load_reexpander,
                               save_compressor, save_model, save_reexpander)
from oib.tensor_stats import covariance_pair

MODEL_LAYERS = [784, 256, 128, 64, 16, 10]
HEAD_DIMS = [256, 128, 64, 16, 10]

# published complexity table: n_z, compression MACs, classification MACs,
# saving percent against the original network minus its final projection
PUBLISHED_ROWS = [
    (10, 18080, 44704, 74.13),
    (20, 25920, 47264, 69.84),
    (30, 33760, 49824, 65.56),
    (40, 41600, 52384, 61.27),
    (50, 49440, 54944, 56.99),
    (60, 57280, 57504, 52.70),
    (70, 65120, 60064, 48.42),
    (80, 72960, 62624, 44.13),
    (90, 80800, 65184, 39.85),
    (100, 88640, 67744, 35.56),
]


def make_instance(seed, dim=6):
    """Exact covariance pair with all canonical correlations in (0, 1)."""
    rng = np.random.default_rng(seed)
    corr = rng.uniform(0.2, 0.95, size=dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    scales = np.exp(rng.uniform(-0.5, 0.5, size=dim))
    mix = q * scales
    sigma_x = mix @ mix.T
    cov = covariance_pair(0.5 * (sigma_x + sigma_x.T), mix * corr,
                          np.eye(dim))
    return cov, np.sort(corr)


# ---------------------------------------------------------------------------
# self-contained criteria


def test_published_complexity_table_reproduces_exactly():
    start = time.monotonic()
    network = network_macs(MODEL_LAYERS)
    assert network.total == 242848
    baseline = saving_baseline(MODEL_LAYERS)
    assert baseline == 242688
    assert fft_macs(784) == 10240
    for n_z, comp, cls, saving in PUBLISHED_ROWS:
        bd = pipeline_macs(784, n_z, HEAD_DIMS)
        assert bd.subtotal(COMPRESSION) == comp
        assert bd.subtotal(CLASSIFICATION) == cls
        assert saving_percent(bd, baseline) == pytest.approx(saving,
                                                             abs=0.01)
    assert time.monotonic() - start < 1.0


def test_loading_structure_identity_and_rank_schedule():
    start = time.monotonic()
    for seed in range(10):
        cov, corr = make_instance(seed)
        sol = solve_gib(cov)
        edges = sol.beta_critical
        assert edges[0] > 1.0 and np.all(np.diff(edges) > 0)

        # at a beta above every critical value each loading satisfies
        # alpha^2 lambda + 1 = beta (1 - lambda)
        beta = 3.0 * float(edges[-1])
        comp = compressor_at_beta(sol, beta)
        assert comp.n_z == sol.eigen.dim
        lam = sol.eigen.eigenvalues
        v_sq = np.sum(sol.eigen.left_eigenvectors ** 2, axis=1)
        alpha_sq = np.sum(comp.matrix_a ** 2, axis=1) / v_sq
        residual = alpha_sq * lam + 1.0 - beta * (1.0 - lam)
        assert np.max(np.abs(residual)) < 1e-8

        # at or below the first critical value the compressor is empty
        for b in (0.0, 1.0, float(edges[0])):
            empty = compressor_at_beta(sol, b)
            assert empty.n_z == 0
            assert empty.matrix_a.shape == (0, cov.dim)

        # the row count steps up by one at each critical value
        uppers = np.append(edges, 2.0 * edges[-1])
        for i in range(sol.eigen.dim):
            assert compressor_at_beta(sol, float(edges[i])).n_z == i
            mid = float(np.sqrt(edges[i] * uppers[i + 1]))
            assert compressor_at_beta(sol, mid).n_z == i + 1
    assert time.monotonic() - start < 10.0


def test_compressed_subspace_is_information_optimal():
    start = time.monotonic()
    for seed in range(50):
        cov, _ = make_instance(seed)
        sol = solve_gib(cov)
        n_z = 1 + seed % 5
        proj = random_projection_optimality_check(cov, n_z, trials=100,
                                                  seed=1000 + seed)
        assert proj.min_margin >= -1e-9
        load = mi_loading_invariance_check(sol, cov, n_z, trials=20,
                                           seed=2000 + seed)
        assert load.max_relative_spread < 1e-8
        assert load.noisy_mi < load.noiseless_mi
    assert time.monotonic() - start < 60.0


def test_ls_fit_converges_to_population_lmmse():
    rng = np.random.default_rng(1)
    mix = rng.standard_normal((5, 3))
    n = 100_000
    z = rng.standard_normal((n, 3))
    y = z @ mix.T + 0.3 * rng.standard_normal((n, 5))
    population = fit_lmmse(mix, np.eye(3))
    fitted = fit_ls(z, y, ridge=0.0)
    rel = np.linalg.norm(fitted.theta - population.theta) \
        / np.linalg.norm(population.theta)
    assert rel < 1e-2


def test_mc_mse_meets_the_entropy_lower_bound():
    rng = np.random.default_rng(7)
    mix = rng.standard_normal((4, 2))
    n, sigma = 20_000, 0.7
    z = rng.standard_normal((n, 2))
    y = z @ mix.T + sigma * rng.standard_normal((n, 4))
    rx = fit_lmmse(mix, np.eye(2))
    err = y - reexpand(rx, z)
    sq = np.sum(err ** 2, axis=1)
    mse = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / np.sqrt(n))
    gap = mse_entropy_gap(mse, gaussian_entropy(np.cov(err.T, bias=True)), 4)
    assert gap >= -1e-9
    assert gap <= 3.0 * se
    # the optimum is attained here: the MSE equals n_y sigma^2
    assert abs(mse - 4.0 * sigma ** 2) <= 3.0 * se


def test_gradients_and_training_are_trustworthy():
    # analytic gradients against central differences, every parameter
    rng = np.random.default_rng(6)
    sizes = [6, 5, 4, 3]
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        layers.append((rng.standard_normal((fan_out, fan_in)),
                       rng.standard_normal(fan_out)))
    xb = rng.standard_normal((11, 6))
    yb = rng.integers(0, 3, size=11)
    _, grads = _batch_loss_grads(layers, xb, yb)
    eps = 1e-6
    worst = 0.0
    for li, (w, b) in enumerate(layers):
        for arr, g in ((w, grads[li][0]), (b, grads[li][1])):
            flat = arr.ravel()
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + eps
                up, _ = _batch_loss_grads(layers, xb, yb)
                flat[k] = keep - eps
                down, _ = _batch_loss_grads(layers, xb, yb)
                flat[k] = keep
                fd = (up - down) / (2.0 * eps)
                ga = g.ravel()[k]
                worst = max(worst, abs(ga - fd)
                            / max(abs(ga), abs(fd), 1e-10))
    assert worst < 1e-4

    # fixed-seed training is bitwise reproducible
    data_rng = np.random.default_rng(8)
    x = data_rng.standard_normal((96, 6)).astype(np.float32)
    labels = data_rng.integers(0, 3, size=96)
    model = init_mlp([6, 8, 3], seed=0)
    cfg = TrainConfig(epochs=4, learning_rate=1e-2, batch_size=16, seed=5)
    first, losses_first = train(model, x, labels, cfg)
    second, losses_second = train(model, x, labels, cfg)
    assert losses_first == losses_second
    for (w1, b1), (w2, b2) in zip(first.layers, second.layers):
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(b1, b2)


def test_normality_test_type_one_rate_is_calibrated():
    alpha = 0.05
    trials = 200
    rejections = 0
    for t in range(trials):
        x = np.random.default_rng(20_000 + t).standard_normal((2000, 5))
        rejections += henze_zirkler(x).p_value < alpha
    rate = rejections / trials
    assert 0.5 * alpha <= rate <= 2.0 * alpha


def test_bit_exact_round_trips(tmp_path):
    # the transform is deterministic, inverts to float64 precision, and
    # recovers 8-bit images exactly
    plan = RealDft2dPlan(height=28, width=28)
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(12, 784), dtype=np.uint8)
    x = images / 255.0
    coeffs = dft_forward(plan, x)
    np.testing.assert_array_equal(coeffs, dft_forward(plan, x))
    back = dft_inverse(plan, coeffs)
    np.testing.assert_allclose(back, x, atol=1e-12)
    np.testing.assert_array_equal(np.rint(back * 255.0).astype(np.uint8),
                                  images)

    # IDX datasets round-trip byte for byte
    n, h, w = 12, 7, 5
    pixels = rng.integers(0, 256, size=(n, h, w), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    img_path, lab_path = tmp_path / "img.idx", tmp_path / "lab.idx"
    img_bytes = struct.pack(">4i", 2051, n, h, w) + pixels.tobytes()
    lab_bytes = struct.pack(">2i", 2049, n) + labels.tobytes()
    img_path.write_bytes(img_bytes)
    lab_path.write_bytes(lab_bytes)
    loaded = load_idx(str(img_path), str(lab_path))
    out_img, out_lab = tmp_path / "img2.idx", tmp_path / "lab2.idx"
    save_idx(loaded, str(out_img), str(out_lab))
    assert out_img.read_bytes() == img_bytes
    assert out_lab.read_bytes() == lab_bytes

    # artifact formats round-trip bit exactly and serialize canonically
    cov, _ = make_instance(3)
    comp = compressor_at_size(solve_gib(cov), 4)
    save_compressor(comp, str(tmp_path / "comp"))
    first_blob = (tmp_path / "comp.bin").read_bytes()
    again = load_compressor(str(tmp_path / "comp"))
    np.testing.assert_array_equal(again.matrix_a, comp.matrix_a)
    assert (again.n_z, again.beta) == (comp.n_z, comp.beta)
    save_compressor(again, str(tmp_path / "comp"))
    assert (tmp_path / "comp.bin").read_bytes() == first_blob

    z = np.random.default_rng(4).standard_normal((30, 4))
    y = np.random.default_rng(5).standard_normal((30, 6))
    rx = fit_ls(z, y)
    save_reexpander(rx, str(tmp_path / "rx"))
    rx2 = load_reexpander(str(tmp_path / "rx"))
    np.testing.assert_array_equal(rx2.theta, rx.theta)
    np.testing.assert_array_equal(rx2.target_mean, rx.target_mean)

    model = init_mlp([6, 4, 3], seed=2)
    save_model(model, str(tmp_path / "mlp"), seed=2)
    model2 = load_model(str(tmp_path / "mlp"))
    for (w1, b1), (w2, b2) in zip(model.layers, model2.layers):
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(b1, b2)


# ---------------------------------------------------------------------------
# criteria on the full experiment


@pytest.fixture(scope="session")
def experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("full_run")
    config = config_from_dict({"output_dir": str(out)})
    start = time.monotonic()
    result = run_experiment(config, out_dir=str(out))
    elapsed = time.monotonic() - start
    return result, elapsed


def _by_kind(result, kind):
    return {rec.n_z: rec for rec in result.records if rec.kind == kind}


def _deterministic_accuracy(result, comp):
    """Accuracy of compress, re-expand, classify with noiseless encoding."""
    dom = result.transform
    z_train = dom.x_train @ comp.matrix_a.T
    z_test = dom.x_test @ comp.matrix_a.T
    rx = fit_ls(z_train, dom.pre_train)
    logits = forward_from_layer(dom.model, 1, reexpand(rx, z_test))
    return float(np.mean(logits.argmax(axis=1) == result.test_labels))


def test_full_run_fits_budget_and_baseline_is_strong(experiment):
    result, elapsed = experiment
    assert elapsed < 1800.0
    baseline = baseline_accuracies(result)
    assert baseline["accuracy_transform_domain"] >= 0.95
    assert baseline["accuracy_raw_domain"] >= 0.95
    grid = result.config.n_z_grid
    assert {(r.kind, r.n_z) for r in result.records} == \
        {(k, n) for k in ("oib", "cca", "pca") for n in grid}


def test_compressed_code_entropy_orderings(experiment):
    result, _ = experiment
    oib, cca = _by_kind(result, "oib"), _by_kind(result, "cca")
    grid = result.config.n_z_grid
    h_oib = np.array([oib[n].entropy_nats for n in grid])
    h_cca = np.array([cca[n].entropy_nats for n in grid])
    assert np.all(h_oib <= h_cca + 1e-9)
    assert np.all(np.diff(h_oib) >= -1e-9)
    assert np.all(np.diff(h_cca) >= -1e-9)


def test_oib_accuracy_dominates_pca(experiment):
    # each kind runs through its own base network (OIB the transform
    # domain, PCA the raw domain), so compare the accuracy each one loses
    # to compression, not the absolute accuracies, which would include
    # the gap between the two separately trained networks
    result, _ = experiment
    oib, pca = _by_kind(result, "oib"), _by_kind(result, "pca")
    baseline = baseline_accuracies(result)
    base_oib = baseline["accuracy_transform_domain"]
    base_pca = baseline["accuracy_raw_domain"]
    lost_oib = {n: base_oib - rec.accuracy for n, rec in oib.items()}
    lost_pca = {n: base_pca - rec.accuracy for n, rec in pca.items()}
    deficits = [lost_oib[n] - lost_pca[n]
                for n in result.config.n_z_grid
                if lost_oib[n] > lost_pca[n] + 1e-12]
    assert len(deficits) <= 1, deficits
    assert all(d <= 0.005 for d in deficits), deficits


def test_oib_at_least_cca_at_matched_entropy(experiment):
    result, _ = experiment
    oib = _by_kind(result, "oib")
    sol = solve_gib(result.transform.cov)
    violations = []
    for n_z in result.config.n_z_grid:
        # smallest CCA size whose power-normalized entropy can reach the
        # OIB code's entropy
        m = int(np.ceil(2.0 * oib[n_z].entropy_nats / LOG_2PIE))
        m = max(1, min(m, sol.eigen.dim))
        acc_oib = _deterministic_accuracy(result,
                                          result.compressors[("oib", n_z)])
        acc_cca = _deterministic_accuracy(result, cca_compressor(sol, m))
        if acc_oib < acc_cca - 1e-12:
            violations.append((n_z, m, acc_oib, acc_cca))
    assert len(violations) <= 1, violations


def test_head_retraining_helps_at_every_size(experiment):
    result, _ = experiment
    records = result.retrain_records
    assert len(records) == len(result.config.n_z_grid)
    avg_violations = [r.n_z for r in records
                      if r.accuracy_average
                      < r.accuracy_non_retrained - 1e-12]
    rho_violations = [r.n_z for r in records
                      if r.accuracy_per_rho < r.accuracy_average - 1e-12]
    assert len(avg_violations) <= 1, avg_violations
    assert len(rho_violations) <= 1, rho_violations


def test_oib_and_cca_reconstructions_coincide(experiment):
    result, _ = experiment
    dom = result.transform
    worst = 0.0
    for n_z in result.config.n_z_grid:
        recs = []
        for kind in ("oib", "cca"):
            comp = result.compressors[(kind, n_z)]
            rx = fit_ls(dom.x_train @ comp.matrix_a.T, dom.pre_train,
                        ridge=0.0)
            recs.append(reexpand(rx, dom.x_test @ comp.matrix_a.T))
        worst = max(worst, float(np.max(np.abs(recs[0] - recs[1]))))
    assert worst < 1e-8


def test_transform_domain_scores_more_gaussian(experiment):
    result, _ = experiment
    records = result.hz_records
    assert len(records) == 20
    wins = sum(r.p_transform > r.p_raw for r in records)
    assert wins >= 16, [(r.index, r.p_raw, r.p_transform) for r in records]
