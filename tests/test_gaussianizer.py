"""Real-packed orthonormal 2D-DFT and Henze-Zirkler normality test."""

import os
import subprocess
import sys

import numpy as np
import pytest

import oib
from oib.errors import DimensionError, NumericalError
from oib.gaussianizer import RealDft2dPlan, forward, henze_zirkler, inverse


def hz_reference(x):
    """Textbook Henze-Zirkler statistic with explicit double loops."""
    n, d = x.shape
    xc = x - x.mean(axis=0)
    s = xc.T @ xc / n
    si = np.linalg.inv(s)
    b = ((n * (2.0 * d + 1.0) / 4.0) ** (1.0 / (d + 4.0))) / np.sqrt(2.0)
    t1 = 0.0
    for i in range(n):
        for j in range(n):
            diff = xc[i] - xc[j]
            t1 += np.exp(-b * b / 2.0 * diff @ si @ diff)
    t1 /= n * n
    t2 = 0.0
    for i in range(n):
        t2 += np.exp(-b * b / (2.0 * (1.0 + b * b)) * xc[i] @ si @ xc[i])
    t2 *= 2.0 * (1.0 + b * b) ** (-d / 2.0) / n
    t3 = (1.0 + 2.0 * b * b) ** (-d / 2.0)
    return n * (t1 - t2 + t3)


SHAPES = ((28, 28), (27, 28), (7, 5), (5, 3), (1, 8))


def forward_reference(plan, x):
    """The packing as first written: the full complex spectrum, three
    gathers of it and a concatenation."""
    n = len(x)
    f = np.fft.fft2(x.reshape(n, plan.height, plan.width),
                     norm="ortho").reshape(n, plan.n_features)
    return np.concatenate([f[:, plan.real_slots].real,
                           np.sqrt(2.0) * f[:, plan.pair_repr].real,
                           np.sqrt(2.0) * f[:, plan.pair_repr].imag], axis=1)


def test_plan_packing_covers_every_pixel():
    for h, w in ((28, 28), (27, 28), (4, 4), (5, 3), (1, 8)):
        plan = RealDft2dPlan(height=h, width=w)
        assert plan.n_features == h * w
        assert plan.real_slots.size + 2 * plan.pair_repr.size == h * w
        # representative and conjugate index sets are disjoint
        overlap = np.intersect1d(plan.pair_repr, plan.pair_conj)
        assert overlap.size == 0


def test_plan_rejects_degenerate_shapes():
    with pytest.raises(DimensionError):
        RealDft2dPlan(height=0, width=4)


def test_forward_inverse_round_trip_float64():
    plan = RealDft2dPlan(height=28, width=28)
    rng = np.random.default_rng(0)
    x = rng.random((32, 784))
    back = inverse(plan, forward(plan, x))
    np.testing.assert_allclose(back, x, atol=1e-12)


def test_round_trip_is_exact_on_8bit_images():
    # pipeline images are uint8/255; the transform round-trips them
    # bit-exactly at that representation
    plan = RealDft2dPlan(height=28, width=28)
    rng = np.random.default_rng(1)
    raw = rng.integers(0, 256, size=(16, 784), dtype=np.uint8)
    x = raw / 255.0
    back = inverse(plan, forward(plan, x))
    assert np.array_equal(np.rint(back * 255.0).astype(np.uint8), raw)


def test_forward_is_deterministic_and_orthonormal():
    plan = RealDft2dPlan(height=28, width=28)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 784))
    c1, c2 = forward(plan, x), forward(plan, x)
    assert np.array_equal(c1, c2)
    # Parseval: the packing preserves squared norms exactly
    np.testing.assert_allclose(np.sum(c1 ** 2, axis=1),
                               np.sum(x ** 2, axis=1), rtol=1e-12)


@pytest.mark.parametrize("h, w", SHAPES)
def test_forward_matches_the_full_spectrum_packing(h, w):
    plan = RealDft2dPlan(height=h, width=w)
    rng = np.random.default_rng(8)
    x = rng.random((64, h * w))
    np.testing.assert_allclose(forward(plan, x), forward_reference(plan, x),
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("h, w", SHAPES)
def test_forward_rows_do_not_depend_on_the_batch(h, w):
    # served batches of 128 rows and single rows must reproduce the rows
    # of one call on the whole set bit for bit
    plan = RealDft2dPlan(height=h, width=w)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((515, h * w))
    full = forward(plan, x)
    for j in range(len(x)):
        assert np.array_equal(forward(plan, x[j]), full[j])
    for s in range(0, len(x), 128):
        assert np.array_equal(forward(plan, x[s:s + 128]), full[s:s + 128])


def test_forward_leaves_its_input_and_returns_a_fresh_array():
    plan = RealDft2dPlan(height=28, width=28)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((5, 784))
    before = x.copy()
    out = forward(plan, x)
    assert np.array_equal(x, before)
    assert out.dtype == np.float64 and out.shape == (5, 784)
    assert out.flags.owndata and out.flags.c_contiguous
    assert not np.shares_memory(out, x)


def test_forward_is_linear():
    plan = RealDft2dPlan(height=7, width=5)
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 35))
    np.testing.assert_allclose(forward(plan, 2.0 * a - 3.0 * b),
                               2.0 * forward(plan, a) - 3.0 * forward(plan, b),
                               atol=1e-12)


def test_constant_image_concentrates_in_dc():
    c = 0.375
    plan = RealDft2dPlan(height=4, width=4)
    coeffs = forward(plan, np.full(16, c))
    assert coeffs[0] == pytest.approx(4.0 * c, rel=1e-14)
    np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-12)


def test_single_vector_and_batch_agree():
    plan = RealDft2dPlan(height=6, width=6)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(36)
    single = forward(plan, x)
    batched = forward(plan, x[None, :])
    assert single.shape == (36,)
    np.testing.assert_array_equal(batched[0], single)
    np.testing.assert_allclose(inverse(plan, single), x, atol=1e-12)


def test_forward_rejects_wrong_length():
    plan = RealDft2dPlan(height=4, width=4)
    with pytest.raises(DimensionError):
        forward(plan, np.zeros(17))


def test_hz_statistic_matches_double_loop_reference():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((60, 3))
    res = henze_zirkler(x)
    assert res.statistic == pytest.approx(hz_reference(x), abs=1e-10)


def test_hz_accepts_gaussian_and_rejects_lognormal():
    rng = np.random.default_rng(5)
    gauss = rng.standard_normal((800, 4))
    res_g = henze_zirkler(gauss)
    assert res_g.normal
    assert res_g.p_value > 0.05
    skewed = np.exp(rng.standard_normal((800, 4)))
    res_s = henze_zirkler(skewed)
    assert not res_s.normal
    assert res_s.p_value < 1e-6


def hz_p_reference(n, d, hz):
    """The log-normal p-value of ``hz`` through scipy.stats.lognorm."""
    from scipy.stats import lognorm
    b = ((n * (2.0 * d + 1.0) / 4.0) ** (1.0 / (d + 4.0))) / np.sqrt(2.0)
    b2 = b * b
    a = 1.0 + 2.0 * b2
    wb = (1.0 + b2) * (1.0 + 3.0 * b2)
    mu = 1.0 - a ** (-d / 2.0) * (1.0 + d * b2 / a
                                  + d * (d + 2.0) * b2 ** 2 / (2.0 * a * a))
    si2 = (2.0 * (1.0 + 4.0 * b2) ** (-d / 2.0)
           + 2.0 * a ** (-d) * (1.0 + 2.0 * d * b2 ** 2 / a ** 2
                                + 3.0 * d * (d + 2.0) * b2 ** 4 / (4.0 * a ** 4))
           - 4.0 * wb ** (-d / 2.0) * (1.0 + 3.0 * d * b2 ** 2 / (2.0 * wb)
                                       + d * (d + 2.0) * b2 ** 4 / (2.0 * wb ** 2)))
    pmu = np.log(np.sqrt(mu ** 4 / (si2 + mu * mu)))
    psi = np.sqrt(np.log1p(si2 / (mu * mu)))
    return float(lognorm.sf(hz, psi, scale=np.exp(pmu)))


@pytest.mark.parametrize("n, d", [(11, 10), (40, 2), (200, 10), (500, 3),
                                  (2000, 10)])
def test_hz_p_value_is_bitwise_scipys_lognormal(n, d):
    rng = np.random.default_rng(n + d)
    for sample in (rng.standard_normal((n, d)),
                   np.exp(rng.standard_normal((n, d))),
                   rng.random((n, d)) ** 3):
        res = henze_zirkler(sample)
        assert res.p_value == hz_p_reference(n, d, res.statistic)


def test_import_oib_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(oib.__file__))
    code = "import sys, oib; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          check=True)
    assert proc.stdout.strip() == "False"


def test_hz_is_affine_invariant():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((300, 3))
    t = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    shifted = x @ t.T + np.array([5.0, -2.0, 0.5])
    a, b = henze_zirkler(x), henze_zirkler(shifted)
    assert a.statistic == pytest.approx(b.statistic, rel=1e-8)


def test_hz_type_one_error_rate_is_calibrated():
    level, trials = 0.05, 200
    rejections = 0
    for t in range(trials):
        sample = np.random.default_rng(10_000 + t).standard_normal((500, 3))
        rejections += henze_zirkler(sample).p_value < level
    rate = rejections / trials
    assert 0.5 * level <= rate <= 2.0 * level


def test_hz_requires_more_samples_than_dimensions():
    with pytest.raises(DimensionError, match="project"):
        henze_zirkler(np.ones((3, 5)))


def test_hz_singular_covariance_raises():
    rng = np.random.default_rng(7)
    col = rng.standard_normal((50, 1))
    dup = np.hstack([col, col])
    with pytest.raises(NumericalError, match="singular"):
        henze_zirkler(dup)
