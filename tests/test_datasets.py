"""IDX ingestion, stratified subsets, glyph corpus, synthetic Gaussians."""

import struct

import numpy as np
import pytest
from scipy import ndimage

from oib.errors import (DimensionError, IdxCountMismatchError, IdxMagicError,
                        IdxTruncatedError)
from oib.tensor_stats import DataMatrix, sample_covariance, gib_eigensystem
from oib.datasets import (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC,
                          LabeledImageSet, STYLES, SyntheticGaussianSpec,
                          _blur_planes, glyph_array, load_idx, save_idx,
                          subset, synth_gaussian, synthetic_digits)


def write_idx_fixture(tmp_path, n=12, height=5, width=4, seed=0):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, height * width), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">4i", IDX_IMAGES_MAGIC, n, height, width))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">2i", IDX_LABELS_MAGIC, n))
        fh.write(labels.tobytes())
    return images_path, labels_path, pixels, labels


def test_load_idx_scales_pixels(tmp_path):
    images_path, labels_path, pixels, labels = write_idx_fixture(tmp_path)
    loaded = load_idx(images_path, labels_path)
    assert loaded.n_samples == 12
    assert (loaded.height, loaded.width) == (5, 4)
    np.testing.assert_array_equal(loaded.images.values, pixels / 255.0)
    np.testing.assert_array_equal(loaded.labels, labels)
    assert loaded.labels.dtype == np.int64


def test_idx_round_trip_is_bit_exact(tmp_path):
    images_path, labels_path, _, _ = write_idx_fixture(tmp_path)
    loaded = load_idx(images_path, labels_path)
    out_images = tmp_path / "copy_images.idx"
    out_labels = tmp_path / "copy_labels.idx"
    save_idx(loaded, out_images, out_labels)
    assert out_images.read_bytes() == images_path.read_bytes()
    assert out_labels.read_bytes() == labels_path.read_bytes()
    # and the reloaded values are identical floats
    again = load_idx(out_images, out_labels)
    np.testing.assert_array_equal(again.images.values, loaded.images.values)
    np.testing.assert_array_equal(again.labels, loaded.labels)


def test_idx_error_classes_are_distinct(tmp_path):
    images_path, labels_path, _, _ = write_idx_fixture(tmp_path)

    bad_magic = tmp_path / "bad_magic.idx"
    raw = bytearray(images_path.read_bytes())
    raw[:4] = struct.pack(">i", 0x00000804)
    bad_magic.write_bytes(bytes(raw))
    with pytest.raises(IdxMagicError, match="magic"):
        load_idx(bad_magic, labels_path)

    short_header = tmp_path / "short_header.idx"
    short_header.write_bytes(images_path.read_bytes()[:9])
    with pytest.raises(IdxTruncatedError, match="header"):
        load_idx(short_header, labels_path)

    short_body = tmp_path / "short_body.idx"
    short_body.write_bytes(images_path.read_bytes()[:-7])
    with pytest.raises(IdxTruncatedError, match="pixel bytes"):
        load_idx(short_body, labels_path)

    fewer_labels = tmp_path / "fewer_labels.idx"
    with open(fewer_labels, "wb") as fh:
        fh.write(struct.pack(">2i", IDX_LABELS_MAGIC, 11))
        fh.write(bytes(11))
    with pytest.raises(IdxCountMismatchError):
        load_idx(images_path, fewer_labels)


def test_labeled_image_set_validation():
    images = DataMatrix(np.zeros((4, 6)))
    with pytest.raises(IdxCountMismatchError):
        LabeledImageSet(images=images, labels=np.zeros(3, dtype=int),
                        height=2, width=3)
    with pytest.raises(DimensionError):
        LabeledImageSet(images=images, labels=np.zeros(4, dtype=int),
                        height=2, width=4)
    with pytest.raises(ValueError):
        LabeledImageSet(images=images, labels=np.zeros(4), height=2, width=3)
    with pytest.raises(ValueError):
        LabeledImageSet(images=images, labels=np.array([-1, 0, 1, 2]),
                        height=2, width=3)
    ok = LabeledImageSet(images=images, labels=np.array([0, 1, 2, 2]),
                         height=2, width=3)
    assert ok.labels.max() + 1 == 3


def test_subset_is_stratified_within_one_sample():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 10, size=1000)
    images = DataMatrix(rng.random((1000, 9)))
    full = LabeledImageSet(images=images, labels=labels, height=3, width=3)
    small = subset(full, 100, seed=5)
    assert small.n_samples == 100
    for cls in range(10):
        share = np.sum(labels == cls) * 100 / 1000
        got = np.sum(small.labels == cls)
        assert abs(got - share) < 1.0
    # deterministic and order-preserving
    again = subset(full, 100, seed=5)
    np.testing.assert_array_equal(again.images.values, small.images.values)
    other = subset(full, 100, seed=6)
    assert not np.array_equal(other.images.values, small.images.values)
    identity = subset(full, 1000, seed=5)
    np.testing.assert_array_equal(identity.images.values, images.values)
    with pytest.raises(ValueError):
        subset(full, 1001, seed=5)


def test_glyph_corpus_shapes_and_determinism():
    for style in range(len(STYLES)):
        for digit in range(10):
            g = glyph_array(style, digit)
            assert g.shape == (7, 5)
            assert set(np.unique(g)) <= {0.0, 1.0}
    a = synthetic_digits(40, seed=3)
    b = synthetic_digits(40, seed=3)
    np.testing.assert_array_equal(a.images.values, b.images.values)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = synthetic_digits(40, seed=4)
    assert not np.array_equal(c.images.values, a.images.values)
    assert a.images.values.shape == (40, 784)
    assert a.images.values.min() >= 0.0
    assert a.images.values.max() <= 1.0
    assert a.labels.max() < 10
    assert np.unique(a.labels).size >= 5


def test_synthetic_digits_are_classifiable_structure():
    # same digit twice shares more structure than different digits on
    # average: per-class mean images must differ clearly from each other
    data = synthetic_digits(300, seed=9)
    means = np.stack([data.images.values[data.labels == d].mean(axis=0)
                      for d in range(10)])
    dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
    off_diag = dists[~np.eye(10, dtype=bool)]
    assert off_diag.min() > 0.5


def _oracle_render_digit(digit, rng, size=28, noise=0.052):
    """The per-image renderer as first written: four separate noise draws
    and filters, and fresh coordinate grids for every image.  Kept as the
    reference for the random-draw order and the arithmetic of
    ``render_digit``."""
    g = glyph_array(rng.integers(0, len(STYLES)), digit)
    gh, gw = g.shape
    height = rng.uniform(20.0, 24.5)
    width = height * rng.uniform(0.55, 0.80)
    sy, sx = height / gh, width / gw
    theta = rng.uniform(-0.14, 0.14)
    shear = rng.uniform(-0.12, 0.12)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    sh = np.array([[1.0, shear], [0.0, 1.0]])
    a = rot @ sh @ np.diag([sy, sx])
    a_inv = np.linalg.inv(a)
    c_in = np.array([(gh - 1) / 2.0, (gw - 1) / 2.0])
    c_out = np.array([(size - 1) / 2.0, (size - 1) / 2.0]) + \
        rng.uniform(-2.0, 2.0, size=2)
    offset = c_in - a_inv @ c_out
    img = ndimage.affine_transform(g, a_inv, offset=offset,
                                   output_shape=(size, size), order=1,
                                   mode="constant", cval=0.0)
    alpha = rng.uniform(3.0, 8.0)
    fine = rng.uniform(1.2, 3.5)
    fields = [ndimage.gaussian_filter(rng.uniform(-1, 1, (size, size)),
                                      3.0) * alpha
              + ndimage.gaussian_filter(rng.uniform(-1, 1, (size, size)),
                                        1.6) * fine
              for _ in range(2)]
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    img = ndimage.map_coordinates(img, [ii + fields[0], jj + fields[1]],
                                  order=1, mode="constant")
    if rng.uniform() < 0.35:
        img = ndimage.grey_dilation(img, size=(2, 2))
    img = ndimage.gaussian_filter(img, rng.uniform(0.4, 1.0))
    peak = img.max()
    if peak > 1e-6:
        img *= rng.uniform(0.9, 1.15) / peak
    ramp_th = rng.uniform(0, 2 * np.pi)
    ii2, jj2 = np.meshgrid(np.linspace(-0.5, 0.5, size),
                           np.linspace(-0.5, 0.5, size), indexing="ij")
    img *= 1.0 + rng.uniform(-0.45, 0.45) * (np.cos(ramp_th) * ii2 +
                                             np.sin(ramp_th) * jj2)
    img *= rng.uniform(0.85, 1.0)
    yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size),
                         indexing="ij")
    bg = np.zeros((size, size))
    for _ in range(4):
        fy, fx = rng.uniform(0.5, 2.5, size=2)
        ph_y, ph_x = rng.uniform(0, 2 * np.pi, size=2)
        bg += rng.uniform(0.0, 0.11) * np.cos(2 * np.pi * fy * yy + ph_y) \
            * np.cos(2 * np.pi * fx * xx + ph_x)
    img = np.maximum(img, 0.0) + bg - bg.min()
    img += rng.normal(0.0, noise, img.shape)
    return np.clip(img, 0.0, 1.0)


@pytest.mark.parametrize("n, seed, size", [(300, 1, 28), (300, 2, 28),
                                           (120, 5, 20)])
def test_synthetic_digits_match_the_reference_renderer(n, seed, size):
    # byte-equal to the reference, so the corpus is a constant of the code;
    # the size-20 case also covers the per-size coordinate grids
    got = synthetic_digits(n, seed, size=size)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n)
    want = np.stack([_oracle_render_digit(int(d), rng, size).ravel()
                     for d in labels])
    np.testing.assert_array_equal(got.labels, labels)
    assert got.images.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("sigma", [3.0, 1.6, 0.7])
@pytest.mark.parametrize("size", [28, 20, 5])
def test_blur_planes_match_gaussian_filter(sigma, size):
    # the renderer's displacement blur is byte-equal to ndimage's own
    # filter, on the non-contiguous plane views it is given; size 5 is
    # narrower than the kernels, so the reflection wraps more than once
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = rng.uniform(-1, 1, (2, 2, size, size))
        want = ndimage.gaussian_filter(u[:, 0], (0, sigma, sigma))
        got = _blur_planes(u[:, 0], sigma)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_synth_gaussian_ground_truth():
    spec = SyntheticGaussianSpec(n_x=6, n_y=6, n_samples=40_000, seed=11)
    x, y, true_cov, mi_curve = synth_gaussian(spec)
    assert x.values.shape == (40_000, 6)
    assert y.values.shape == (40_000, 6)
    rho = spec.canonical_correlations
    assert np.all(np.diff(rho) <= 0)

    # generalized eigenvalues of the analytic pair are exactly 1 - rho^2
    res = gib_eigensystem(true_cov)
    np.testing.assert_allclose(res.eigenvalues,
                               np.sort(1.0 - rho ** 2), rtol=1e-9)
    # the mutual information curve is -1/2 cumsum log of those eigenvalues
    np.testing.assert_allclose(
        mi_curve, -0.5 * np.cumsum(np.log(np.sort(1.0 - rho ** 2))),
        rtol=1e-12)
    assert np.all(np.diff(mi_curve) > 0)

    # the sample covariance converges to the analytic one
    emp = sample_covariance(x.values)
    rel = np.linalg.norm(emp - true_cov.sigma_x) / np.linalg.norm(
        true_cov.sigma_x)
    assert rel < 0.05


def test_synth_gaussian_respects_given_correlations():
    rho = np.array([0.9, 0.5, 0.3])
    spec = SyntheticGaussianSpec(n_x=3, n_y=4, n_samples=10, seed=0,
                                 canonical_correlations=rho)
    _, _, true_cov, mi_curve = synth_gaussian(spec)
    res = gib_eigensystem(true_cov)
    np.testing.assert_allclose(res.eigenvalues, np.sort(1.0 - rho ** 2),
                               rtol=1e-9)
    assert mi_curve.shape == (3,)


def test_synthetic_gaussian_spec_validation():
    with pytest.raises(ValueError):
        SyntheticGaussianSpec(n_x=0, n_y=2, n_samples=5)
    with pytest.raises(ValueError):
        SyntheticGaussianSpec(n_x=6, n_y=0, n_samples=5)
    with pytest.raises(ValueError):
        SyntheticGaussianSpec(n_x=3, n_y=2, n_samples=5,
                              canonical_correlations=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        SyntheticGaussianSpec(n_x=3, n_y=2, n_samples=5,
                              canonical_correlations=np.array([0.5]))
    spec = SyntheticGaussianSpec(n_x=3, n_y=2, n_samples=5, seed=1)
    assert spec.canonical_correlations.shape == (2,)
    assert np.all(spec.canonical_correlations >= 0.2)
    assert np.all(spec.canonical_correlations <= 0.9)
