"""Dataset ingestion and synthetic data generation.

Three sources feed the experiments:

* IDX-format image files (the layout MNIST ships in): big-endian magic and
  dimensions, uint8 pixels scaled to [0, 1] on load.  A writer exists so
  fixtures round-trip bit-exactly.
* A procedural digit corpus: 5x7 glyphs in three type styles, rendered at
  28x28 through random affine warps, elastic distortion, blur, lighting
  ramps, low-frequency clutter, and pixel noise.  It is fully seeded, so
  train and test sets are reproducible constants of the code.
* Jointly Gaussian (x, y) pairs with known canonical correlations, used as
  ground-truth oracles: the generalized eigenvalues of the conditional
  pencil equal 1 - rho_i^2 exactly, and the mutual information curve has a
  closed form.
"""

import functools
import struct
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import (ConfigError, DimensionError, IdxCountMismatchError,
                     IdxMagicError, IdxTruncatedError)
from .tensor_stats import DataMatrix, covariance_pair

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class LabeledImageSet:
    """Flattened images in [0, 1] with integer class labels."""

    images: DataMatrix
    labels: np.ndarray
    height: int
    width: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError("labels must be integers")
        if self.labels.min(initial=0) < 0:
            raise ValueError("labels must be non-negative")
        if len(self.labels) != self.images.n_samples:
            raise IdxCountMismatchError(
                "%d images but %d labels" % (self.images.n_samples,
                                             len(self.labels)))
        n_x = self.height * self.width
        if self.images.n_features != n_x:
            raise DimensionError("images have %d features, expected "
                                 "%dx%d = %d"
                                 % (self.images.n_features, self.height,
                                    self.width, n_x))

    @property
    def n_samples(self):
        return self.images.n_samples


def _read_idx(path, expected_magic, n_dims):
    """The header dimensions and body of an IDX file; a file that cannot
    be opened or read raises ConfigError naming it."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read IDX file %s: %s"
                          % (path, exc.strerror))
    header = 4 * (1 + n_dims)
    if len(raw) < header:
        raise IdxTruncatedError("%s: %d bytes is too short for an IDX "
                                "header" % (path, len(raw)))
    fields = struct.unpack(">%di" % (1 + n_dims), raw[:header])
    if fields[0] != expected_magic:
        raise IdxMagicError("%s: magic 0x%08x, expected 0x%08x"
                            % (path, fields[0], expected_magic))
    return fields[1:], raw[header:]


def load_idx(images_path, labels_path):
    """Load an IDX image/label file pair, scaling pixels to [0, 1]."""
    (n, height, width), body = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    if len(body) != n * height * width:
        raise IdxTruncatedError("%s: %d pixel bytes, expected %d"
                                % (images_path, len(body),
                                   n * height * width))
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(n, height * width)

    (n_labels,), body = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if len(body) != n_labels:
        raise IdxTruncatedError("%s: %d label bytes, expected %d"
                                % (labels_path, len(body), n_labels))
    if n_labels != n:
        raise IdxCountMismatchError("%d images in %s but %d labels in %s"
                                    % (n, images_path, n_labels,
                                       labels_path))
    labels = np.frombuffer(body, dtype=np.uint8).astype(np.int64)
    images = DataMatrix(pixels.astype(np.float64) / 255.0)
    return LabeledImageSet(images=images, labels=labels, height=height,
                           width=width)


def save_idx(image_set, images_path, labels_path):
    """Write a LabeledImageSet as an IDX pair (pixels quantized to uint8)."""
    n = image_set.n_samples
    pixels = np.clip(np.rint(image_set.images.values * 255.0), 0,
                     255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">4i", IDX_IMAGES_MAGIC, n, image_set.height,
                             image_set.width))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">2i", IDX_LABELS_MAGIC, n))
        fh.write(image_set.labels.astype(np.uint8).tobytes())


def subset(image_set, n, seed):
    """Seeded class-stratified subsample, preserving original order.

    Per-class quotas follow the largest-remainder rule on the class
    frequencies, so every class lands within one sample of its
    proportional share.
    """
    total = image_set.n_samples
    if n > total:
        raise ValueError("requested %d samples from a set of %d" % (n,
                                                                    total))
    rng = np.random.default_rng(seed)
    classes, counts = np.unique(image_set.labels, return_counts=True)
    exact = counts * (n / total)
    quotas = np.floor(exact).astype(int)
    remainder = n - quotas.sum()
    if remainder:
        order = np.argsort(-(exact - quotas))
        quotas[order[:remainder]] += 1
    chosen = []
    for cls, quota in zip(classes, quotas):
        idx = np.flatnonzero(image_set.labels == cls)
        chosen.append(rng.permutation(idx)[:quota])
    keep = np.sort(np.concatenate(chosen))
    return LabeledImageSet(images=DataMatrix(image_set.images.values[keep]),
                           labels=image_set.labels[keep],
                           height=image_set.height, width=image_set.width)


@dataclass
class SyntheticGaussianSpec:
    """Recipe for a jointly Gaussian (x, y) set with known structure."""

    n_x: int
    n_y: int
    n_samples: int
    seed: int = 0
    canonical_correlations: np.ndarray = None

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1 or self.n_samples < 1:
            raise ValueError("n_x, n_y and n_samples must be positive")
        m = min(self.n_x, self.n_y)
        if self.canonical_correlations is None:
            rho = np.sort(np.random.default_rng(self.seed)
                          .uniform(0.2, 0.9, size=m))[::-1]
            self.canonical_correlations = rho
        else:
            rho = np.asarray(self.canonical_correlations, dtype=np.float64)
            if rho.shape != (m,) or np.any(rho < 0) or np.any(rho >= 1):
                raise ValueError("need min(n_x, n_y) = %d correlations in "
                                 "[0, 1)" % m)
            self.canonical_correlations = rho


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def synth_gaussian(spec):
    """Sample the spec and return analytic ground truth alongside.

    Returns (x, y, true_cov, true_mi_curve): the exact covariance pair of
    x and y (sigma_xy = mix_x R q_y^T with R[i, i] = rho_i, and
    sigma_y = I), and true_mi_curve[k] = the
    mutual information I(z; y) of the optimal k-dimensional linear
    encoding, -1/2 * sum of log of the k smallest generalized eigenvalues.
    """
    rng = np.random.default_rng(spec.seed)
    m = len(spec.canonical_correlations)
    rho = spec.canonical_correlations

    q_x = _random_orthogonal(rng, spec.n_x)
    scale = np.exp(rng.uniform(-0.5, 0.5, size=spec.n_x))
    mix_x = scale[:, None] * q_x
    q_y = _random_orthogonal(rng, spec.n_y)

    x0 = rng.standard_normal((spec.n_samples, spec.n_x))
    noise = rng.standard_normal((spec.n_samples, spec.n_y))
    y0 = noise.copy()
    y0[:, :m] = rho * x0[:, :m] + np.sqrt(1.0 - rho ** 2) * noise[:, :m]
    x = x0 @ mix_x.T
    y = y0 @ q_y.T

    sigma_x = mix_x @ mix_x.T
    true_cov = covariance_pair(0.5 * (sigma_x + sigma_x.T),
                               (mix_x[:, :m] * rho) @ q_y[:, :m].T,
                               np.eye(spec.n_y))

    residual = np.ones(spec.n_x)
    residual[:m] = 1.0 - rho ** 2
    eigenvalues = np.sort(residual)
    true_mi_curve = -0.5 * np.cumsum(np.log(eigenvalues))
    return (DataMatrix(x), DataMatrix(y), true_cov, true_mi_curve)


# Procedural digit corpus: three 5x7 glyph styles per digit.
STYLES = [
    {   # boxy
        0: ".###.|#...#|#..##|#.#.#|##..#|#...#|.###.",
        1: "..#..|.##..|..#..|..#..|..#..|..#..|.###.",
        2: ".###.|#...#|....#|...#.|..#..|.#...|#####",
        3: "#####|...#.|..#..|...#.|....#|#...#|.###.",
        4: "...#.|..##.|.#.#.|#..#.|#####|...#.|...#.",
        5: "#####|#....|####.|....#|....#|#...#|.###.",
        6: "..##.|.#...|#....|####.|#...#|#...#|.###.",
        7: "#####|....#|...#.|..#..|.#...|.#...|.#...",
        8: ".###.|#...#|#...#|.###.|#...#|#...#|.###.",
        9: ".###.|#...#|#...#|.####|....#|...#.|.##..",
    },
    {   # rounded strokes
        0: ".###.|#...#|#...#|#...#|#...#|#...#|.###.",
        1: "...#.|..##.|.#.#.|...#.|...#.|...#.|...#.",
        2: ".###.|#...#|....#|..##.|.#...|#....|#####",
        3: ".###.|#...#|....#|..##.|....#|#...#|.###.",
        4: "#...#|#...#|#...#|#####|....#|....#|....#",
        5: "#####|#....|#....|####.|....#|....#|####.",
        6: ".###.|#....|#....|####.|#...#|#...#|.###.",
        7: "#####|....#|...#.|...#.|..#..|..#..|..#..",
        8: ".###.|#...#|.#.#.|..#..|.#.#.|#...#|.###.",
        9: ".###.|#...#|#...#|.####|....#|...#.|..#..",
    },
    {   # slab
        0: "#####|#...#|#...#|#...#|#...#|#...#|#####",
        1: "..#..|..#..|..#..|..#..|..#..|..#..|..#..",
        2: "#####|....#|....#|#####|#....|#....|#####",
        3: "#####|....#|....#|.####|....#|....#|#####",
        4: "#..#.|#..#.|#..#.|#####|...#.|...#.|...#.",
        5: "#####|#....|#####|....#|....#|#...#|#####",
        6: "#####|#....|#####|#...#|#...#|#...#|#####",
        7: "#####|....#|...#.|..#..|..#..|.#...|.#...",
        8: "#####|#...#|#####|#...#|#...#|#...#|#####",
        9: "#####|#...#|#####|....#|....#|....#|#####",
    },
]


def glyph_array(style, digit):
    rows = STYLES[style][digit].split("|")
    return np.array([[1.0 if ch == "#" else 0.0 for ch in row]
                     for row in rows])


def _read_only(a):
    a.flags.writeable = False
    return a


# Classes of the rendered corpus, one per glyph.
DIGIT_CLASSES = 10
_GLYPHS = [[_read_only(glyph_array(style, digit))
            for digit in range(DIGIT_CLASSES)]
           for style in range(len(STYLES))]


# Standard deviation of the rendered digits' pixel noise; part of the data
# contract, like the draw order of ``render_digit``.
PIXEL_NOISE = 0.052


@functools.lru_cache(maxsize=8)
def _render_grids(size):
    """Pixel index grid (2, size, size) and the ramp and clutter axes."""
    grid = np.stack(np.meshgrid(np.arange(size), np.arange(size),
                                indexing="ij"))
    return (_read_only(grid), _read_only(np.linspace(-0.5, 0.5, size)),
            _read_only(np.linspace(0, 1, size)))


@functools.lru_cache(maxsize=4)
def _gaussian_kernel(sigma):
    """``ndimage.gaussian_filter``'s kernel for ``sigma``: weights
    exp(-x^2 / 2 sigma^2) over |x| <= int(4 sigma + 0.5), normalized."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    return _read_only(weights / weights.sum())


def _blur_planes(u, sigma):
    """``ndimage.gaussian_filter(u, (0, sigma, sigma))`` of a (k, n, n)
    stack, byte-equal to it: the same two reflecting 1-D passes with a
    kernel built once per sigma.  ``render_digit`` blurs only through
    this: its displacement fields and, as a one-plane stack, the image."""
    w = _gaussian_kernel(sigma)
    out = ndimage.correlate1d(u, w, axis=1, mode="reflect")
    return ndimage.correlate1d(out, w, axis=2, output=out, mode="reflect")


def render_digit(digit, rng, size=28):
    """One randomized digit image; consumes the shared generator stream.

    The order and shape of the draws from ``rng`` are part of the data
    contract: every image of a ``synthetic_digits`` set, and every image
    after it, depends on them.  The draws are, in order: style, glyph
    height, aspect, rotation, shear, a 2-vector centre offset, the coarse
    and fine displacement amplitudes, four (size, size) displacement-noise
    fields (coarse y, fine y, coarse x, fine x), the dilation coin, the
    blur width, the peak gain (only when the image is not blank), the ramp
    angle and slope, the contrast, four clutter waves (a 2-vector of
    frequencies, a 2-vector of phases and an amplitude each) and a
    (size, size) pixel-noise field.  Reordering, merging or splitting them
    changes the corpus.  Every blur goes through ``_blur_planes``.
    """
    g = _GLYPHS[rng.integers(0, len(STYLES))][digit]
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
    # u[k, 0] is axis k's coarse field and u[k, 1] its fine one, in the
    # order of four separate (size, size) draws; each axis's plane is
    # blurred on its own.
    u = rng.uniform(-1, 1, (2, 2, size, size))
    fields = _blur_planes(u[:, 0], 3.0) * alpha \
        + _blur_planes(u[:, 1], 1.6) * fine
    grid, ramp, clutter = _render_grids(size)
    img = ndimage.map_coordinates(img, grid + fields, order=1,
                                  mode="constant")
    if rng.uniform() < 0.35:
        img = ndimage.grey_dilation(img, size=(2, 2))
    img = _blur_planes(img[None], rng.uniform(0.4, 1.0))[0]
    peak = img.max()
    if peak > 1e-6:
        img *= rng.uniform(0.9, 1.15) / peak
    ramp_th = rng.uniform(0, 2 * np.pi)
    img *= 1.0 + rng.uniform(-0.45, 0.45) * (
        np.cos(ramp_th) * ramp[:, None] + np.sin(ramp_th) * ramp[None, :])
    img *= rng.uniform(0.85, 1.0)
    bg = np.zeros((size, size))
    for _ in range(4):
        fy, fx = rng.uniform(0.5, 2.5, size=2)
        ph_y, ph_x = rng.uniform(0, 2 * np.pi, size=2)
        bg += rng.uniform(0.0, 0.11) \
            * np.cos(2 * np.pi * fy * clutter + ph_y)[:, None] \
            * np.cos(2 * np.pi * fx * clutter + ph_x)[None, :]
    img = np.maximum(img, 0.0) + bg - bg.min()
    img += rng.normal(0.0, PIXEL_NOISE, img.shape)
    return np.clip(img, 0.0, 1.0)


def synthetic_digits(n, seed, size=28):
    """A seeded LabeledImageSet of procedurally rendered digits."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, DIGIT_CLASSES, size=n)
    x = np.empty((n, size * size))
    for i, digit in enumerate(labels):
        x[i] = render_digit(int(digit), rng, size).ravel()
    return LabeledImageSet(images=DataMatrix(x), labels=labels, height=size,
                           width=size)
