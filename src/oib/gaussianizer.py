"""Orthonormal real-packed 2D-DFT and the Henze-Zirkler normality test.

The forward transform takes an image, applies the orthonormal 2D-DFT, and
repacks the complex coefficients into exactly n_x real numbers: purely real
coefficients (DC and the Nyquist lines) are kept as they are, and each
conjugate-symmetric pair contributes sqrt(2) * Re and sqrt(2) * Im of one
representative.  The packing is linear, orthonormal, and exactly invertible,
so covariances and entropies measured on the transformed data are directly
comparable with the pixel domain.

Every coefficient the packing keeps lies in rows k <= height // 2 of the
spectrum, so ``forward`` computes only that half with a real FFT along the
height axis; the flat index k * width + l of a coefficient is the same in
the half spectrum and in the full one.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import fft, linalg, special

from .errors import DimensionError, NumericalError
from .tensor_stats import as_rows

_SQRT2 = np.sqrt(2.0)


@dataclass
class RealDft2dPlan:
    """Precomputed packing indices for a height x width image."""

    height: int
    width: int
    real_slots: np.ndarray = field(init=False, repr=False)
    pair_repr: np.ndarray = field(init=False, repr=False)
    pair_conj: np.ndarray = field(init=False, repr=False)
    # forward's packing as one gather from the float64 view of the half
    # spectrum (real parts at even offsets, imaginary parts at odd ones)
    # and the matching scale: 1 for the real slots, sqrt(2) for the pairs.
    _gather: np.ndarray = field(init=False, repr=False)
    _scale: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise DimensionError("plan dimensions must be positive")
        k = np.arange(self.height)[:, None]
        l = np.arange(self.width)[None, :]
        flat = k * self.width + l
        conj = ((-k) % self.height) * self.width + ((-l) % self.width)
        self.real_slots = np.flatnonzero((flat == conj).ravel())
        self.pair_repr = np.flatnonzero((flat < conj).ravel())
        self.pair_conj = conj.ravel()[self.pair_repr]
        self._gather = np.concatenate([2 * self.real_slots,
                                       2 * self.pair_repr,
                                       2 * self.pair_repr + 1])
        self._scale = np.concatenate([
            np.ones(self.real_slots.size),
            np.full(2 * self.pair_repr.size, _SQRT2)])

    @property
    def n_features(self):
        return self.height * self.width


def forward(plan, x):
    """Real-packed orthonormal 2D-DFT of one vector or a batch of rows."""
    batch, single = as_rows(x, plan.n_features)
    n = len(batch)
    images = batch.reshape(n, plan.height, plan.width)
    f = fft.rfftn(images, axes=(2, 1), norm="ortho")
    # take() keeps the rows C-contiguous; [:, gather] would return them in
    # Fortran order
    out = f.view(np.float64).reshape(n, -1).take(plan._gather, axis=1)
    out *= plan._scale
    return out[0] if single else out


def inverse(plan, coeffs):
    """Exact inverse of forward()."""
    batch, single = as_rows(coeffs, plan.n_features)
    n_real = plan.real_slots.size
    n_pair = plan.pair_repr.size
    f = np.zeros((len(batch), plan.n_features), dtype=np.complex128)
    f[:, plan.real_slots] = batch[:, :n_real]
    rep = (batch[:, n_real:n_real + n_pair]
           + 1j * batch[:, n_real + n_pair:]) / _SQRT2
    f[:, plan.pair_repr] = rep
    f[:, plan.pair_conj] = rep.conj()
    img = np.fft.ifft2(f.reshape(-1, plan.height, plan.width), norm="ortho")
    out = img.real.reshape(len(batch), plan.n_features)
    return out[0] if single else out


@dataclass
class HzTestResult:
    """Henze-Zirkler statistic and its log-normal approximate p-value."""

    statistic: float
    p_value: float

    @property
    def normal(self):
        """True when the test does not reject normality at level 0.05."""
        return self.p_value > 0.05


def henze_zirkler(data):
    """Henze-Zirkler multivariate normality test.

    Computes the smoothed characteristic-function distance on
    Mahalanobis-whitened data with the standard bandwidth
    b = ((N (2d + 1) / 4) ** (1 / (d + 4))) / sqrt(2) and a p-value from the
    log-normal approximation of the null distribution: the survival
    function ``scipy.stats.lognorm.sf`` computes, bitwise, without
    importing ``scipy.stats``.
    """
    x = np.asarray(data, dtype=np.float64)
    n, d = x.shape
    if n <= d:
        raise DimensionError("Henze-Zirkler needs more samples than "
                             "dimensions (N=%d, d=%d); project to fewer "
                             "coordinates first" % (n, d))
    xc = x - x.mean(axis=0)
    s = xc.T @ xc / n
    try:
        cho = linalg.cho_factor(s, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("sample covariance is singular; reduce the "
                             "dimension or add shrinkage") from exc
    w = linalg.cho_solve(cho, xc.T).T          # S^-1 (x - mean)
    d_i = np.einsum("ij,ij->i", xc, w)          # Mahalanobis distances
    g = xc @ w.T                                # Gram matrix in the metric
    d_ij = d_i[:, None] + d_i[None, :] - 2.0 * g

    b = ((n * (2.0 * d + 1.0) / 4.0) ** (1.0 / (d + 4.0))) / np.sqrt(2.0)
    b2 = b * b
    t1 = float(np.mean(np.exp(-b2 / 2.0 * np.clip(d_ij, 0.0, None))))
    t2 = 2.0 * (1.0 + b2) ** (-d / 2.0) * float(
        np.mean(np.exp(-b2 / (2.0 * (1.0 + b2)) * d_i)))
    t3 = (1.0 + 2.0 * b2) ** (-d / 2.0)
    hz = n * (t1 - t2 + t3)

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
    p = float(special.ndtr(-(np.log(hz / np.exp(pmu)) / psi)))
    return HzTestResult(statistic=float(hz), p_value=p)
