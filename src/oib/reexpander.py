"""Linear re-expansion of compressed features back to pre-activation space.

Two fitting routes produce the same kind of estimator: the population
L-MMSE solution theta = C_yz C_zz^-1 when covariances are known, and the
least-squares solution of the normal equations on training encodings.
Both fit on centered data and store the offset needed to undo the
centering, so predictions are theta @ z + target_mean.  ``fit_ls`` with
``prefixes`` solves the same normal equations for scaled prefixes of the
code columns from the moments of all of them, so every compressor of a
nested family is fitted from one encode and one Gram matrix.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import DimensionError, NumericalError
from .tensor_stats import as_rows

DEFAULT_RIDGE_SCALE = 1e-8


@dataclass
class Reexpander:
    """Linear estimator mapping n_z encodings to n_y targets."""

    theta: np.ndarray
    target_mean: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.target_mean = np.asarray(self.target_mean, dtype=np.float64)
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta contains non-finite entries")
        if self.theta.ndim != 2 or \
                self.target_mean.shape != (self.theta.shape[0],):
            raise DimensionError("theta must be n_y x n_z with a length-n_y "
                                 "target mean")

    @property
    def n_y(self):
        return self.theta.shape[0]

    @property
    def n_z(self):
        return self.theta.shape[1]


def fit_lmmse(c_yz, c_zz):
    """Population estimator theta = C_yz C_zz^-1 of centered targets: its
    target mean is zero."""
    c_yz = np.asarray(c_yz, dtype=np.float64)
    c_zz = np.asarray(c_zz, dtype=np.float64)
    try:
        cho = linalg.cho_factor(c_zz, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("C_zz is not positive definite") from exc
    theta = linalg.cho_solve(cho, c_yz.T).T
    return Reexpander(theta=theta, target_mean=np.zeros(theta.shape[0]))


def _normal_solve(z_mean, y_mean, gram, cross, ridge):
    """The estimator of the centered normal equations
    (gram + ridge*I) theta' = cross, with ``ridge=None`` the default
    DEFAULT_RIDGE_SCALE * tr(gram) / n_z."""
    n_z = len(z_mean)
    if ridge is None:
        ridge = DEFAULT_RIDGE_SCALE * np.trace(gram) / n_z
    try:
        theta = np.linalg.solve(gram + ridge * np.eye(n_z), cross).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Z'Z + ridge*I is singular with ridge %g; "
                             "increase ridge" % ridge) from exc
    return Reexpander(theta=theta, target_mean=y_mean - theta @ z_mean)


def fit_ls(z_train, y_train, ridge=None, prefixes=None):
    """Least-squares fit of the normal equations on training encodings.

    ``ridge=None`` applies the default stabilization
    DEFAULT_RIDGE_SCALE * tr(Z'Z) / n_z; pass 0.0 for the raw normal
    equations.  A singular system raises NumericalError.

    ``prefixes``, a sequence of scale vectors s, fits instead every code
    prefix ``z_train[:, :len(s)] * s`` from the one Gram matrix of all
    columns and returns their estimators in order, each the one
    ``fit_ls`` of those columns gives, ridge rule included.
    """
    z = np.asarray(z_train, dtype=np.float64)
    y = np.asarray(y_train, dtype=np.float64)
    if len(z) != len(y):
        raise DimensionError("z and y must have the same number of rows")
    n, n_z = z.shape
    if n <= n_z:
        raise ValueError("the system must be over-determined: need more "
                         "than n_z=%d samples, got %d" % (n_z, n))
    z_mean, y_mean = z.mean(axis=0), y.mean(axis=0)
    zc, yc = z - z_mean, y - y_mean
    gram, cross = zc.T @ zc, zc.T @ yc
    if prefixes is None:
        return _normal_solve(z_mean, y_mean, gram, cross, ridge)
    fits = []
    for s in prefixes:
        s = np.asarray(s, dtype=np.float64)
        k = len(s)
        fits.append(_normal_solve(s * z_mean[:k], y_mean,
                                  s[:, None] * gram[:k, :k] * s,
                                  s[:, None] * cross[:k], ridge))
    return fits


def reexpand(rx, z):
    """Predict targets for one encoding or a batch of encodings."""
    batch, single = as_rows(z, rx.n_z)
    out = batch @ rx.theta.T + rx.target_mean
    return out[0] if single else out


def mse_entropy_gap(mse, cond_entropy, n_y):
    """mse minus the conditional-entropy lower bound on the estimation error.

    The bound is (n_y / (2 pi e)) * exp(2 H / n_y); for a Gaussian error
    with isotropic covariance the bound is met with equality, and any
    estimator's mean squared error sits on or above it.
    """
    bound = n_y / (2.0 * np.pi * np.e) * np.exp(2.0 * cond_entropy / n_y)
    return float(mse - bound)
