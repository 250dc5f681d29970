"""A fixed reference computation that measures how fast the machine is now.

The reference machine is a shared 2-vCPU VM whose speed drifts by tens of
percent over minutes, and that drift moves every timing of a run together.
The runner times this kernel between operations, never during one, and
reports ``NOMINAL_S / median(kernel time)`` as ``info.speed_factor``: below
1 the machine ran slower than in a quiet period.  It is a diagnostic for
comparing runs; the metrics themselves are the measured times.  The kernel
is this directory's own code and calls nothing in ``oib``.

The kernel mixes what the workloads spend their time on: small float32
GEMMs and element-wise updates as in a training step, a symmetric
eigensolver, small FFTs, and interpreter-bound loops over small arrays.
"""

import time

import numpy as np

# Fastest kernel pass on the reference machine in a quiet period.
NOMINAL_S = 0.014


class Speed:
    """Kernel timings taken during one run, and the factor they give."""

    passes = 10
    interval_s = 1.0

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.batch = rng.standard_normal((32, 784)).astype(np.float32)
        self.w = rng.standard_normal((256, 784)).astype(np.float32)
        self.m = np.zeros_like(self.w)
        self.v = np.zeros_like(self.w)
        sym = rng.standard_normal((160, 160))
        self.sym = sym @ sym.T
        self.images = rng.standard_normal((32, 28, 28))
        self.rows = rng.standard_normal((400, 64))
        self.samples = []
        self.last = None

    def _pass(self):
        start = time.perf_counter()
        for _ in range(6):
            grad = (self.batch @ self.w.T).T @ self.batch
            self.m *= 0.9
            self.m += 0.1 * grad
            self.v *= 0.999
            self.v += 0.001 * grad * grad
            self.w -= 1e-6 * self.m / (np.sqrt(self.v) + 1e-8)
        np.linalg.eigh(self.sym)
        np.fft.fft2(self.images)
        total = 0.0
        for row in self.rows:
            total += float(np.maximum(row, 0.0).sum())
        return time.perf_counter() - start

    def sample(self):
        """Time ``passes`` kernel passes and keep the fastest, which a
        momentary stall does not move but a slower machine does; returns
        the seconds the sample took."""
        start = time.perf_counter()
        self.samples.append(min(self._pass() for _ in range(self.passes)))
        self.last = time.perf_counter()
        return self.last - start

    def maybe_sample(self):
        """Sample when ``interval_s`` has passed since the last sample;
        returns the seconds spent."""
        if self.last is None or \
                time.perf_counter() - self.last >= self.interval_s:
            return self.sample()
        return 0.0

    def factor(self):
        """NOMINAL_S over the median kernel time of the run."""
        return NOMINAL_S / float(np.median(self.samples))
