"""Environment fingerprint printed with every benchmark result.

Two runs are comparable only when their fingerprints match: the BLAS
build and thread count change both the speed and the trained weights.
Nothing here varies from run to run on one machine, so the fingerprint
hash can be compared directly.
"""

import hashlib
import json
import os
import platform
import sys

BLAS_ENV_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_", "BLIS_")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads(threads):
    """Set the BLAS thread count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before importing "
                           "numpy")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(threads)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(blas_threads):
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {key: {k: deps[key].get(k) for k in ("name", "version",
                                                 "openblas configuration")}
            for key in ("blas", "lapack") if key in deps}
    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: v for k, v in sorted(os.environ.items())
                     if k.startswith(BLAS_ENV_PREFIXES)},
        "blas_threads": blas_threads,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
    }
    canonical = json.dumps(info, sort_keys=True).encode()
    info["sha256"] = hashlib.sha256(canonical).hexdigest()
    return info
