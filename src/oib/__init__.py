"""Opportunistic feature compression for neural-network inference.

The package manufactures a jointly Gaussian regression sub-task inside a
trained classifier (orthonormally transformed inputs predicting the first
layer's pre-activations), solves the Gaussian information-bottleneck
problem for that sub-task in closed form, and re-expands the compressed
features so the remaining layers run unchanged.  Everything needed to
reproduce the experiments lives behind the ``oib`` command-line tool.

The top level re-exports only the names of the README's library examples;
everything else is imported from its submodule.
"""

from .config import ExperimentConfig
from .datasets import SyntheticGaussianSpec, synth_gaussian
from .gib_compressor import compressor_at_size, encode, solve_gib
from .info_metrics import encoding_mi
from .pipeline import run_experiment

__version__ = "0.1.0"
