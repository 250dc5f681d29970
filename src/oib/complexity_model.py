"""Multiply-accumulate accounting for the compressed inference pipeline.

MACs count weight-matrix multiplies only (no bias adds, no activations):
a dense layer from m to n inputs costs m*n.  The orthonormal transform is
modeled as a radix-2 FFT at the next power of two, N' * log2(N'), which for
784 inputs gives the constant 10240-MAC offset of the compression stage.

The pipeline splits into a compression stage (transform plus the n_z by
n_x encoder) and a classification stage (the n_z by head-width
re-expansion plus the head layers).  Savings are quoted against the
original network's cost up to its last hidden layer, since the compressed
path re-uses the final projection unchanged.
"""

from dataclasses import dataclass

import numpy as np

COMPRESSION = "compression"
CLASSIFICATION = "classification"


@dataclass
class MacsBreakdown:
    """Ordered per-stage MAC counts; stage names use 'group:detail' form."""

    per_stage: list

    def __post_init__(self):
        if any(macs < 0 for _, macs in self.per_stage):
            raise ValueError("MAC counts must be non-negative")

    @property
    def total(self):
        return sum(macs for _, macs in self.per_stage)

    def subtotal(self, group):
        """Sum of stages whose name is ``group`` or starts with 'group:'."""
        return sum(m for name, m in self.per_stage
                   if name == group or name.startswith(group + ":"))


def linear_macs(in_dim, out_dim):
    """MACs for a dense layer: one multiply-accumulate per weight."""
    if in_dim < 1 or out_dim < 1:
        raise ValueError("layer dimensions must be at least 1")
    return int(in_dim) * int(out_dim)


def fft_macs(n_x):
    """Radix-2 FFT cost at the next power of two: N' * log2(N')."""
    if n_x < 1:
        raise ValueError("n_x must be at least 1")
    n_pow2 = 1
    while n_pow2 < n_x:
        n_pow2 *= 2
    return n_pow2 * int(round(np.log2(n_pow2)))


def network_macs(layer_sizes):
    """Per-layer MACs of a plain dense network, e.g. [784,256,...,10]."""
    stages = []
    for i, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1],
                                              layer_sizes[1:])):
        stages.append(("layer%d" % i, linear_macs(fan_in, fan_out)))
    return MacsBreakdown(per_stage=stages)


def pipeline_macs(n_x, n_z, head_layer_dims):
    """MACs of the compressed pipeline at one compression size.

    ``head_layer_dims`` lists the widths from the re-expansion target down
    to the logits, e.g. [256, 128, 64, 16, 10]: the re-expansion maps n_z
    to head_layer_dims[0] and the remaining pairs are the head layers.
    """
    if len(head_layer_dims) < 2:
        raise ValueError("head_layer_dims needs at least input and output")
    if n_z < 1:
        raise ValueError("n_z must be at least 1")
    stages = [(COMPRESSION + ":transform", fft_macs(n_x)),
              (COMPRESSION + ":encoder", linear_macs(n_x, n_z)),
              (CLASSIFICATION + ":reexpansion",
               linear_macs(n_z, head_layer_dims[0]))]
    for i, (fan_in, fan_out) in enumerate(zip(head_layer_dims[:-1],
                                              head_layer_dims[1:])):
        stages.append((CLASSIFICATION + ":layer%d" % (i + 1),
                       linear_macs(fan_in, fan_out)))
    return MacsBreakdown(per_stage=stages)


def saving_baseline(layer_sizes):
    """Reference cost for savings: the network up to its last hidden layer."""
    full = network_macs(layer_sizes)
    last = linear_macs(layer_sizes[-2], layer_sizes[-1])
    return full.total - last


def saving_percent(pipeline, baseline_macs):
    """Percent of the baseline cost the compressed pipeline avoids."""
    if baseline_macs <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (1.0 - pipeline.total / baseline_macs)


def macs_rows(layer_sizes, n_z_values):
    """n_z, compression and classification MACs, and the saving percent,
    one dict per n_z in that key order, for the network ``layer_sizes``
    with its first layer replaced by the compressed path."""
    baseline = saving_baseline(layer_sizes)
    rows = []
    for n_z in n_z_values:
        bd = pipeline_macs(layer_sizes[0], n_z, layer_sizes[1:])
        rows.append({"n_z": n_z,
                     "macs_compression": bd.subtotal(COMPRESSION),
                     "macs_classification": bd.subtotal(CLASSIFICATION),
                     "saving_percent": round(saving_percent(bd, baseline),
                                             2)})
    return rows


def macs_table(layer_sizes, n_z_values):
    """Plain-text table of the ``macs_rows``."""
    lines = ["%6s %12s %12s %12s" % ("n_z", "comp_macs", "class_macs",
                                     "saving_pct")]
    for row in macs_rows(layer_sizes, n_z_values):
        lines.append("%6d %12d %12d %12.2f" % tuple(row.values()))
    return "\n".join(lines)
