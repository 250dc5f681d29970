"""MAC accounting for the compressed pipeline and its reference network."""

import pytest

from oib.complexity_model import (CLASSIFICATION, COMPRESSION, MacsBreakdown,
                                  fft_macs, linear_macs, macs_table,
                                  network_macs, pipeline_macs,
                                  saving_baseline, saving_percent)

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


def test_linear_and_fft_macs():
    assert linear_macs(784, 256) == 200704
    assert linear_macs(1, 1) == 1
    with pytest.raises(ValueError):
        linear_macs(0, 5)
    # 784 rounds up to 1024 = 2^10
    assert fft_macs(784) == 1024 * 10
    assert fft_macs(1024) == 1024 * 10
    assert fft_macs(1) == 0
    assert fft_macs(2) == 2


def test_reference_network_total():
    bd = network_macs(MODEL_LAYERS)
    assert bd.total == 242848
    assert [name for name, _ in bd.per_stage] == \
        ["layer%d" % i for i in range(5)]
    assert bd.per_stage[0][1] == 784 * 256
    assert bd.per_stage[-1][1] == 16 * 10


def test_saving_baseline_excludes_final_projection():
    assert saving_baseline(MODEL_LAYERS) == 242848 - 160 == 242688


def test_published_rows_reproduce_exactly():
    baseline = saving_baseline(MODEL_LAYERS)
    for n_z, comp, cls, saving in PUBLISHED_ROWS:
        bd = pipeline_macs(784, n_z, HEAD_DIMS)
        assert bd.subtotal(COMPRESSION) == comp
        assert bd.subtotal(CLASSIFICATION) == cls
        assert saving_percent(bd, baseline) == pytest.approx(saving,
                                                             abs=0.01)
        assert bd.total == comp + cls


def test_pipeline_stage_structure():
    bd = pipeline_macs(784, 10, HEAD_DIMS)
    stages = dict(bd.per_stage)
    assert stages[COMPRESSION + ":transform"] == 10240
    assert stages[COMPRESSION + ":encoder"] == 7840
    assert stages[CLASSIFICATION + ":reexpansion"] == 2560
    assert stages[CLASSIFICATION + ":layer1"] == 256 * 128
    assert bd.subtotal(COMPRESSION) + bd.subtotal(CLASSIFICATION) == bd.total


def test_pipeline_is_affine_in_n_z():
    # MACs grow linearly in n_z: slope n_x for compression and
    # head_layer_dims[0] for classification
    for step in (1, 10, 25):
        lo = pipeline_macs(784, 10, HEAD_DIMS)
        hi = pipeline_macs(784, 10 + step, HEAD_DIMS)
        assert hi.subtotal(COMPRESSION) - lo.subtotal(COMPRESSION) == \
            784 * step
        assert hi.subtotal(CLASSIFICATION) - lo.subtotal(CLASSIFICATION) == \
            256 * step


def test_pipeline_validation():
    with pytest.raises(ValueError):
        pipeline_macs(784, 0, HEAD_DIMS)
    with pytest.raises(ValueError):
        pipeline_macs(784, 10, [256])


def test_breakdown_invariants():
    with pytest.raises(ValueError):
        MacsBreakdown(per_stage=[("a", -1)])
    bd = MacsBreakdown(per_stage=[("g:x", 2), ("g:y", 3), ("h", 4)])
    assert bd.subtotal("g") == 5
    assert bd.subtotal("h") == 4


def test_macs_table_lists_every_grid_point():
    text = macs_table(MODEL_LAYERS, [row[0] for row in PUBLISHED_ROWS])
    lines = text.splitlines()
    assert len(lines) == 1 + len(PUBLISHED_ROWS)
    for line, (n_z, comp, cls, saving) in zip(lines[1:], PUBLISHED_ROWS):
        fields = line.split()
        assert int(fields[0]) == n_z
        assert int(fields[1]) == comp
        assert int(fields[2]) == cls
        assert float(fields[3]) == pytest.approx(saving, abs=0.01)
