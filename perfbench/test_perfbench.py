"""Self-tests of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.  Every
workload runs in-process with tiny inputs and one set-up; the tests check
that every declared metric is printed with its unit and that a broken
result is counted as a failed operation.
"""

import argparse
import json
import os

import numpy as np
import pytest

import run

run.import_oib()

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oib import cli, inference_net, pipeline  # noqa: E402

TINY = {
    "experiment": {"dataset": {"n_train": 120, "n_test": 40},
                   "n_z_grid": [10, 20], "train": {"epochs": 1},
                   "retrain": {"average_epochs": 1, "finetune_epochs": 1}},
    "sweep": {"dataset": {"n_train": 120, "n_test": 40},
              "n_z_grid": [1, 11, 21], "train": {"epochs": 1}},
    "serve": {"dataset": {"n_train": 120, "n_test": 12},
              "train": {"epochs": 1}, "compressor_kinds": ["oib"],
              "n_z_grid": list(workloads.SERVE_NZ)},
    "cli": {"dataset": {"n_train": 120, "n_test": 40},
            "n_z_grid": [10, 20], "train": {"epochs": 1},
            "retrain": {"average_epochs": 1, "finetune_epochs": 1}},
}


@pytest.fixture(autouse=True)
def tiny_sizes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads.Experiment, "sizes", TINY["experiment"])
    monkeypatch.setattr(workloads.Experiment, "warmup", TINY["experiment"])
    monkeypatch.setattr(workloads.Sweep, "sizes", TINY["sweep"])
    monkeypatch.setattr(workloads.Serve, "sizes", TINY["serve"])
    monkeypatch.setattr(workloads.Serve, "batch", 4)
    monkeypatch.setattr(workloads.Serve, "b1_checked", 4)
    monkeypatch.setattr(workloads.Cli, "sizes", TINY["cli"])


def bench(workload, trace, seconds=0.05):
    args = argparse.Namespace(workload=workload, seed=3, seconds=seconds,
                              trace=trace)
    info, result = run.run(args, import_s=0.1, blas_threads=2)
    json.dumps(result, allow_nan=False)
    return info, result


def declared():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        return json.load(fh)


def test_declared_metrics_match_the_code():
    doc = declared()
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        layers.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_emitted(workload):
    info, result = bench(workload, trace=0)
    assert result["correct"], info["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        run.END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert len(info["fingerprint"]["sha256"]) == 64
    assert len(info["base_weights_sha256"]) == 64


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_per_layer_metric_is_emitted(workload):
    info, result = bench(workload, trace=1)
    assert result["correct"], info["failures"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        layers.PER_LAYER
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["trace.spans_per_op"] >= 1
    if workload == "cli":
        assert values["cli.dataset_renders"] == 5
        assert values["cli.base_trainings"] == 2
        assert values["serialization.bytes_written"] > 0
    if workload in ("experiment", "sweep"):
        assert values["pipeline.evaluate_grid_s"] > 0
        assert values["tensor_stats.gib_eigensystem_calls"] == 1
    if workload == "experiment":
        assert 0 < values["inference_net.train_share"] < 1
    if workload == "serve":
        assert values["complexity_model.transform_macs"] == 10240
        assert values["gib_compressor.encode_us_per_sample_bulk_nz100"] > 0
        assert values["serve.path_p99_us_b1_nz10"] > 0
        assert len(info["mac_table"]) == 13


def test_wrong_served_logits_fail_serve_checks(monkeypatch):
    original = inference_net.forward_from_layer

    def skewed(model, start_layer, x):
        out = original(model, start_layer, x)
        return out + 1.0 if len(x) == 4 else out
    monkeypatch.setattr(inference_net, "forward_from_layer", skewed)
    _, result = bench("serve", trace=0)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_a_non_finite_record_fails_grid_checks(monkeypatch):
    monkeypatch.setattr(pipeline, "encoding_mi",
                        lambda *a, **k: float("nan"))
    _, result = bench("sweep", trace=0)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_a_failing_command_fails_cli_checks(monkeypatch):
    monkeypatch.setattr(cli, "cmd_hz_test", lambda config: 3)
    _, result = bench("cli", trace=0)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_an_operation_that_raises_is_counted(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")
    monkeypatch.setattr(pipeline, "fit_reexpanders", broken)
    _, result = bench("sweep", trace=0)
    assert result["failed"] >= 1 and not result["correct"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 5.0},
        {"id": 4, "parent": 1, "start": 8.0, "end": 9.0},
        {"id": 5, "parent": 2, "start": 1.5, "end": 2.0},
    ]
    self_s = tracer.self_times(spans)
    assert self_s[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_s[2] == pytest.approx(2.5)
    assert self_s[5] == pytest.approx(0.5)


def test_spans_patch_the_importing_module_and_restore_it():
    t = tracer.Tracer()
    layers.add_sites(t)
    train, build_dataset = pipeline.train, cli.build_dataset
    t.install()
    try:
        assert pipeline.train.__wrapped__ is train
        assert cli.build_dataset.__wrapped__ is build_dataset
    finally:
        t.restore()
    assert pipeline.train is train and cli.build_dataset is build_dataset


def test_summaries_average_the_groups():
    assert run.summarize({"a": [1.0, 3.0], "b": [5.0]}, 50) == \
        pytest.approx(1e3 * np.mean([2.0, 5.0]))
    assert run.summarize({}, 50) == 0.0
