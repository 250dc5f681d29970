"""Artifact round-trips, config hashing, and report schema validation."""

import json
import re

import numpy as np
import pytest

from oib.datasets import synthetic_digits
from oib.errors import ConfigError, DataFormatError
from oib.gib_compressor import Compressor
from oib.inference_net import TrainConfig, init_mlp
from oib.reexpander import Reexpander
from oib.serialization import (config_hash, load_compressor, load_corpus,
                               load_model, load_reexpander, report_schema,
                               save_compressor, save_corpus, save_model,
                               save_reexpander, validate_report)


def sample_report():
    return {
        "metadata": {
            "config_hash": "0" * 64,
            "seeds": {"data_train": 1, "model_init": 0},
            "created": "2024-05-01T10:00:00",
            "encoding": "deterministic",
            "entropy_encoding": "stochastic",
        },
        "baseline": {
            "accuracy_transform_domain": 0.959,
            "accuracy_raw_domain": 0.957,
        },
        "records": [{
            "kind": "oib",
            "n_z": 10,
            "rho": 78.4,
            "accuracy": 0.905,
            "entropy_nats_normalized": 13.3,
            "mi_nats": 37.1,
            "reconstruction_mse": 0.076,
            "macs_compression": 18080,
            "macs_classification": 44704,
        }],
    }


def test_compressor_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    comp = Compressor(matrix_a=rng.standard_normal((4, 9)), beta=3.25)
    stem = str(tmp_path / "comp")
    save_compressor(comp, stem)
    loaded = load_compressor(stem)
    assert loaded.n_z == 4 and loaded.n_x == 9
    assert loaded.beta == comp.beta
    np.testing.assert_array_equal(loaded.matrix_a, comp.matrix_a)
    # a second save produces byte-identical files
    stem2 = str(tmp_path / "comp2")
    save_compressor(loaded, stem2)
    assert (tmp_path / "comp.bin").read_bytes() == \
        (tmp_path / "comp2.bin").read_bytes()
    assert (tmp_path / "comp.json").read_bytes() == \
        (tmp_path / "comp2.json").read_bytes()
    # manifests written with the former noise_std key still load
    manifest = json.loads((tmp_path / "comp.json").read_text())
    (tmp_path / "comp.json").write_text(json.dumps(dict(manifest,
                                                        noise_std=0.0)))
    np.testing.assert_array_equal(load_compressor(stem).matrix_a,
                                  comp.matrix_a)
    # the MI a compressor carries loads back exactly, and None as None
    assert loaded.mi_nats is None
    mi_stem = str(tmp_path / "mi")
    save_compressor(Compressor(matrix_a=np.eye(2), mi_nats=0.1 + 0.2),
                    mi_stem)
    assert load_compressor(mi_stem).mi_nats == 0.1 + 0.2


def test_reexpander_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    rx = Reexpander(theta=rng.standard_normal((5, 3)),
                    target_mean=rng.standard_normal(5))
    stem = str(tmp_path / "rx")
    save_reexpander(rx, stem)
    loaded = load_reexpander(stem)
    np.testing.assert_array_equal(loaded.theta, rx.theta)
    np.testing.assert_array_equal(loaded.target_mean, rx.target_mean)


def test_model_round_trip(tmp_path):
    model = init_mlp([6, 5, 3], seed=7)
    cfg = TrainConfig(epochs=4, seed=2)
    stem = str(tmp_path / "model")
    save_model(model, stem, train_config=cfg, seed=7)
    loaded = load_model(stem)
    assert loaded.layer_sizes == model.layer_sizes
    assert loaded.dtype == np.float32
    for (w1, b1), (w2, b2) in zip(loaded.layers, model.layers):
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(b1, b2)
    manifest = json.loads((tmp_path / "model.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["train_config"]["epochs"] == 4
    rebuilt = TrainConfig(**manifest["train_config"])
    assert rebuilt == cfg


def test_load_rejects_corrupt_artifacts(tmp_path):
    comp = Compressor(matrix_a=np.eye(3))
    stem = str(tmp_path / "c")
    save_compressor(comp, stem)

    wrong_format = str(tmp_path / "w")
    save_compressor(comp, wrong_format)
    manifest = json.loads((tmp_path / "w.json").read_text())
    manifest["format"] = "other-v1"
    (tmp_path / "w.json").write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError, match="format"):
        load_compressor(wrong_format)

    (tmp_path / "c.bin").write_bytes(
        (tmp_path / "c.bin").read_bytes()[:-8])
    with pytest.raises(DataFormatError, match="bytes"):
        load_compressor(stem)

    (tmp_path / "c.json").write_text("{not json")
    with pytest.raises(DataFormatError):
        load_compressor(stem)

    # damage found while building the object names the artifact instead
    # of escaping as a bare KeyError, ValueError or AttributeError
    def tampered(name, change):
        damaged = str(tmp_path / name)
        save_compressor(comp, damaged)
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
        return damaged

    for name, change in (
            ("no_n_x", lambda m: {k: v for k, v in m.items() if k != "n_x"}),
            ("as_list", lambda m: sorted(m.items()))):
        damaged = tampered(name, change)
        with pytest.raises(DataFormatError, match=re.escape(damaged)):
            load_compressor(damaged)

    rx_stem = str(tmp_path / "nan_rx")
    save_reexpander(Reexpander(theta=np.ones((2, 3)),
                               target_mean=np.zeros(2)), rx_stem)
    blob = (tmp_path / "nan_rx.bin").read_bytes()
    (tmp_path / "nan_rx.bin").write_bytes(
        np.array([np.nan], dtype="<f8").tobytes() + blob[8:])
    with pytest.raises(DataFormatError, match=re.escape(rx_stem)):
        load_reexpander(rx_stem)

    # a NaN or an infinity anywhere in a blob of the right length is
    # refused by the reader, whatever object the blob would build
    def non_finite(name, save, offset, value):
        damaged = str(tmp_path / name)
        save(damaged)
        path = tmp_path / (name + ".bin")
        blob = path.read_bytes()
        path.write_bytes(blob[:offset] + value + blob[offset + len(value):])
        return damaged

    nan64 = np.array([np.nan], dtype="<f8").tobytes()
    train_set, test_set = synthetic_digits(3, 1, size=4), \
        synthetic_digits(2, 2, size=4)
    for name, save, offset, value, load in (
            ("nan_model", lambda st: save_model(init_mlp([3, 2, 2], 0), st),
             0, np.array([np.nan], dtype="<f4").tobytes(), load_model),
            ("inf_model_bias", lambda st: save_model(init_mlp([3, 2, 2], 0),
                                                     st),
             4 * 11, np.array([np.inf], dtype="<f4").tobytes(), load_model),
            ("nan_corpus", lambda st: save_corpus(train_set, test_set, "k",
                                                  st),
             0, nan64, lambda st: load_corpus(st, "k")),
            ("nan_comp", lambda st: save_compressor(comp, st), 0, nan64,
             load_compressor),
            ("nan_rx_mean", lambda st: save_reexpander(
                Reexpander(theta=np.ones((2, 3)), target_mean=np.zeros(2)),
                st), 6 * 8, nan64, load_reexpander)):
        damaged = non_finite(name, save, offset, value)
        with pytest.raises(DataFormatError, match=re.escape(
                damaged + ".bin holds a non-finite value")):
            load(damaged)


def test_keyed_loaders_check_the_key_before_the_blob(tmp_path):
    comp = Compressor(matrix_a=np.eye(3))
    stem = str(tmp_path / "c")
    with pytest.raises(ConfigError, match=re.escape(stem)):
        load_compressor(stem, "k")
    save_compressor(comp, stem, "k")
    assert json.loads((tmp_path / "c.json").read_text())["key"] == "k"
    for key in ("k", None):
        np.testing.assert_array_equal(load_compressor(stem, key).matrix_a,
                                      comp.matrix_a)
    (tmp_path / "c.bin").unlink()
    with pytest.raises(ConfigError, match=re.escape(stem)):
        load_compressor(stem, "other")
    with pytest.raises(DataFormatError, match=re.escape(stem)):
        load_compressor(stem, "k")

    # a manifest written before manifests carried a key
    model_stem = str(tmp_path / "m")
    save_model(init_mlp([3, 2, 2], seed=0), model_stem, key="k")
    manifest = json.loads((tmp_path / "m.json").read_text())
    del manifest["key"]
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    assert load_model(model_stem).layer_sizes == [3, 2, 2]
    with pytest.raises(ConfigError, match=re.escape(model_stem)):
        load_model(model_stem, "k")


def test_corpus_round_trip_is_bit_exact_and_keyed(tmp_path):
    train_set, test_set = synthetic_digits(7, 1, size=8), \
        synthetic_digits(5, 2, size=8)
    stem = str(tmp_path / "dataset")
    assert load_corpus(stem, "k") is None
    save_corpus(train_set, test_set, "k", stem)
    manifest = json.loads((tmp_path / "dataset.json").read_text())
    assert manifest == {"format": "corpus-v1", "n_train": 7, "n_test": 5,
                        "height": 8, "width": 8, "key": "k"}
    assert (tmp_path / "dataset.bin").stat().st_size == 12 * 64 * 8 + 12 * 8
    loaded = load_corpus(stem, "k")
    for got, want in zip(loaded, (train_set, test_set)):
        assert got.images.values.tobytes() == want.images.values.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.labels.dtype == want.labels.dtype
        assert (got.height, got.width) == (8, 8)
    with pytest.raises(ConfigError, match=re.escape(stem)):
        load_corpus(stem, "other")

    blob = (tmp_path / "dataset.bin").read_bytes()
    (tmp_path / "dataset.bin").write_bytes(
        blob[:-8] + np.array([10], dtype="<i8").tobytes())
    with pytest.raises(DataFormatError, match="label 10"):
        load_corpus(stem, "k")
    (tmp_path / "dataset.bin").write_bytes(blob[:-8])
    with pytest.raises(DataFormatError, match="bytes"):
        load_corpus(stem, "k")


def test_config_hash_is_canonical():
    a = {"x": 1, "nested": {"b": 2, "a": [1, 2]}}
    b = {"nested": {"a": [1, 2], "b": 2}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    assert config_hash(a) != config_hash({"x": 2,
                                          "nested": {"b": 2, "a": [1, 2]}})


def test_report_schema_accepts_valid_report():
    schema = report_schema()
    assert schema["type"] == "object"
    validate_report(sample_report())


def test_report_schema_rejects_bad_reports():
    missing = sample_report()
    del missing["records"][0]["accuracy"]
    with pytest.raises(DataFormatError, match="schema"):
        validate_report(missing)

    extra = sample_report()
    extra["records"][0]["bogus"] = 1
    with pytest.raises(DataFormatError):
        validate_report(extra)

    bad_kind = sample_report()
    bad_kind["records"][0]["kind"] = "unknown"
    with pytest.raises(DataFormatError):
        validate_report(bad_kind)

    bad_hash = sample_report()
    bad_hash["metadata"]["config_hash"] = "xyz"
    with pytest.raises(DataFormatError):
        validate_report(bad_hash)
