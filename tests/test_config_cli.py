"""Config loading/validation, the command-line interface, and the
pipeline paths a config selects (IDX files, stochastic encoding)."""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from oib import cli, pipeline
from oib.cli import main
from oib.config import (ExperimentConfig, SEED_STRIDE, apply_overrides,
                        config_from_dict, config_to_dict, load_config)
from oib.datasets import LabeledImageSet, save_idx
from oib.errors import ConfigError
from oib.gib_compressor import encode
from oib.inference_net import accuracy
from oib.info_metrics import LOG_2PIE
from oib.reexpander import fit_lmmse
from oib.serialization import config_hash, load_compressor, load_model
from oib.tensor_stats import DataMatrix

TINY = {
    "dataset": {"n_train": 400, "n_test": 100},
    "train": {"epochs": 2},
    "n_z_grid": [5, 10],
    "retrain": {"average_epochs": 2, "average_decay_at": 1,
                "finetune_epochs": 1},
}


def tiny_config_file(tmp_path, **extra):
    data = dict(TINY, output_dir=str(tmp_path / "out"), **extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_default_config_matches_reference_experiment():
    config = ExperimentConfig()
    assert config.model_layer_sizes == [784, 256, 128, 64, 16, 10]
    assert config.n_z_grid == list(range(10, 101, 10))
    assert config.train.epochs == 30
    base = pipeline.base_train_config(config)
    assert (base.learning_rate, base.batch_size) == (1e-3, 32)
    assert config.compressor_kinds == ["oib", "cca", "pca"]
    assert config.encoding == "deterministic"
    assert not config.dataset.from_files


def test_unknown_keys_are_rejected_recursively():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="dataset"):
        config_from_dict({"dataset": {"n_train": 10, "bogus": 1}})
    with pytest.raises(ConfigError, match="retrain"):
        config_from_dict({"retrain": {"average_epochs": 1, "typo": 2}})


def test_config_value_validation():
    with pytest.raises(ConfigError, match="ascending"):
        config_from_dict({"n_z_grid": [20, 10]})
    with pytest.raises(ConfigError, match="exceeds"):
        config_from_dict({"n_z_grid": [800]})
    # rendered digits are square, so the input width must be a square
    with pytest.raises(ConfigError, match="input width"):
        config_from_dict({"model_layer_sizes": [120, 64, 10]})
    with pytest.raises(ConfigError, match="compressor"):
        config_from_dict({"compressor_kinds": ["oib", "lda"]})
    with pytest.raises(ConfigError, match="encoding"):
        config_from_dict({"encoding": "noisy"})
    with pytest.raises(ConfigError, match="over-determined"):
        config_from_dict({"dataset": {"n_train": 100}})
    with pytest.raises(ConfigError, match="normality"):
        config_from_dict({"dataset": {"n_test": 10}})
    config_from_dict({"dataset": {"n_train": 101, "n_test": 11}})
    config_from_dict({"retrain": {"average_decay_at": None}})
    with pytest.raises(ConfigError, match="four"):
        config_from_dict({"dataset": {"train_images": "a.idx"}})
    with pytest.raises(ConfigError):
        config_from_dict({"train": {"epochs": -1}})
    # values that would otherwise fail only after training, or run with a
    # covariance the targets do not have
    for grid in ([0, 10], [10, 10], [5, 10, 10], [10.5, 20]):
        with pytest.raises(ConfigError, match="n_z_grid"):
            config_from_dict({"n_z_grid": grid})
    # oib and cca have one direction per first-layer unit; pca keeps the
    # input dimension as its bound
    for kinds in (["oib"], ["cca"], ["oib", "cca", "pca"]):
        with pytest.raises(ConfigError, match="informative"):
            config_from_dict({"n_z_grid": [10, 300],
                              "compressor_kinds": kinds})
    with pytest.raises(ConfigError, match="informative"):
        config_from_dict({"model_layer_sizes": [784, 64, 10]})
    config_from_dict({"n_z_grid": [10, 256]})
    config_from_dict({"n_z_grid": [10, 300], "compressor_kinds": ["pca"]})
    for out in (None, 5, ""):
        with pytest.raises(ConfigError, match="output_dir"):
            config_from_dict({"output_dir": out})


def test_config_round_trip_and_hash_stability():
    config = config_from_dict(TINY)
    data = config_to_dict(config)
    again = config_from_dict(data)
    assert config_to_dict(again) == data
    assert config_hash(data) == config_hash(config_to_dict(again))
    other = config_from_dict(dict(TINY, encoding="stochastic"))
    assert config_hash(config_to_dict(other)) != config_hash(data)
    # where a run writes is not part of what it computes
    moved = config_from_dict(dict(TINY, output_dir="elsewhere"))
    assert config_hash(config_to_dict(moved)) == config_hash(data)


# Each fails at load; without the check it fails only in a later stage, or
# never (duplicate kinds write duplicate records).
LATE_FAILING_CONFIGS = {
    "no_layers": {"model_layer_sizes": []},
    "zero_width_output": {"model_layer_sizes": [784, 256, 0]},
    "bool_width": {"model_layer_sizes": [784, 256, True]},
    "fractional_epochs": {"train": {"epochs": 1.5}},
    "fractional_n_train": {"dataset": {"n_train": 300.5}},
    "fractional_n_test": {"dataset": {"n_test": 60.5}},
    "bool_grid": {"n_z_grid": [True]},
    "no_kinds": {"compressor_kinds": []},
    "duplicate_kinds": {"compressor_kinds": ["oib", "pca", "oib"]},
    "negative_decay_at": {"retrain": {"average_decay_at": -3}},
    "fractional_decay_at": {"retrain": {"average_decay_at": 2.5}},
    "fractional_finetune_epochs": {"retrain": {"finetune_epochs": 0.5}},
    "bool_seed": {"seed": True},
}


@pytest.mark.parametrize("name", sorted(LATE_FAILING_CONFIGS))
def test_configs_that_would_fail_late_fail_at_load(name):
    with pytest.raises(ConfigError):
        config_from_dict(LATE_FAILING_CONFIGS[name])


def test_an_empty_finetune_validation_split_is_refused_at_load(tmp_path,
                                                               capsys):
    # round(0.1 * 5) is 0: every fine-tune would score an empty split
    # and silently keep the average head.
    def few(n_train, kinds=("oib", "cca", "pca")):
        return {"dataset": {"n_train": n_train, "n_test": 20},
                "n_z_grid": [1, 2], "compressor_kinds": list(kinds)}
    with pytest.raises(ConfigError, match="empty validation split"):
        config_from_dict(few(5))
    config_from_dict(few(6))
    # only oib fine-tunes heads
    config_from_dict(few(5, kinds=["cca", "pca"]))
    for n_train, command, code in ((5, "train-base", 2), (6, "macs", 0)):
        case_dir = tmp_path / str(n_train)
        case_dir.mkdir()
        cfg = tiny_config_file(case_dir, **few(n_train))
        assert main([command, "--config", cfg]) == code, n_train
        assert ("empty validation split" in capsys.readouterr().err) == \
            (code == 2)
        assert not (case_dir / "out").exists()


def test_late_failing_config_exits_2_before_writing(tmp_path, capsys):
    for name, data in sorted(LATE_FAILING_CONFIGS.items()):
        case_dir = tmp_path / name
        case_dir.mkdir()
        cfg = tiny_config_file(case_dir, **data)
        assert main(["train-base", "--config", cfg]) == 2, name
        assert "config error" in capsys.readouterr().err
        assert not (case_dir / "out").exists()


# Fixed parts of the method that were once settable; a config that still
# sets one fails as an unknown key.
REMOVED_KEYS = {
    "train.learning_rate": {"train": {"epochs": 2, "learning_rate": 1e-3}},
    "train.batch_size": {"train": {"epochs": 2, "batch_size": 32}},
    "shrinkage": {"shrinkage": 1e-4},
    "noise_lambda": {"noise_lambda": 0.1},
    "ridge": {"ridge": 1e-8},
}


@pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
def test_removed_keys_are_unknown(key, tmp_path, capsys):
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict(REMOVED_KEYS[key])
    cfg = tiny_config_file(tmp_path, **REMOVED_KEYS[key])
    assert main(["train-base", "--config", cfg]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="cannot read config file %s"
                       % tmp_path):
        load_config(str(tmp_path))


def test_apply_overrides():
    config = ExperimentConfig()
    shifted = apply_overrides(config, seed=2, out="/tmp/elsewhere",
                              encoding="stochastic", subset_n=500)
    assert shifted.seeds.data_train == 1 + 2 * SEED_STRIDE
    assert shifted.seeds.head_average == 99 + 2 * SEED_STRIDE
    assert shifted.output_dir == "/tmp/elsewhere"
    assert shifted.encoding == "stochastic"
    assert shifted.dataset.n_train == 500
    assert shifted.dataset.n_test == 100
    # the original is untouched
    assert config.seeds.data_train == 1
    unchanged = apply_overrides(config)
    assert config_to_dict(unchanged) == config_to_dict(config)


def test_seed_is_one_non_negative_integer_offset(tmp_path, capsys):
    for seed in (-1, 1.5, "1"):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"seed": seed})
    # the stage seeds derive from the offset; they are not config keys
    with pytest.raises(ConfigError, match="unknown config key.*seeds"):
        config_from_dict({"seeds": {"data_train": 1}})
    # --seed adds to the offset the config already holds
    twice = apply_overrides(apply_overrides(ExperimentConfig(), seed=2),
                            seed=3)
    assert twice.seed == 5
    assert twice.seeds == ExperimentConfig().seeds.shifted(5)
    assert main(["hz-test", "--seed", "-1",
                 "--out", str(tmp_path / "out")]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_macs_command_prints_published_table(capsys):
    assert main(["macs"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["network_total"] == 242848
    assert payload["saving_baseline"] == 242688
    rows = {r["n_z"]: r for r in payload["rows"]}
    assert rows[10]["macs_compression"] == 18080
    assert rows[10]["macs_classification"] == 44704
    assert rows[10]["saving_percent"] == 74.13
    assert rows[100]["saving_percent"] == 35.56
    assert "n_z" in out.splitlines()[0]


def test_macs_command_is_reproducible(capsys):
    main(["macs"])
    first = capsys.readouterr().out
    main(["macs"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_exit_codes(tmp_path, capsys):
    # missing config file
    assert main(["macs", "--config", str(tmp_path / "nope.json")]) == 2
    # invalid config content
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": True}))
    assert main(["evaluate", "--config", str(bad)]) == 2
    # evaluate before train-base: missing checkpoint
    cfg = tiny_config_file(tmp_path)
    assert main(["evaluate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "train-base" in err
    # a subset too small for the grid fails before any training
    assert main(["train-base", "--subset", "50",
                 "--out", str(tmp_path / "small")]) == 2
    assert "over-determined" in capsys.readouterr().err
    assert not (tmp_path / "small").exists()
    # a retrain setting that only the retrain stage reads fails before
    # train-base trains or writes anything
    bad_dir = tmp_path / "bad_epochs"
    bad_dir.mkdir()
    bad_epochs = tiny_config_file(bad_dir, retrain=dict(
        TINY["retrain"], finetune_epochs=-1))
    assert main(["train-base", "--config", bad_epochs]) == 2
    assert "retrain epochs" in capsys.readouterr().err
    assert not (bad_dir / "out").exists()
    # a grid past the first layer's width fails before any training
    wide_dir = tmp_path / "wide"
    wide_dir.mkdir()
    wide = tiny_config_file(wide_dir, model_layer_sizes=[784, 8, 10])
    assert main(["train-base", "--config", wide]) == 2
    assert "informative" in capsys.readouterr().err
    assert not (wide_dir / "out").exists()
    # input paths that are directories
    assert main(["macs", "--config", str(tmp_path)]) == 2
    assert "cannot read config file %s" % tmp_path in capsys.readouterr().err
    idx_dir = tmp_path / "idx"
    idx_dir.mkdir()
    folders = tiny_config_file(idx_dir, dataset=dict(
        TINY["dataset"], **{split + part: str(idx_dir)
                            for split in ("train", "test")
                            for part in ("_images", "_labels")}))
    assert main(["hz-test", "--config", folders]) == 2
    assert "cannot read IDX file %s" % idx_dir in capsys.readouterr().err
    assert not (idx_dir / "out").exists()
    # retrain trains heads on OIB codes, so it refuses a grid without oib
    # before it reads anything
    pca_dir = tmp_path / "pca"
    pca_dir.mkdir()
    pca_only = tiny_config_file(pca_dir, compressor_kinds=["pca"])
    for mode in ("per_rho_head", "per_rho_on_z"):
        assert main(["retrain", "--mode", mode, "--config", pca_only]) == 2
        assert "needs oib" in capsys.readouterr().err
    assert not (pca_dir / "out").exists()


def test_top_level_names_are_those_of_their_modules():
    import oib
    from oib import config, datasets, gib_compressor, info_metrics
    modules = {"ExperimentConfig": config, "run_experiment": pipeline,
               "SyntheticGaussianSpec": datasets, "synth_gaussian": datasets,
               "solve_gib": gib_compressor,
               "compressor_at_size": gib_compressor,
               "encode": gib_compressor, "encoding_mi": info_metrics}
    for name, module in modules.items():
        assert getattr(oib, name) is getattr(module, name), name


def test_cli_module_invocation_exit_code():
    proc = subprocess.run([sys.executable, "-m", "oib.cli", "macs"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    missing = subprocess.run([sys.executable, "-m", "oib.cli", "evaluate",
                              "--config", "/nonexistent.json"],
                             capture_output=True, text=True)
    assert missing.returncode == 2


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """Run train-base, fit-oib, and evaluate once on a tiny config."""
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg = tiny_config_file(tmp_path)
    for command in ("train-base", "fit-oib", "evaluate"):
        assert main([command, "--config", cfg]) == 0
    return cfg, tmp_path / "out"


def test_cli_stage_composition(cli_run, capsys):
    cfg, out_dir = cli_run
    assert (out_dir / "base_transform.json").exists()
    assert (out_dir / "base_raw.bin").exists()
    assert (out_dir / "training_trace.json").exists()
    for kind in ("oib", "cca", "pca"):
        for n_z in (5, 10):
            assert (out_dir / "compressors" / ("%s_%03d.bin" % (kind, n_z))
                    ).exists()
            assert (out_dir / "reexpanders" / ("%s_%03d.json" % (kind, n_z))
                    ).exists()

    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["records"]) == 6
    csv_lines = (out_dir / "records.csv").read_text().splitlines()
    assert csv_lines[0] == ("kind,n_z,rho,accuracy,entropy_nats,mi_nats,"
                            "mse,macs_comp,macs_class")
    assert len(csv_lines) == 7

    assert main(["retrain", "--config", cfg, "--mode", "per_rho_on_z"]) == 0
    assert (out_dir / "heads" / "bank_005.json").exists()
    assert (out_dir / "heads" / "bank_010.json").exists()

    with pytest.raises(SystemExit) as exc:
        main(["retrain", "--config", cfg, "--mode", "average"])
    assert exc.value.code == 2
    assert main(["retrain", "--config", cfg]) == 0
    retrain_report = json.loads((out_dir / "retrain_report.json").read_text())
    assert retrain_report["mode"] == "per_rho_head"
    assert {r["n_z"] for r in retrain_report["records"]} == {5, 10}
    assert all("accuracy_average" in r for r in retrain_report["records"])
    assert (out_dir / "heads" / "average.json").exists()
    assert (out_dir / "heads" / "per_rho_010.json").exists()

    assert main(["hz-test", "--config", cfg]) == 0
    hz = json.loads((out_dir / "hz_report.json").read_text())
    assert hz["total"] == 20
    assert 0 <= hz["transform_wins"] <= 20
    capsys.readouterr()


def test_bank_accuracies_are_those_of_the_saved_heads(cli_run, capsys):
    cfg, out_dir = cli_run
    assert main(["retrain", "--config", cfg, "--mode", "per_rho_on_z"]) == 0
    capsys.readouterr()
    report = json.loads((out_dir / "bank_report.json").read_text())
    assert report["mode"] == "per_rho_on_z"
    config = load_config(cfg)
    train_set, test_set = pipeline.build_dataset(config)
    _, features = pipeline.domain_features(config, train_set, test_set)
    x_test = features[pipeline.TRANSFORM][1]
    assert [r["n_z"] for r in report["records"]] == config.n_z_grid
    for record in report["records"]:
        n_z = record["n_z"]
        head = load_model(str(out_dir / "heads" / ("bank_%03d" % n_z)))
        comp = load_compressor(str(out_dir / "compressors"
                                   / ("oib_%03d" % n_z)))
        assert record["accuracy_bank"] == accuracy(
            head, encode(comp, x_test), test_set.labels)


def test_damaged_artifact_exits_2(cli_run, tmp_path, capsys):
    cfg, out_dir = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    manifest = copy / "compressors" / "oib_010.json"
    manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()),
                                        n_z=11)))
    assert main(["evaluate", "--config", cfg, "--out", str(copy)]) == 2
    assert "oib_010" in capsys.readouterr().err


@pytest.mark.parametrize("command, blob, offset, dtype", [
    ("fit-oib", "base_transform.bin", 0, "<f4"),
    ("fit-oib", "base_raw.bin", 0, "<f4"),
    ("evaluate", "base_raw.bin", 0, "<f4"),
    ("evaluate", "base_transform.bin", -1, "<f4"),
    ("retrain", "base_transform.bin", -1, "<f4"),
    ("train-base", "dataset.bin", 0, "<f8"),
    ("fit-oib", "dataset.bin", 0, "<f8"),
    ("hz-test", "dataset.bin", -1, "<f8"),
    ("evaluate", "dataset.bin", -1, "<f8"),
    ("evaluate", "compressors/oib_010.bin", 0, "<f8"),
    ("evaluate", "reexpanders/oib_005.bin", -1, "<f8")])
def test_a_non_finite_value_in_an_artifact_exits_2(
        cli_run, tmp_path, capsys, command, blob, offset, dtype):
    cfg, out_dir = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    if blob == "dataset.bin" and offset == -1:
        # the last test pixel: the labels follow the pixels
        manifest = json.loads((copy / "dataset.json").read_text())
        offset = (manifest["n_train"] + manifest["n_test"]) \
            * manifest["height"] * manifest["width"] - 1
    values = np.fromfile(copy / blob, dtype=dtype)
    values[offset] = np.nan
    values.tofile(copy / blob)
    before = {p: p.stat().st_mtime_ns for p in copy.rglob("*")}
    assert main([command, "--config", cfg, "--out", str(copy)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("damaged data: ")
    assert blob + " holds a non-finite value" in err
    assert err.count("\n") == 1
    assert {p: p.stat().st_mtime_ns for p in copy.rglob("*")} == before


def test_each_retrain_mode_keeps_its_own_report(cli_run, tmp_path, capsys):
    cfg, out_dir = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    common = ["--config", cfg, "--out", str(copy)]
    assert main(["retrain"] + common) == 0
    per_size = (copy / "retrain_report.json").read_bytes()
    assert main(["retrain", "--mode", "per_rho_on_z"] + common) == 0
    capsys.readouterr()
    assert (copy / "retrain_report.json").read_bytes() == per_size
    assert json.loads(per_size)["mode"] == "per_rho_head"
    bank = json.loads((copy / "bank_report.json").read_text())
    assert bank["mode"] == "per_rho_on_z"
    assert [r["n_z"] for r in bank["records"]] == TINY["n_z_grid"]


def _unfitted_copy(out_dir, tmp_path):
    """A copy of ``out_dir`` without what fit-oib wrote."""
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy, ignore=shutil.ignore_patterns(
        "compressors", "reexpanders"))
    return copy


def _fails_numerically(cfg, copy, capsys):
    """fit-oib into ``copy`` exits 3 with one stderr line, storing nothing."""
    assert main(["fit-oib", "--config", cfg, "--out", str(copy)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and err.count("\n") == 1
    assert not (copy / "compressors").exists()
    assert not (copy / "reexpanders").exists()
    return err


def test_a_non_finite_mi_fails_the_fit(cli_run, tmp_path, monkeypatch,
                                       capsys):
    cfg, out_dir = cli_run
    copy = _unfitted_copy(out_dir, tmp_path)
    monkeypatch.setattr(pipeline, "encoding_mi",
                        lambda a, cov, prefixes: np.full(len(a), np.nan))
    assert "oib compressor at n_z=5" in _fails_numerically(cfg, copy, capsys)


@pytest.mark.parametrize("decomposition", ["eigh", "svd", "solve",
                                           "cholesky"])
def test_a_decomposition_that_does_not_converge_exits_3(
        cli_run, tmp_path, monkeypatch, capsys, decomposition):
    cfg, out_dir = cli_run
    copy = _unfitted_copy(out_dir, tmp_path)

    def diverges(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")
    monkeypatch.setattr(np.linalg, decomposition, diverges)
    _fails_numerically(cfg, copy, capsys)


@pytest.mark.parametrize("command, module, name", [
    ("evaluate", np.linalg, "cholesky"),
    ("hz-test", scipy.linalg, "cho_factor")])
def test_a_factorization_failing_after_the_fit_exits_3(
        cli_run, tmp_path, monkeypatch, capsys, command, module, name):
    cfg, out_dir = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)

    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")
    monkeypatch.setattr(module, name, fails)
    assert main([command, "--config", cfg, "--out", str(copy)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and err.count("\n") == 1


def test_evaluate_is_deterministic_across_runs(cli_run, capsys):
    cfg, out_dir = cli_run
    first = (out_dir / "records.csv").read_text()
    first_report = json.loads((out_dir / "report.json").read_text())
    assert main(["evaluate", "--config", cfg]) == 0
    capsys.readouterr()
    second = (out_dir / "records.csv").read_text()
    second_report = json.loads((out_dir / "report.json").read_text())
    assert first == second
    first_report["metadata"].pop("created")
    second_report["metadata"].pop("created")
    assert first_report == second_report


def test_cli_records_equal_run_experiment(cli_run, tmp_path):
    cfg, out_dir = cli_run
    config = apply_overrides(load_config(cfg), out=str(tmp_path))
    result = pipeline.evaluate(pipeline.fit(pipeline.prepare(config)))
    pipeline.write_evaluation(result, str(tmp_path))
    assert (tmp_path / "records.csv").read_bytes() == \
        (out_dir / "records.csv").read_bytes()


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_stages_skip_work_they_do_not_use(cli_run, monkeypatch, capsys):
    cfg, _ = cli_run
    # every stage after train-base loads the corpus it saved
    rendered = counting(monkeypatch, pipeline, "synthetic_digits")
    assert main(["fit-oib", "--config", cfg]) == 0
    trained = counting(monkeypatch, pipeline, "train")
    loaded = counting(monkeypatch, cli, "load_model")
    assert main(["hz-test", "--config", cfg]) == 0
    assert trained == [] and loaded == []

    solved = counting(monkeypatch, pipeline, "solve_gib")
    fitted = counting(monkeypatch, pipeline, "fit_domain")
    measured = counting(monkeypatch, pipeline, "encoding_mi")
    fitted_per_command = []
    for command in (["evaluate"], ["retrain"],
                    ["retrain", "--mode", "per_rho_on_z"]):
        assert main(command + ["--config", cfg]) == 0
        fitted_per_command.append(len(fitted))
        fitted.clear()
    assert solved == [] and trained == [] and rendered == []
    # evaluate and the per-size heads read both networks; the bank, which
    # trains on the codes alone, reads none
    assert len(loaded) == 2 * 2
    # fit-oib fitted the domains and stored each compressor's MI, so no
    # later command fits a domain or measures an MI again
    assert fitted_per_command == [0, 0, 0]
    assert measured == []
    capsys.readouterr()


def test_saved_corpus_is_bitwise_the_rendered_one(cli_run, monkeypatch):
    cfg, out_dir = cli_run
    config = load_config(cfg)
    assert (out_dir / "dataset.json").exists()
    rendered = counting(monkeypatch, pipeline, "synthetic_digits")
    loaded = pipeline.saved_corpus(config)
    assert rendered == []
    for got, want in zip(loaded, pipeline.build_dataset(config)):
        assert got.images.values.dtype == want.images.values.dtype
        assert got.images.values.tobytes() == want.images.values.tobytes()
        assert got.labels.dtype == want.labels.dtype
        assert got.labels.tobytes() == want.labels.tobytes()
        assert (got.height, got.width) == (want.height, want.width)
    assert len(rendered) == 2


def _files(root):
    """Bytes and modification time of every file under ``root``."""
    return {path.relative_to(root): (path.read_bytes(),
                                     path.stat().st_mtime_ns)
            for path in root.rglob("*") if path.is_file()}


def test_corpus_of_other_settings_is_refused(cli_run, tmp_path, monkeypatch,
                                             capsys):
    cfg, out_dir = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    saved = _files(copy)
    other_n_test = tmp_path / "n_test.json"
    other_n_test.write_text(json.dumps(dict(
        TINY, dataset=dict(TINY["dataset"], n_test=120))))
    rendered = counting(monkeypatch, pipeline, "synthetic_digits")
    trained = counting(monkeypatch, pipeline, "train")
    for command in (["hz-test", "--config", cfg, "--seed", "1"],
                    ["hz-test", "--config", str(other_n_test)],
                    ["evaluate", "--config", cfg, "--seed", "1"],
                    ["train-base", "--config", cfg, "--seed", "1"]):
        assert main(command + ["--out", str(copy)]) == 2, command
        err = capsys.readouterr().err
        assert str(copy / "dataset") in err and "--out" in err
    assert rendered == [] and trained == []
    assert _files(copy) == saved


def test_damaged_corpus_exits_2(cli_run, tmp_path, monkeypatch, capsys):
    cfg, out_dir = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    blob = copy / "dataset.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    damaged = blob.read_bytes()
    rendered = counting(monkeypatch, pipeline, "synthetic_digits")
    for command in (["evaluate"], ["hz-test"], ["train-base"]):
        assert main(command + ["--config", cfg, "--out", str(copy)]) == 2
        assert str(copy / "dataset") in capsys.readouterr().err
    assert rendered == []
    # train-base no longer renders over a damaged corpus of its own key
    assert blob.read_bytes() == damaged


def test_train_base_reuses_a_matching_corpus(cli_run, tmp_path, monkeypatch,
                                             capsys):
    cfg, out_dir = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    corpus = {name: files for name, files in _files(copy).items()
              if name.stem == "dataset"}
    assert len(corpus) == 2
    rendered = counting(monkeypatch, pipeline, "synthetic_digits")
    for _ in range(2):
        assert main(["train-base", "--config", cfg, "--out", str(copy)]) == 0
    capsys.readouterr()
    assert rendered == []
    after = _files(copy)
    assert {name: after[name] for name in corpus} == corpus
    # the loaded corpus is bitwise the rendered one, so are the networks
    for name in ("base_transform.bin", "base_raw.bin"):
        assert (copy / name).read_bytes() == (out_dir / name).read_bytes()


@pytest.mark.parametrize("setting", [
    pytest.param({"model_layer_sizes": [784, 32, 10]}, id="layer_sizes"),
    pytest.param({"train": {"epochs": 3}}, id="epochs")])
def test_base_checkpoint_of_other_settings_exits_2(cli_run, tmp_path,
                                                   monkeypatch, capsys,
                                                   setting):
    cfg, out_dir = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    saved = _files(copy)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(TINY, **setting)))
    fitted = counting(monkeypatch, pipeline, "fit_domain")
    for command in (["fit-oib"], ["evaluate"], ["retrain"]):
        assert main(command + ["--config", str(other),
                               "--out", str(copy)]) == 2, command
        err = capsys.readouterr().err
        assert str(copy / "base_transform") in err and "train-base" in err
    assert fitted == []
    assert _files(copy) == saved


def test_fitted_artifacts_of_other_base_networks_exit_2(cli_run, tmp_path,
                                                        monkeypatch, capsys):
    # train-base again at other epochs leaves the old compressors and
    # re-expanders beside the new networks; none of them may be scored
    cfg, out_dir = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    longer = tmp_path / "longer.json"
    longer.write_text(json.dumps(dict(TINY, train={"epochs": 3})))
    assert main(["train-base", "--config", str(longer),
                 "--out", str(copy)]) == 0
    capsys.readouterr()
    saved = _files(copy)
    fitted = counting(monkeypatch, pipeline, "fit_domain")
    for command in (["evaluate"], ["retrain"],
                    ["retrain", "--mode", "per_rho_on_z"]):
        assert main(command + ["--config", str(longer),
                               "--out", str(copy)]) == 2, command
        err = capsys.readouterr().err
        assert str(copy / "compressors" / "oib_") in err and "fit-oib" in err
    assert fitted == []
    assert _files(copy) == saved


def _drop_key(path):
    manifest = json.loads(path.read_text())
    del manifest["key"]
    path.write_text(json.dumps(manifest))


def _rewrite(path, change):
    path.write_text(json.dumps(change(json.loads(path.read_text()))))


def _as_compressor_v1(manifest):
    """A compressor manifest as written before compressors carried MI."""
    old = {k: v for k, v in manifest.items() if k != "mi_nats"}
    return dict(old, format="compressor-v1")


@pytest.mark.parametrize("damage, stem, remedy", [
    pytest.param(lambda copy: _drop_key(copy / "reexpanders" / "pca_010.json"),
                 "reexpanders/pca_010", True, id="manifest_without_key"),
    pytest.param(lambda copy: (copy / "compressors" / "oib_010.bin").unlink(),
                 "compressors/oib_010", False, id="missing_blob"),
    pytest.param(lambda copy: _rewrite(copy / "compressors" / "cca_005.json",
                                       _as_compressor_v1),
                 "compressors/cca_005", True, id="compressor_v1_without_mi"),
    pytest.param(lambda copy: _rewrite(copy / "compressors" / "pca_010.json",
                                       lambda m: dict(m, mi_nats="NaN")),
                 "compressors/pca_010", False, id="mi_not_a_number")])
def test_unkeyed_or_blobless_artifact_exits_2(cli_run, tmp_path, capsys,
                                              damage, stem, remedy):
    cfg, out_dir = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    damage(copy)
    assert main(["evaluate", "--config", cfg, "--out", str(copy)]) == 2
    err = capsys.readouterr().err
    assert str(copy / stem) in err
    # a manifest of an older format or another key says what to rerun
    assert ("fit-oib" in err) == remedy


def test_output_dir_that_is_a_file_exits_2_before_work(tmp_path, monkeypatch,
                                                       capsys):
    cfg = tiny_config_file(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    rendered = counting(monkeypatch, pipeline, "synthetic_digits")
    trained = counting(monkeypatch, pipeline, "train")
    for command in (["train-base"], ["hz-test"]):
        for out in (taken, taken / "sub"):
            assert main(command + ["--config", cfg, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert str(out) in err and "not a directory" in err
    # macs and synth-check write nothing there, so they run
    for command in (["macs"], ["synth-check"]):
        for out in (taken, taken / "sub"):
            assert main(command + ["--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    file_config = tmp_path / "file_config.json"
    file_config.write_text(json.dumps(dict(TINY, output_dir=str(taken))))
    assert main(["train-base", "--config", str(file_config)]) == 2
    assert "not a directory" in capsys.readouterr().err
    assert rendered == [] and trained == []
    assert taken.read_text() == "not a directory"


def test_stages_into_an_empty_out_exit_2_before_rendering(tmp_path,
                                                          monkeypatch, capsys):
    # the first stored artifact a command reads, a base checkpoint or,
    # for the bank, which reads no network, the first OIB compressor, is
    # read before a missing corpus is rendered
    cfg = tiny_config_file(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    rendered = counting(monkeypatch, pipeline, "synthetic_digits")
    trained = counting(monkeypatch, pipeline, "train")
    for command, first in (
            (["fit-oib"], "base_transform"), (["evaluate"], "base_transform"),
            (["retrain", "--mode", "per_rho_head"], "base_transform"),
            (["retrain", "--mode", "per_rho_on_z"], "oib_005")):
        assert main(command + ["--config", cfg, "--out", str(empty)]) == 2
        err = capsys.readouterr().err
        assert first in err and "train-base" in err, command
    assert rendered == [] and trained == []
    assert list(empty.iterdir()) == []


def test_pca_only_experiment_writes_no_heads(tmp_path):
    config = config_from_dict(dict(TINY, compressor_kinds=["pca"]))
    pipeline.run_experiment(config, out_dir=str(tmp_path))
    for name in ("report.json", "records.csv", "hz_report.json"):
        assert (tmp_path / name).exists(), name
    with open(tmp_path / "records.csv") as fh:
        kinds = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
    assert kinds == ["pca"] * len(TINY["n_z_grid"])
    assert not (tmp_path / "heads").exists()
    assert not (tmp_path / "retrain_report.json").exists()


def test_synth_check_passes(capsys):
    assert main(["synth-check"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]
    assert all(c["ok"] for c in payload["checks"].values())
    names = set(payload["checks"])
    assert {"loading_structure_residual", "projection_optimality_margin",
            "loading_invariance_spread", "ls_vs_population_relative",
            "mse_entropy_gap", "all_zero_below_first_critical"} <= names


def write_idx_pair(tmp_path, split, n, seed, side=28, n_classes=10):
    """side x side IDX files with unequal class frequencies."""
    rng = np.random.default_rng(seed)
    weights = np.arange(1, n_classes + 1)
    labels = rng.choice(n_classes, size=n, p=weights / weights.sum())
    images = DataMatrix(np.round(rng.random((n, side * side)) * 255.0)
                        / 255.0)
    image_set = LabeledImageSet(images=images, labels=labels, height=side,
                                width=side)
    paths = (str(tmp_path / (split + "_images.idx")),
             str(tmp_path / (split + "_labels.idx")))
    save_idx(image_set, *paths)
    return image_set, paths


def test_idx_files_feed_the_pipeline(tmp_path, capsys):
    full_train, (train_images, train_labels) = write_idx_pair(
        tmp_path, "train", 300, seed=1)
    _, (test_images, test_labels) = write_idx_pair(tmp_path, "test", 60,
                                                   seed=2)
    data = dict(TINY, output_dir=str(tmp_path / "out"),
                dataset={"train_images": train_images,
                         "train_labels": train_labels,
                         "test_images": test_images,
                         "test_labels": test_labels,
                         "n_train": 150, "n_test": 40})
    config = config_from_dict(data)
    assert config.dataset.from_files
    train_set, test_set = pipeline.build_dataset(config)
    assert (train_set.n_samples, test_set.n_samples) == (150, 40)
    assert (train_set.height, train_set.width) == (28, 28)
    # class-stratified: every class within one image of its share
    for cls in range(10):
        share = np.sum(full_train.labels == cls) * 150 / 300
        assert abs(np.sum(train_set.labels == cls) - share) < 1.0
    # rows are file rows, in file order
    rows = {row.tobytes(): i for i, row in enumerate(full_train.images.values)}
    order = [rows[row.tobytes()] for row in train_set.images.values]
    assert order == sorted(order)

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    assert main(["hz-test", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 20
    assert (tmp_path / "out" / "hz_report.json").exists()
    # IDX inputs are read from their files; train-base saves no corpus
    assert main(["train-base", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "base_transform.bin").exists()
    assert not (tmp_path / "out" / "dataset.json").exists()
    assert not (tmp_path / "out" / "dataset.bin").exists()

    # a file with fewer images than n_train is refused before training
    # (it used to train on the 60 images and fail in the re-expander fit)
    _, (small_images, small_labels) = write_idx_pair(tmp_path, "small", 60,
                                                     seed=3)
    small = dict(data, output_dir=str(tmp_path / "small_out"),
                 dataset=dict(data["dataset"], train_images=small_images,
                              train_labels=small_labels))
    cfg.write_text(json.dumps(small))
    assert main(["train-base", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert small_images in err and "60" in err and "150" in err
    assert not (tmp_path / "small_out").exists()


def test_base_networks_of_other_idx_files_exit_2(tmp_path, capsys):
    # the saved networks were trained on another IDX pair of the same sizes
    paths = {}
    for split, n, seed in (("train", 300, 1), ("test", 60, 2),
                           ("other", 300, 3)):
        _, paths[split] = write_idx_pair(tmp_path, split, n, seed)
    dataset = {"n_train": 150, "n_test": 40,
               "train_images": paths["train"][0],
               "train_labels": paths["train"][1],
               "test_images": paths["test"][0],
               "test_labels": paths["test"][1]}
    out = str(tmp_path / "out")
    for name, images, labels in (("first", *paths["train"]),
                                 ("second", *paths["other"])):
        data = dict(TINY, output_dir=out, dataset=dict(
            dataset, train_images=images, train_labels=labels))
        (tmp_path / (name + ".json")).write_text(json.dumps(data))
    assert main(["train-base", "--config", str(tmp_path / "first.json")]) == 0
    capsys.readouterr()
    assert main(["fit-oib", "--config", str(tmp_path / "second.json")]) == 2
    assert str(tmp_path / "out" / "base_transform") in capsys.readouterr().err
    assert not (tmp_path / "out" / "compressors").exists()


@pytest.mark.parametrize("side, n_classes, message", [
    (28, 12, "label 11 is past the model's 10 outputs"),
    (20, 10, "20x20 images; the model takes 784 inputs")])
def test_idx_files_that_do_not_fit_the_model_exit_2(tmp_path, capsys, side,
                                                    n_classes, message):
    # stage 1 refuses them; training would die with an IndexError or a
    # matmul ValueError that escapes main
    dataset = {"n_train": 150, "n_test": 40}
    for split, n, seed in (("train", 300, 1), ("test", 60, 2)):
        _, (images, labels) = write_idx_pair(tmp_path, split, n, seed,
                                             side=side, n_classes=n_classes)
        dataset.update({split + "_images": images, split + "_labels": labels})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"),
                                   dataset=dataset)))
    assert main(["train-base", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stochastic_encoding_moves_only_accuracy_and_mse():
    config = config_from_dict(TINY)
    result = pipeline.fit(pipeline.prepare(config))

    def records(encoding):
        result.config = dataclasses.replace(config, encoding=encoding)
        return pipeline.evaluate(result).records

    stochastic = records("stochastic")
    assert records("stochastic") == stochastic
    deterministic = records("deterministic")
    assert len(stochastic) == len(deterministic) == 6
    for noisy, exact in zip(stochastic, deterministic):
        assert noisy.mse != exact.mse
        assert dataclasses.replace(noisy, accuracy=exact.accuracy,
                                   mse=exact.mse) == exact


@pytest.fixture(scope="module")
def tiny_fit():
    """Fit and deterministic evaluate on TINY, counting every generator
    they ask numpy for."""
    result = pipeline.prepare(config_from_dict(TINY))
    generators = []
    original = np.random.default_rng

    def counted(*args, **kwargs):
        generators.append(args)
        return original(*args, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", counted)
        pipeline.evaluate(pipeline.fit(result))
    return result, generators


def _unfitted(domains):
    return {name: pipeline.DomainData(name=name, x_train=d.x_train,
                                      x_test=d.x_test, model=d.model,
                                      losses=d.losses)
            for name, d in domains.items()}


def test_fitting_the_domains_solves_no_eigensystem(tiny_fit, monkeypatch):
    result, _ = tiny_fit
    domains = _unfitted(result.domains)
    solved = counting(monkeypatch, pipeline, "solve_gib")
    pipeline.fit_all_domains(result.config, domains)
    assert solved == []
    for name, domain in domains.items():
        fitted = result.domains[name]
        assert np.array_equal(domain.cov.sigma_x, fitted.cov.sigma_x)
        assert np.array_equal(domain.pre_train, fitted.pre_train)


def test_pca_only_grid_fits_only_the_raw_domain(tiny_fit, monkeypatch):
    result, _ = tiny_fit
    config = dataclasses.replace(result.config, compressor_kinds=["pca"])
    pca_only = dataclasses.replace(result, config=config,
                                   domains=_unfitted(result.domains))
    solved = counting(monkeypatch, pipeline, "solve_gib")
    fitted = counting(monkeypatch, pipeline, "fit_domain")
    pipeline.fit(pca_only)
    assert solved == [] and len(fitted) == 1
    assert pca_only.transform.cov is None
    assert pca_only.transform.pre_train is None
    assert np.array_equal(pca_only.raw.pre_train, result.raw.pre_train)
    assert sorted(pca_only.compressors) == [("pca", n_z)
                                            for n_z in config.n_z_grid]
    for key, comp in pca_only.compressors.items():
        assert np.array_equal(comp.matrix_a, result.compressors[key].matrix_a)


def test_fit_and_evaluate_draw_no_random_numbers(tiny_fit):
    result, generators = tiny_fit
    assert result.config.encoding == "deterministic"
    assert generators == []


def test_noise_floor_is_a_tenth_of_the_rms_pre_activation(tiny_fit):
    rng = np.random.default_rng(13)
    pre = rng.standard_normal((300, 4)) * [1.0, 2.0, 3.0, 4.0] + 5.0
    assert pipeline.noise_floor(pre) == pytest.approx(
        0.1 * np.sqrt(np.mean(np.var(pre, axis=0))), rel=1e-12)
    result, _ = tiny_fit
    for domain in result.domains.values():
        w0, b0 = domain.model.layers[0]
        np.testing.assert_allclose(
            domain.pre_train,
            domain.x_train @ w0.astype(np.float64).T + b0, rtol=1e-12)
        assert domain.noise_lambda == pipeline.noise_floor(domain.pre_train)


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_reexpanders_are_the_population_lmmse_estimator(tiny_fit):
    # least squares on the noiseless pre-activations is the L-MMSE
    # estimator of the pipeline's Sigma_x, up to its shrinkage and the ridge
    result, _ = tiny_fit
    for (kind, n_z), rx in result.reexpanders.items():
        domain = result.domains[pipeline.domain_for_kind(kind)]
        a = result.compressors[(kind, n_z)].matrix_a
        w0, b0 = (p.astype(np.float64) for p in domain.model.layers[0])
        sigma_x, mu = domain.cov.sigma_x, domain.x_train.mean(axis=0)
        theta = fit_lmmse(w0 @ sigma_x @ a.T, a @ sigma_x @ a.T).theta
        mean = w0 @ mu + b0 - theta @ (a @ mu)
        assert relative_error(rx.theta, theta) < 1e-4, (kind, n_z)
        assert relative_error(rx.target_mean, mean) < 1e-4, (kind, n_z)


def test_cca_entropy_is_that_of_white_codes(tiny_fit):
    # CCA codes are white, so power-normalized z + xi is too
    result, _ = tiny_fit
    cca = [r for r in result.records if r.kind == "cca"]
    assert len(cca) == len(TINY["n_z_grid"])
    for record in cca:
        assert record.entropy_nats == pytest.approx(
            0.5 * record.n_z * LOG_2PIE, rel=1e-6)
