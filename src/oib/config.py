"""Experiment configuration: one JSON document, strict keys, full defaults.

Every setting a caller outside the tests varies lives here with a working
default, so an empty config runs the reference experiment end to end;
fixed parts of the method (noise floor, shrinkage, ridge, base learning
rate and batch size) are constants of the modules that use them.
Loading rejects unknown keys recursively (typos fail loudly instead of
silently running the defaults) and validates value types and ranges, and
the sample sizes the grid and the normality test need, at construction.

Seeds are stage-scoped: each consumer of randomness owns a named seed so
results stay reproducible when stages are re-run in isolation.  A global
seed offset, ``seed``, shifts every stage seed deterministically, giving
independent replications of the whole experiment from one integer.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError

SEED_STRIDE = 100003
# Coordinates per Henze-Zirkler projection; the test needs more samples
# than dimensions, so n_test must exceed it.
HZ_PROJECTION_DIM = 10
# The share of the training images each per-size fine-tune holds out to
# choose its best epoch; when oib is on the grid, it must round to at
# least one image.
FINETUNE_VAL_FRACTION = 0.1


def _is_count(value, least):
    """Whether ``value`` is an integer (not a bool) of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and \
        value >= least


@dataclass
class DatasetConfig:
    """Where images come from: IDX files when paths are set, else the
    built-in procedural digit corpus, sized to the model's input width."""

    train_images: str = None
    train_labels: str = None
    test_images: str = None
    test_labels: str = None
    n_train: int = 10000
    n_test: int = 2000

    def __post_init__(self):
        paths = [self.train_images, self.train_labels, self.test_images,
                 self.test_labels]
        if any(p is not None for p in paths) and None in paths:
            raise ConfigError("IDX datasets need all four file paths")
        if not (_is_count(self.n_train, 1) and _is_count(self.n_test, 1)):
            raise ConfigError("dataset.n_train and n_test must be positive "
                              "integers")

    @property
    def from_files(self):
        return self.train_images is not None


@dataclass
class TrainSection:
    """Epochs of base-network training; its learning rate and batch size
    are ``TrainConfig``'s defaults."""

    epochs: int = 30

    def __post_init__(self):
        if not _is_count(self.epochs, 0):
            raise ConfigError("train.epochs must be a non-negative integer")


@dataclass
class RetrainSection:
    """Epoch schedules for the shared average head and the per-size
    fine-tunes; their learning rates are constants of ``pipeline``, and
    the fine-tunes' validation split is ``FINETUNE_VAL_FRACTION``."""

    average_epochs: int = 90
    average_decay_at: int = 60
    finetune_epochs: int = 20

    def __post_init__(self):
        if not (_is_count(self.average_epochs, 0) and
                _is_count(self.finetune_epochs, 0)):
            raise ConfigError("retrain epochs must be non-negative "
                              "integers")
        if self.average_decay_at is not None and \
                not _is_count(self.average_decay_at, 0):
            raise ConfigError("retrain.average_decay_at must be null or a "
                              "non-negative integer")


@dataclass
class SeedsConfig:
    data_train: int = 1
    data_test: int = 2
    model_init: int = 0
    train_shuffle: int = 0
    targets_transform: int = 123
    entropy_base: int = 7000
    head_average: int = 99
    head_per_rho_base: int = 350
    hz_projections: int = 5000

    def shifted(self, offset):
        values = {f.name: getattr(self, f.name) + offset * SEED_STRIDE
                  for f in dataclasses.fields(self)}
        return SeedsConfig(**values)


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model_layer_sizes: list = field(
        default_factory=lambda: [784, 256, 128, 64, 16, 10])
    train: TrainSection = field(default_factory=TrainSection)
    retrain: RetrainSection = field(default_factory=RetrainSection)
    compressor_kinds: list = field(
        default_factory=lambda: ["oib", "cca", "pca"])
    n_z_grid: list = field(default_factory=lambda: list(range(10, 101, 10)))
    encoding: str = "deterministic"
    seed: int = 0
    output_dir: str = "results"

    @property
    def seeds(self):
        return SeedsConfig().shifted(self.seed)

    def __post_init__(self):
        sizes = self.model_layer_sizes
        if len(sizes) < 3 or not all(_is_count(n, 1) for n in sizes):
            raise ConfigError("model_layer_sizes must be at least three "
                              "integer widths >= 1: input, one hidden "
                              "layer, outputs")
        grid = list(self.n_z_grid)
        if not grid or not all(_is_count(n, 1) for n in grid) or \
                sorted(set(grid)) != grid:
            raise ConfigError("n_z_grid must be a non-empty, strictly "
                              "ascending list of integer sizes >= 1")
        n_x = sizes[0]
        if grid[-1] > n_x:
            raise ConfigError("n_z_grid exceeds the input dimension %d"
                              % n_x)
        if not self.dataset.from_files and math.isqrt(n_x) ** 2 != n_x:
            raise ConfigError("model input width %d is not the pixel count "
                              "of a square rendered digit" % n_x)
        kinds = self.compressor_kinds
        if not kinds or len(set(kinds)) != len(kinds):
            raise ConfigError("compressor_kinds must be a non-empty list "
                              "of distinct kinds")
        unknown = set(kinds) - {"oib", "cca", "pca"}
        if unknown:
            raise ConfigError("unknown compressor kinds: %s"
                              % sorted(unknown))
        if {"oib", "cca"} & set(kinds) and grid[-1] > sizes[1]:
            raise ConfigError("n_z_grid exceeds the %d informative "
                              "directions oib and cca have" % sizes[1])
        if self.encoding not in ("deterministic", "stochastic"):
            raise ConfigError("encoding must be deterministic or "
                              "stochastic")
        if not _is_count(self.seed, 0):
            raise ConfigError("seed must be a non-negative integer")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("output_dir must be a non-empty path, not %r"
                              % (self.output_dir,))
        if self.dataset.n_train <= self.n_z_grid[-1]:
            raise ConfigError("dataset.n_train (%d) must exceed the largest "
                              "n_z (%d): the least-squares re-expansion "
                              "needs an over-determined system"
                              % (self.dataset.n_train, self.n_z_grid[-1]))
        if "oib" in kinds and \
                round(FINETUNE_VAL_FRACTION * self.dataset.n_train) < 1:
            raise ConfigError("dataset.n_train (%d) leaves the per-size "
                              "fine-tunes an empty validation split of "
                              "%g of the training images"
                              % (self.dataset.n_train, FINETUNE_VAL_FRACTION))
        if self.dataset.n_test <= HZ_PROJECTION_DIM:
            raise ConfigError("dataset.n_test (%d) must exceed the %d "
                              "coordinates of a normality-test projection"
                              % (self.dataset.n_test, HZ_PROJECTION_DIM))


def _build(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError("%s must be an object" % (path or "config"))
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError("unknown config key%s under %s: %s"
                          % ("s" if len(unknown) > 1 else "",
                             path or "the top level",
                             ", ".join(sorted(unknown))))
    kwargs = {}
    for name, value in data.items():
        section = known[name].type
        if dataclasses.is_dataclass(section):
            value = _build(section, value, (path + "." if path else "") + name)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError("invalid config under %s: %s"
                          % (path or "the top level", exc))


def config_from_dict(data):
    """Build a validated ExperimentConfig, rejecting unknown keys."""
    return _build(ExperimentConfig, data, "")


def load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config file not found: %s" % path)
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s"
                          % (path, exc.strerror))
    except json.JSONDecodeError as exc:
        raise ConfigError("config file %s is not valid JSON: %s"
                          % (path, exc))
    return config_from_dict(data)


def config_to_dict(config):
    return dataclasses.asdict(config)


def apply_overrides(config, seed=None, out=None, encoding=None,
                    subset_n=None):
    """Apply CLI flag overrides, returning a new config."""
    data = config_to_dict(config)
    if seed is not None:
        data["seed"] = config.seed + seed
    if out is not None:
        data["output_dir"] = out
    if encoding is not None:
        data["encoding"] = encoding
    if subset_n is not None:
        data["dataset"]["n_train"] = int(subset_n)
        data["dataset"]["n_test"] = max(int(subset_n) // 5, 1)
    return config_from_dict(data)
