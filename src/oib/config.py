"""Experiment configuration: one JSON document, strict keys, full defaults.

Every setting some caller varies lives here with a working default, so
an empty config runs the reference experiment end to end.  Loading
rejects unknown keys recursively (typos fail loudly instead of silently
running the defaults) and validates value ranges, and the sample sizes
the grid and the normality test need, at construction.

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
        if self.n_train < 1 or self.n_test < 1:
            raise ConfigError("n_train and n_test must be positive")

    @property
    def from_files(self):
        return self.train_images is not None


@dataclass
class TrainSection:
    epochs: int = 30
    learning_rate: float = 1e-3
    batch_size: int = 32

    def __post_init__(self):
        if self.epochs < 0 or self.learning_rate < 0 or self.batch_size < 1:
            raise ConfigError("invalid base training settings")


@dataclass
class RetrainSection:
    """Epoch schedules for the shared average head and the per-size
    fine-tunes; their learning rates and validation split are constants
    of ``pipeline``."""

    average_epochs: int = 90
    average_decay_at: int = 60
    finetune_epochs: int = 20

    def __post_init__(self):
        if self.average_epochs < 0 or self.finetune_epochs < 0:
            raise ConfigError("retrain epochs must be non-negative")


@dataclass
class SeedsConfig:
    data_train: int = 1
    data_test: int = 2
    model_init: int = 0
    train_shuffle: int = 0
    targets_transform: int = 123
    targets_raw: int = 124
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
    noise_lambda: float = None
    shrinkage: float = 1e-4
    ridge: float = None
    encoding: str = "deterministic"
    seed: int = 0
    output_dir: str = "results"

    @property
    def seeds(self):
        return SeedsConfig().shifted(self.seed)

    def __post_init__(self):
        grid = list(self.n_z_grid)
        if not grid or grid[0] < 1 or sorted(set(grid)) != grid or \
                not all(isinstance(n, int) for n in grid):
            raise ConfigError("n_z_grid must be a non-empty, strictly "
                              "ascending list of integer sizes >= 1")
        n_x = self.model_layer_sizes[0]
        if self.n_z_grid[-1] > n_x:
            raise ConfigError("n_z_grid exceeds the input dimension %d"
                              % n_x)
        if not self.dataset.from_files and math.isqrt(n_x) ** 2 != n_x:
            raise ConfigError("model input width %d is not the pixel count "
                              "of a square rendered digit" % n_x)
        if len(self.model_layer_sizes) < 3:
            raise ConfigError("the model needs at least one hidden layer")
        unknown = set(self.compressor_kinds) - {"oib", "cca", "pca"}
        if unknown:
            raise ConfigError("unknown compressor kinds: %s"
                              % sorted(unknown))
        n_y = self.model_layer_sizes[1]
        if {"oib", "cca"} & set(self.compressor_kinds) and \
                self.n_z_grid[-1] > n_y:
            raise ConfigError("n_z_grid exceeds the %d informative "
                              "directions oib and cca have" % n_y)
        if self.encoding not in ("deterministic", "stochastic"):
            raise ConfigError("encoding must be deterministic or "
                              "stochastic")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not 0.0 <= self.shrinkage < 1.0:
            raise ConfigError("shrinkage must lie in [0, 1)")
        for name in ("noise_lambda", "ridge"):
            if getattr(self, name) is not None and getattr(self, name) < 0:
                raise ConfigError("%s must be non-negative" % name)
        if self.dataset.n_train <= self.n_z_grid[-1]:
            raise ConfigError("dataset.n_train (%d) must exceed the largest "
                              "n_z (%d): the least-squares re-expansion "
                              "needs an over-determined system"
                              % (self.dataset.n_train, self.n_z_grid[-1]))
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
