"""End-to-end experiment pipeline.

Stages, in dependency order:

1. dataset: load IDX files or render the procedural digit corpus.  The
   staged commands render it once: ``write_corpus`` saves it next to the
   base networks, keyed by ``corpus_key``, what ``build_dataset`` reads to
   render it, and every command, ``train-base`` included, gets it from
   ``saved_corpus`` when the key matches and renders only when there is
   none.  Base checkpoints, compressors and re-expanders are keyed by
   ``model_key``, what the base networks are made from.  An artifact of
   another key is refused, never rendered or trained around.
2. features: orthonormal real-packed 2D-DFT alongside the raw pixels.
3. base models: one network per domain (the transform domain carries the
   compression experiments; the raw domain exists so the PCA baseline and
   normality comparison are measured on its native inputs), trained side
   by side, one training per CPU.
4. fit: the first layer's noiseless pre-activations, the covariance pair
   through the analytic route (Sigma_xy = Sigma_x W0', Sigma_y = W0
   Sigma_x W0' + lambda^2 I, kept as Sigma_x and L_y^-1 Sigma_yx; the
   noise floor lambda enters only Sigma_y, keeping it positive definite),
   the generalized eigensystem in the target's n_y canonical-correlation
   directions (256 by default, so OIB and CCA sizes stop there), and a
   least-squares re-expander per compressor onto the noiseless
   pre-activations, for only the domains the grid's kinds run on.  The
   solution is nested: each basis (the GIB eigenvectors for OIB and CCA,
   the raw domain's PCA eigenvectors) is solved once, every (kind, n_z)
   compressor is a positive row scaling of its leading rows (the scale is
   1 for CCA and PCA, alpha_i(beta) for OIB), and MI ignores such
   scalings.  So one pair of Cholesky factors per basis gives the
   Gaussian MI I(z; y) of every size (OIB and CCA share it), and per kind
   one encode of the training features with the largest compressor and
   one Gram matrix of its codes give every size's re-expander, each the
   least-squares fit of its scaled leading codes.  The domains' covariances
   and the bases are computed one after the other on one BLAS thread; the
   kinds' re-expanders are fitted side by side, one kind per CPU on one
   BLAS thread.
5. evaluate: per (kind, n_z), accuracy of the frozen head on the head
   inputs of its own test reconstructions, the exact Gaussian entropy of
   power-normalized stochastic encodings z + xi (computed from the scaled
   leading block of the kind's one training-code covariance, drawing
   nothing), the compressor's MI, reconstruction MSE against the test
   pre-activations, and the MACs split, in grid order (n_z outer, kind
   inner).  The row scalings are derived from the compressors alone, so
   stored and fresh compressors take one path, and a set that is not
   nested is refused.
   Per OIB size it hands retraining the head inputs of its training
   reconstructions and those its record was scored from, each made once;
   no float64 reconstruction outlives the scoring of its record.  The
   kinds are evaluated side by side, one kind per CPU on one BLAS thread.
6. retrain: a single average head trained on the mixture of all grid
   sizes' head inputs, then one fine-tuned head per n_z with early stopping
   on a validation split (keeping the average head when fine-tuning does
   not help).  The per-size fine-tunes train as stacks side by side, one
   stack per CPU on one BLAS thread, each stack's heads in lockstep; a
   head is bitwise the same however the grid is split into stacks.  The
   heads and records are saved by one writer into ``retrain_report.json``.
7. normality: Henze-Zirkler p-values of random coordinate projections,
   raw versus transform domain.

``run_experiment`` and the ``oib`` subcommands share one path:
``prepare`` (stages 1-3; it renders the image sets and trains the base
networks unless it is given them), then ``fit`` and ``evaluate``, each
setting its own fields of the result, and ``retrain_heads``.  Stages 5
and 6 read no covariance, so ``evaluate`` and ``retrain`` run on the
compressors and re-expanders ``fit-oib`` stored and fit nothing.
``run_experiment`` renders in memory and saves no corpus.

Fit and deterministic evaluation draw no random numbers; every other
stage draws randomness only from its named seed in the config, so
stages rerun in isolation reproduce their outputs bitwise on the same
numpy/BLAS build and CPU kernel.  Every training, fit and evaluation runs
on one BLAS thread (``inference_net.BLAS_THREADS``), so no output file
depends on the BLAS thread count, nor on how many jobs run side by side.
Under a BLAS without OpenBLAS's thread-count functions nothing is pinned
and every job runs one after the other, so the float64 fit and what
follows it can differ in their last bits between thread counts.
"""

import csv
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from . import gaussianizer
from .complexity_model import (CLASSIFICATION, COMPRESSION, pipeline_macs)
from .config import FINETUNE_VAL_FRACTION, HZ_PROJECTION_DIM, config_to_dict
from .datasets import load_idx, subset, synthetic_digits
from .errors import ConfigError, DataFormatError, NumericalError
from .gib_compressor import (cca_compressor, compressor_at_size, encode,
                             pca_basis, pca_compressor, solve_gib)
# No function here calls ``forward_from_layer`` or ``train_head_on_z``; they
# are imported because the benchmark traces them under this module.
from .inference_net import (BLAS_THREADS, MlpModel, TrainConfig, accuracy,
                            finetune_head, forward_from_layer, head_inputs,
                            head_model, init_mlp, train, train_head_on_z,
                            train_multi_rho_head)
from .info_metrics import encoding_mi, gaussian_entropy
from .reexpander import fit_ls, reexpand
from .serialization import (config_hash, load_corpus, save_compressor,
                            save_corpus, save_model, save_reexpander,
                            validate_report, write_json)
from .tensor_stats import CovariancePair, covariance_pair, sample_covariance

TRANSFORM = "transform"
RAW = "raw"
HZ_PROJECTIONS = 20
# Shrinkage of the sample Sigma_x toward its mean-variance identity, which
# keeps it positive definite when there are fewer images than inputs.
SIGMA_X_SHRINKAGE = 1e-4
# The regression target's noise floor lambda, relative to the root mean
# pre-activation variance; it keeps Sigma_y positive definite.
NOISE_FLOOR_SCALE = 0.1
# Retraining settings no caller varies: the average head's learning rate,
# and the per-size fine-tunes' smaller rate (their validation split is
# config's, which checks it against the training set size).
AVERAGE_LEARNING_RATE = 1e-3
FINETUNE_LEARNING_RATE = 1e-4


@dataclass
class DomainData:
    """Everything the evaluation needs about one input domain."""

    name: str
    x_train: np.ndarray
    x_test: np.ndarray
    model: MlpModel
    losses: list
    noise_lambda: float = None
    cov: CovariancePair = None
    pre_train: np.ndarray = None


@dataclass
class EvalRecord:
    kind: str
    n_z: int
    rho: float
    accuracy: float
    entropy_nats: float
    mi_nats: float
    mse: float
    macs_comp: int
    macs_class: int


@dataclass
class RetrainRecord:
    n_z: int
    accuracy_non_retrained: float
    accuracy_average: float
    accuracy_per_rho: float


@dataclass
class HzRecord:
    index: int
    p_raw: float
    p_transform: float


@dataclass
class ExperimentResult:
    """What the stages hand on, each field set by the stage that makes it.

    ``head_inputs_train`` and ``head_inputs_test`` map each OIB n_z to the
    float32 ReLU of its training and test reconstructions, the inputs the
    retrained heads read; ``evaluate`` makes them once, and no float64
    reconstruction is kept.
    """

    config: object
    plan: object
    train_labels: np.ndarray
    test_labels: np.ndarray
    domains: dict
    compressors: dict = None
    reexpanders: dict = None
    records: list = None
    head_inputs_train: dict = None
    head_inputs_test: dict = None
    heads: dict = None
    retrain_records: list = None
    hz_records: list = None

    @property
    def transform(self):
        return self.domains[TRANSFORM]

    @property
    def raw(self):
        return self.domains[RAW]

    def record(self, kind, n_z):
        for rec in self.records:
            if rec.kind == kind and rec.n_z == n_z:
                return rec
        raise KeyError((kind, n_z))


def _idx_subset(images, labels, n, seed, n_inputs):
    """``n`` images of an IDX pair, refused before any training if short or
    if an image does not hold ``n_inputs`` pixels."""
    full = load_idx(images, labels)
    if full.n_samples < n:
        raise ConfigError("%s holds %d images, fewer than the %d the config "
                          "asks for" % (images, full.n_samples, n))
    if full.height * full.width != n_inputs:
        raise ConfigError("%s holds %dx%d images; the model takes %d inputs"
                          % (images, full.height, full.width, n_inputs))
    return subset(full, n, seed)


def build_dataset(config):
    """Training and test image sets per the dataset config, refused before
    any training if a label is past the model's outputs."""
    ds, sizes = config.dataset, config.model_layer_sizes
    if ds.from_files:
        train_set = _idx_subset(ds.train_images, ds.train_labels, ds.n_train,
                                config.seeds.data_train, sizes[0])
        test_set = _idx_subset(ds.test_images, ds.test_labels, ds.n_test,
                               config.seeds.data_test, sizes[0])
    else:
        size = math.isqrt(sizes[0])
        train_set = synthetic_digits(ds.n_train, config.seeds.data_train,
                                     size=size)
        test_set = synthetic_digits(ds.n_test, config.seeds.data_test,
                                    size=size)
    return _check_labels(config, train_set, test_set)


def _check_labels(config, *image_sets):
    """The image sets, refused if a label is past the model's outputs."""
    outputs = config.model_layer_sizes[-1]
    for image_set in image_sets:
        if image_set.labels.max() >= outputs:
            raise ConfigError("label %d is past the model's %d outputs"
                              % (image_set.labels.max(), outputs))
    return image_sets


def corpus_stem(out_dir):
    return os.path.join(out_dir, "dataset")


def corpus_key(config):
    """SHA-256 of everything ``build_dataset`` reads to render the corpus."""
    ds, seeds = config.dataset, config.seeds
    return config_hash({"n_train": ds.n_train, "n_test": ds.n_test,
                        "data_train": seeds.data_train,
                        "data_test": seeds.data_test,
                        "size": math.isqrt(config.model_layer_sizes[0])})


def model_key(config):
    """SHA-256 of what the base networks, and every compressor and
    re-expander fitted to them, are made from: the dataset section (IDX
    paths too), corpus key, layer sizes, epochs, init and shuffle seeds."""
    seeds = config.seeds
    return config_hash({"dataset": asdict(config.dataset),
                        "corpus": corpus_key(config),
                        "layer_sizes": config.model_layer_sizes,
                        "epochs": config.train.epochs,
                        "model_init": seeds.model_init,
                        "train_shuffle": seeds.train_shuffle})


def write_corpus(config, train_set, test_set):
    """Save a rendered corpus under the output directory with its key."""
    save_corpus(train_set, test_set, corpus_key(config),
                corpus_stem(config.output_dir))


def saved_corpus(config):
    """The (train, test) corpus ``write_corpus`` saved in the output
    directory, or None when there is none or the config reads IDX files.

    One read of the manifest decides: a corpus of another key raises
    ConfigError before its blob is read, and a damaged one of the config's
    key DataFormatError; neither is touched.
    """
    if config.dataset.from_files:
        return None
    stem = corpus_stem(config.output_dir)
    image_sets = load_corpus(stem, corpus_key(config))
    if image_sets is None:
        return None
    n_x = config.model_layer_sizes[0]
    expected = [(config.dataset.n_train, n_x), (config.dataset.n_test, n_x)]
    shapes = [s.images.values.shape for s in image_sets]
    if shapes != expected:
        raise DataFormatError("damaged artifact %s: images of shapes %s, "
                              "expected %s" % (stem, shapes, expected))
    return _check_labels(config, *image_sets)


def domain_features(config, train_set, test_set):
    """The transform-domain and raw-domain feature matrices."""
    plan = gaussianizer.RealDft2dPlan(train_set.height, train_set.width)
    x_raw_tr = train_set.images.values
    x_raw_te = test_set.images.values
    features = {
        TRANSFORM: (gaussianizer.forward(plan, x_raw_tr),
                    gaussianizer.forward(plan, x_raw_te)),
        RAW: (x_raw_tr, x_raw_te),
    }
    return plan, features


def base_train_config(config):
    return TrainConfig(epochs=config.train.epochs,
                       seed=config.seeds.train_shuffle)


def training_workers(n_jobs):
    """How many of ``side_by_side``'s jobs (trainings, or one kind's fit or
    evaluation) run at once: one per job, up to the CPUs this process may
    run on, when BLAS is pinned to one thread per job; else 1, since
    unpinned, the two base networks took 1.5-1.7x as long side by side as
    one after the other (2 cores, 2 BLAS threads)."""
    if BLAS_THREADS.setter is None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(n_jobs, len(os.sched_getaffinity(0)))
    return min(n_jobs, os.cpu_count() or 1)


def side_by_side(run, jobs):
    """``[run(job) for job in jobs]``, each job on one BLAS thread, with
    the jobs run at once.

    The calling thread runs the first job and a pool of
    ``training_workers(len(jobs)) - 1`` threads the others.  A job's
    exception re-raises here, and no thread outlives the call.  Under a
    BLAS without OpenBLAS's thread-count functions the jobs run one after
    the other, unpinned.
    """
    def pinned(job):
        with BLAS_THREADS.one_thread():
            return run(job)
    workers = training_workers(len(jobs))
    if workers == 1:
        return [pinned(job) for job in jobs]
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(pinned, job) for job in jobs[1:]]
        return [pinned(jobs[0])] + [f.result() for f in futures]


def train_base_models(config, features, train_labels):
    """One freshly initialized model per domain, trained identically.

    The domains train ``side_by_side``, each training on one BLAS thread,
    so the weights do not depend on how many run at once.  The inputs are
    cast to the weight dtype here, so that the casts live in the caller's
    heap, not a worker thread's.
    """
    cfg = base_train_config(config)
    jobs = []
    for x_tr, _ in features.values():
        model = init_mlp(config.model_layer_sizes, config.seeds.model_init)
        jobs.append((model, x_tr.astype(model.dtype, copy=False)))
    trained = side_by_side(lambda job: train(*job, train_labels, cfg), jobs)
    return {name: DomainData(name=name, x_train=x_tr, x_test=x_te,
                             model=model, losses=losses)
            for (name, (x_tr, x_te)), (model, losses)
            in zip(features.items(), trained)}


def head_seed(config, n_z):
    """The seed of the head trained or fine-tuned for size ``n_z``."""
    return config.seeds.head_per_rho_base + n_z


def noise_floor(pre):
    """lambda: ``NOISE_FLOOR_SCALE`` times the root mean variance of the
    pre-activation columns."""
    return float(NOISE_FLOOR_SCALE * np.sqrt(np.mean(pre.var(axis=0))))


def pre_activations(model, x):
    """The first layer's noiseless pre-activations of the rows of ``x``,
    in float64."""
    w0 = model.layers[0][0].astype(np.float64)
    b0 = model.layers[0][1].astype(np.float64)
    return x @ w0.T + b0


def fit_domain(config, domain, targets_seed=None, with_gib=None):
    """Training pre-activations, noise floor and covariance pair only.

    Nothing here is random.  ``config``, ``targets_seed`` and ``with_gib``
    are unread; they, and ``SeedsConfig.targets_transform``, stay only
    because ``perfbench/workloads.py`` passes them.
    """
    w0 = domain.model.layers[0][0].astype(np.float64)
    domain.pre_train = pre_activations(domain.model, domain.x_train)
    domain.noise_lambda = noise_floor(domain.pre_train)
    sigma_x = sample_covariance(domain.x_train, shrinkage=SIGMA_X_SHRINKAGE)
    sigma_xy = sigma_x @ w0.T
    sigma_y = sigma_xy.T @ w0.T + \
        domain.noise_lambda ** 2 * np.eye(w0.shape[0])
    domain.cov = covariance_pair(sigma_x, sigma_xy, sigma_y)
    return domain


def domain_for_kind(kind):
    """PCA runs on raw pixels; the supervised kinds on the transform."""
    return RAW if kind == "pca" else TRANSFORM


def fit_all_domains(config, domains):
    """Fit each domain the grid's kinds run on, the transform one first, on
    one BLAS thread.  The domains fit one after the other: side by side
    both domains' fit temporaries are held at once, and peak memory
    grows."""
    used = {domain_for_kind(kind) for kind in config.compressor_kinds}
    with BLAS_THREADS.one_thread():
        for name in (TRANSFORM, RAW):
            if name in used:
                fit_domain(config, domains[name])
    return domains


def _grid_keys(config):
    """(kind, n_z) in grid order: n_z outer, kind inner."""
    return [(kind, n_z) for n_z in config.n_z_grid
            for kind in config.compressor_kinds]


def build_compressors(config, domains):
    """Every (kind, n_z) compressor, each a row prefix of its kind's basis
    and carrying its MI on its domain's covariance pair.  A basis is
    solved, and the MI of all its prefixes taken from one ``encoding_mi``
    call, only when a kind on the grid reads it; OIB and CCA share the
    GIB basis and so their MI.  The bases are solved one after the other,
    on one BLAS thread: side by side they saved no measurable time."""
    used = {domain_for_kind(kind) for kind in config.compressor_kinds}
    bases = {}
    n_max = max(config.n_z_grid)
    with BLAS_THREADS.one_thread():
        if TRANSFORM in used:
            gib = solve_gib(domains[TRANSFORM].cov)
            bases[TRANSFORM] = gib.eigen.left_eigenvectors
        if RAW in used:
            bases[RAW] = pca_basis(domains[RAW].cov.sigma_x)
        prefix = {name: encoding_mi(basis[:n_max], domains[name].cov,
                                    prefixes=True)
                  for name, basis in bases.items()}
    compressors = {}
    for kind, n_z in _grid_keys(config):
        if kind == "oib":
            comp = compressor_at_size(gib, n_z)
        elif kind == "cca":
            comp = cca_compressor(gib, n_z)
        else:
            comp = pca_compressor(bases[RAW], n_z)
        mi = float(prefix[domain_for_kind(kind)][n_z - 1])
        if not math.isfinite(mi):
            raise NumericalError("MI of the %s compressor at n_z=%d is %r"
                                 % (kind, n_z, mi))
        compressors[(kind, n_z)] = replace(comp, mi_nats=mi)
    return compressors


# A compressor whose rows miss their scaled leading rows of the largest
# one by more than this, relative to its largest entry, is refused.
NESTING_RTOL = 1e-12


def nested_scales(config, compressors, kind):
    """Per n_z of the grid, the positive scales s with A = s·B[:n_z], where
    A is the ``kind`` compressor of that size and B the largest one.

    Every compressor of a kind is such a scaling of the leading rows of
    the largest: s is exactly 1 for CCA and PCA and
    alpha_i(beta_k)/alpha_i(beta_max) for OIB.  The scales are derived
    from the compressors alone, s_i = <a_i, b_i>/<b_i, b_i>, so stored and
    freshly fitted compressors take the same path; a set that breaks the
    rule raises DataFormatError.
    """
    n_max = max(config.n_z_grid)
    big = compressors[(kind, n_max)].matrix_a
    norms = np.einsum("ij,ij->i", big, big)
    scales = {}
    for n_z in config.n_z_grid:
        a = compressors[(kind, n_z)].matrix_a
        b = big[:n_z]
        ok = a.shape == b.shape
        if ok:
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.einsum("ij,ij->i", a, b) / norms[:n_z]
                miss = np.max(np.abs(a - s[:, None] * b))
            ok = bool(np.all(s > 0) and
                      miss <= NESTING_RTOL * np.max(np.abs(a)))
        if not ok:
            raise DataFormatError("the %s compressor at n_z=%d is not a "
                                  "positive row scaling of the leading rows "
                                  "of the one at n_z=%d" % (kind, n_z, n_max))
        scales[n_z] = s
    return scales


def fit_reexpanders(config, domains, compressors):
    """Every (kind, n_z) re-expander: one encode of the training features
    with the kind's largest compressor, one Gram matrix of its codes, and
    per size the least-squares fit of its scaled leading codes.  The kinds
    fit ``side_by_side``, one job per kind."""
    n_max = max(config.n_z_grid)

    def fit_kind(kind):
        domain = domains[domain_for_kind(kind)]
        scales = nested_scales(config, compressors, kind)
        return dict(zip(((kind, n_z) for n_z in scales), fit_ls(
            encode(compressors[(kind, n_max)], domain.x_train),
            domain.pre_train, prefixes=scales.values())))
    fits = {}
    for kind_fits in side_by_side(fit_kind, list(config.compressor_kinds)):
        fits.update(kind_fits)
    return {key: fits[key] for key in _grid_keys(config)}


def _noisy_code_entropy(cov_z):
    """Entropy of z + xi with unit-variance xi, power-normalized to a
    covariance of trace n_z, for codes z of covariance ``cov_z``."""
    s = 0.5 * (cov_z + cov_z.T)
    s[np.diag_indices_from(s)] += 1.0
    return gaussian_entropy(s * (s.shape[0] / np.trace(s)))


def evaluate_grid(config, domains, compressors, reexpanders, test_labels):
    """All (kind, n_z) records, plus the OIB head inputs for retraining.

    Returns ``(records, inputs_train, inputs_test)``.  The training side
    takes one encode per kind, with its largest compressor: each record's
    entropy comes from the scaled leading block of that code covariance,
    and the OIB training reconstructions from the scaled leading codes.
    Test codes are encoded per record.  The kinds are evaluated
    ``side_by_side``, one job per kind, so at most ``training_workers``
    kinds' codes are held at once, and the records are returned in grid
    order, n_z outer and kind inner.  The two dicts map each OIB n_z to
    the ``head_inputs`` of its training reconstructions and to the test
    ones its record was scored from, float32 in the transform network's
    dtype; each float64 reconstruction is dropped once it is scored.
    """
    used = {domain_for_kind(kind) for kind in config.compressor_kinds}
    with BLAS_THREADS.one_thread():
        pre_test = {name: pre_activations(domains[name].model,
                                          domains[name].x_test)
                    for name in used}
    heads = {name: head_model(domains[name].model) for name in used}
    n_max = max(config.n_z_grid)

    def evaluate_kind(kind):
        records, inputs_tr, inputs_te = {}, {}, {}
        domain = domains[domain_for_kind(kind)]
        scales = nested_scales(config, compressors, kind)
        codes = encode(compressors[(kind, n_max)], domain.x_train)
        code_cov = sample_covariance(codes)
        if kind != "oib":
            codes = None    # only the OIB training reconstructions read them
        for n_z, s in scales.items():
            comp, rx = compressors[(kind, n_z)], reexpanders[(kind, n_z)]
            z_test = encode(comp, domain.x_test)
            if config.encoding == "stochastic":
                rng = np.random.default_rng(
                    [config.seeds.entropy_base, n_z, 1])
                z_test = z_test + rng.standard_normal(z_test.shape)
            y_rec_test = reexpand(rx, z_test)
            x_test = head_inputs(y_rec_test, domain.model.dtype)
            macs = pipeline_macs(comp.n_x, n_z,
                                 config.model_layer_sizes[1:])
            records[(kind, n_z)] = EvalRecord(
                kind=kind, n_z=n_z, rho=comp.rho,
                accuracy=accuracy(heads[domain.name], x_test, test_labels),
                entropy_nats=float(_noisy_code_entropy(
                    s[:, None] * code_cov[:n_z, :n_z] * s)),
                mi_nats=comp.mi_nats,
                mse=float(np.mean((y_rec_test - pre_test[domain.name])
                                  ** 2)),
                macs_comp=macs.subtotal(COMPRESSION),
                macs_class=macs.subtotal(CLASSIFICATION))
            if kind == "oib":
                inputs_tr[n_z] = head_inputs(reexpand(rx, codes[:, :n_z] * s),
                                             domain.model.dtype)
                inputs_te[n_z] = x_test
        return records, inputs_tr, inputs_te
    records, inputs_tr, inputs_te = {}, {}, {}
    for done in side_by_side(evaluate_kind, list(config.compressor_kinds)):
        for merged, part in zip((records, inputs_tr, inputs_te), done):
            merged.update(part)
    return [records[key] for key in _grid_keys(config)], inputs_tr, inputs_te


def retrain_heads(config, result):
    """Average head over all sizes, then per-size fine-tuning; returns
    ``(heads, records)``, the heads keyed by their file name.

    The average head starts from the base model's head and trains on the
    mixture of every grid size's head inputs with a step-down learning
    rate.  Each per-size head then fine-tunes from the average on its own
    head inputs, with a validation split choosing the best epoch; when
    no epoch improves on the starting point, the average head is kept
    unchanged.  The fine-tunes train as ``training_workers`` stacks run
    ``side_by_side``, one per CPU, each stack one ``finetune_head`` call
    on one BLAS thread; every head is bitwise the same however the grid
    is split into stacks.  The average head, every stack and the test
    accuracies read the evaluation's head inputs as they are, without a
    copy (``evaluate_grid``).
    """
    rt = config.retrain
    labels_tr = result.train_labels
    labels_te = result.test_labels
    model = result.transform.model
    inputs = result.head_inputs_train

    avg_cfg = TrainConfig(epochs=rt.average_epochs,
                          learning_rate=AVERAGE_LEARNING_RATE,
                          seed=config.seeds.head_average,
                          lr_decay_at=rt.average_decay_at)
    average = train_multi_rho_head(model, inputs, labels_tr, avg_cfg)
    # finetune_head seeds the head of size n_z with cfg.seed + n_z, which
    # is head_seed(config, n_z).
    ft_cfg = TrainConfig(epochs=rt.finetune_epochs,
                         learning_rate=FINETUNE_LEARNING_RATE,
                         seed=head_seed(config, 0),
                         val_fraction=FINETUNE_VAL_FRACTION)
    grid = list(config.n_z_grid)
    n_stacks = training_workers(len(grid))
    tuned = {}
    for stack in side_by_side(
            lambda sizes: finetune_head(average,
                                        {n_z: inputs[n_z] for n_z in sizes},
                                        labels_tr, ft_cfg),
            [grid[i::n_stacks] for i in range(n_stacks)]):
        tuned.update(stack)
    heads, records = {"average": (average, avg_cfg.seed)}, []
    for n_z in grid:
        heads["per_rho_%03d" % n_z] = (tuned[n_z], head_seed(config, n_z))
        x_te = result.head_inputs_test[n_z]
        records.append(RetrainRecord(
            n_z=n_z,
            accuracy_non_retrained=result.record("oib", n_z).accuracy,
            accuracy_average=accuracy(average, x_te, labels_te),
            accuracy_per_rho=accuracy(tuned[n_z], x_te, labels_te)))
    return heads, records


def hz_compare(config, x_raw, x_tf):
    """Henze-Zirkler p-values on shared coordinate projections.

    Each projection draws the same coordinate subset for both domains from
    the seeded stream and tests the given rows, so the comparison isolates
    the effect of the transform.
    """
    rng = np.random.default_rng(config.seeds.hz_projections)
    records = []
    for i in range(HZ_PROJECTIONS):
        idx = rng.choice(x_raw.shape[1], size=HZ_PROJECTION_DIM,
                         replace=False)
        p_raw = gaussianizer.henze_zirkler(x_raw[:, idx]).p_value
        p_tf = gaussianizer.henze_zirkler(x_tf[:, idx]).p_value
        records.append(HzRecord(index=i, p_raw=p_raw, p_transform=p_tf))
    return records


def prepare(config, image_sets=None, models=None):
    """Stages 1-3: the dataset, both domains' features and base networks.

    ``image_sets`` is the (train, test) pair; when it is None,
    ``build_dataset(config)``.  ``models`` maps each domain to its base
    network; when it is None, ``train_base_models`` trains them.
    """
    train_set, test_set = image_sets or build_dataset(config)
    plan, features = domain_features(config, train_set, test_set)
    if models is None:
        domains = train_base_models(config, features, train_set.labels)
    else:
        domains = {name: DomainData(name=name, x_train=x_tr, x_test=x_te,
                                    model=models[name], losses=[])
                   for name, (x_tr, x_te) in features.items()}
    return ExperimentResult(
        config=config, plan=plan, train_labels=train_set.labels,
        test_labels=test_set.labels, domains=domains)


def fit(result):
    """Stage 4: the covariances, every compressor and its re-expander."""
    config, domains = result.config, result.domains
    fit_all_domains(config, domains)
    result.compressors = build_compressors(config, domains)
    result.reexpanders = fit_reexpanders(config, domains, result.compressors)
    return result


def evaluate(result):
    """Stage 5 on the result's compressors and re-expanders."""
    result.records, result.head_inputs_train, \
        result.head_inputs_test = evaluate_grid(
            result.config, result.domains, result.compressors,
            result.reexpanders, result.test_labels)
    return result


def run_experiment(config, out_dir=None):
    """Run every stage in order; optionally persist artifacts under out_dir."""
    result = evaluate(fit(prepare(config)))
    if "oib" in config.compressor_kinds:
        result.heads, result.retrain_records = retrain_heads(config, result)
    result.hz_records = hz_compare(config, result.raw.x_test,
                                   result.transform.x_test)

    if out_dir is not None:
        write_artifacts(result, out_dir)
    return result


def baseline_accuracies(result):
    return {
        "accuracy_transform_domain": accuracy(result.transform.model,
                                              result.transform.x_test,
                                              result.test_labels),
        "accuracy_raw_domain": accuracy(result.raw.model,
                                        result.raw.x_test,
                                        result.test_labels),
    }


def report_dict(result):
    """The evaluation report, validated against the packaged schema."""
    config = result.config
    report = {
        "metadata": {
            "config_hash": config_hash(config_to_dict(config)),
            "seeds": asdict(config.seeds),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "encoding": config.encoding,
            "entropy_encoding": "stochastic",
        },
        "baseline": baseline_accuracies(result),
        "records": [{
            "kind": rec.kind,
            "n_z": rec.n_z,
            "rho": rec.rho,
            "accuracy": rec.accuracy,
            "entropy_nats_normalized": rec.entropy_nats,
            "mi_nats": rec.mi_nats,
            "reconstruction_mse": rec.mse,
            "macs_compression": rec.macs_comp,
            "macs_classification": rec.macs_class,
        } for rec in result.records],
    }
    validate_report(report)
    return report


CSV_COLUMNS = [f.name for f in fields(EvalRecord)]


def write_records_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(astuple(rec) for rec in records)


def base_stem(out_dir, domain):
    return os.path.join(out_dir, "base_%s" % domain)


def _write_report(payload, out_dir, name):
    """``payload`` as the JSON report ``name`` in ``out_dir``, which is
    made if missing; returns the payload."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        write_json(payload, fh)
    return payload


def write_base_artifacts(result, out_dir):
    """The keyed base checkpoints, and the training trace it returns."""
    os.makedirs(out_dir, exist_ok=True)
    config = result.config
    for name in (TRANSFORM, RAW):
        save_model(result.domains[name].model, base_stem(out_dir, name),
                   train_config=base_train_config(config),
                   seed=config.seeds.model_init, key=model_key(config))
    trace = {name: result.domains[name].losses for name in (TRANSFORM, RAW)}
    trace["baseline"] = baseline_accuracies(result)
    return _write_report(trace, out_dir, "training_trace.json")


def artifact_stem(out_dir, group, kind, n_z):
    return os.path.join(out_dir, group, "%s_%03d" % (kind, n_z))


def write_fit_artifacts(result, out_dir):
    key = model_key(result.config)
    for group in ("compressors", "reexpanders"):
        os.makedirs(os.path.join(out_dir, group), exist_ok=True)
    for (kind, n_z), comp in result.compressors.items():
        save_compressor(comp, artifact_stem(out_dir, "compressors", kind,
                                            n_z), key)
    for (kind, n_z), rx in result.reexpanders.items():
        save_reexpander(rx, artifact_stem(out_dir, "reexpanders", kind,
                                          n_z), key)


def write_evaluation(result, out_dir):
    _write_report(report_dict(result), out_dir, "report.json")
    write_records_csv(result.records, os.path.join(out_dir, "records.csv"))


def write_retrain_artifacts(heads, records, out_dir):
    """Each ``(model, seed)`` of ``heads`` under ``heads/`` by its name,
    and ``retrain_report.json``; returns the report."""
    os.makedirs(os.path.join(out_dir, "heads"), exist_ok=True)
    for name, (head, seed) in heads.items():
        save_model(head, os.path.join(out_dir, "heads", name), seed=seed)
    return _write_report({"mode": "per_rho_head",
                          "records": [asdict(r) for r in records]},
                         out_dir, "retrain_report.json")


def write_hz_report(hz_records, out_dir):
    """``hz_report.json`` for the given projections; returns its payload."""
    records = [asdict(r) for r in hz_records]
    wins = sum(r["p_transform"] > r["p_raw"] for r in records)
    return _write_report({"projections": records, "transform_wins": wins,
                          "total": len(records)}, out_dir, "hz_report.json")


def write_artifacts(result, out_dir):
    write_base_artifacts(result, out_dir)
    write_fit_artifacts(result, out_dir)
    write_evaluation(result, out_dir)
    if result.retrain_records is not None:
        write_retrain_artifacts(result.heads, result.retrain_records,
                                out_dir)
    write_hz_report(result.hz_records, out_dir)
