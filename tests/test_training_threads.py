"""Training, fit and evaluation on one BLAS thread, and jobs side by side.

Every training, fit and evaluation pins numpy's OpenBLAS to one thread
for its duration, so no output depends on ``OPENBLAS_NUM_THREADS`` nor on
how many jobs overlap; ``train_base_models`` trains its domains
concurrently, ``retrain_heads`` its per-size fine-tunes as concurrent
stacks, and ``fit_reexpanders`` and ``evaluate_grid`` run one job per
compressor kind.
"""

import contextlib
import copy
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import oib
from oib import inference_net, pipeline
from oib.config import config_from_dict
from oib.errors import NumericalError
from oib.inference_net import BLAS_THREADS, TrainConfig, init_mlp, train
from test_config_cli import TINY

needs_pin = pytest.mark.skipif(
    BLAS_THREADS.setter is None,
    reason="numpy's BLAS has no OpenBLAS thread-count functions")

SMALL = {"model_layer_sizes": [16, 24, 12, 4], "n_z_grid": [2],
         "train": {"epochs": 3}, "dataset": {"n_train": 160, "n_test": 40}}


@contextlib.contextmanager
def blas_count(n):
    """Set numpy's BLAS thread count to ``n``, restoring it afterwards."""
    saved = BLAS_THREADS.getter()
    BLAS_THREADS.setter(n)
    try:
        yield
    finally:
        BLAS_THREADS.setter(saved)


def small_features(nan_domain=None):
    """Two domains of class blobs, 16 inputs wide; ``nan_domain`` gets a
    NaN input, so that its training diverges in its first epoch."""
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=160)
    centers = 3.0 * rng.standard_normal((4, 16))
    features = {}
    for name in ("first", "second"):
        x = centers[labels] + rng.standard_normal((160, 16))
        if name == nan_domain:
            x[0, 0] = np.nan
        features[name] = (x, x[:40])
    return features, labels


def weight_bytes(domains):
    return {name: b"".join(w.tobytes() + b.tobytes()
                           for w, b in d.model.layers)
            for name, d in domains.items()}


def recording(monkeypatch, module, name, record):
    """Replace ``module.name`` by a wrapper that calls ``record()`` first."""
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        record()
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapped)


BASE_WEIGHTS = """
import hashlib
from oib import pipeline
from oib.config import config_from_dict
config = config_from_dict({"dataset": {"n_train": 200, "n_test": 50},
                           "train": {"epochs": 2}, "n_z_grid": [5, 10]})
train_set, test_set = pipeline.build_dataset(config)
_, features = pipeline.domain_features(config, train_set, test_set)
domains = pipeline.train_base_models(config, features, train_set.labels)
for name, domain in sorted(domains.items()):
    digest = hashlib.sha256()
    for w, b in domain.model.layers:
        digest.update(w.tobytes() + b.tobytes())
    print(name, digest.hexdigest())
"""


EXPERIMENT = """
import sys
from oib import pipeline
from oib.config import ExperimentConfig, apply_overrides
config = apply_overrides(ExperimentConfig(), out=sys.argv[1], subset_n=120)
pipeline.run_experiment(config, out_dir=sys.argv[1])
"""


def tree_contents(root):
    """Every file under ``root`` by relative path: its bytes, or for
    ``report.json`` its parsed content without the ``created`` time."""
    contents = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        if path.name == "report.json":
            report = json.loads(path.read_text())
            del report["metadata"]["created"]
            contents[str(path.relative_to(root))] = report
        else:
            contents[str(path.relative_to(root))] = path.read_bytes()
    return contents


@needs_pin
def test_every_output_is_the_same_bytes_at_one_and_two_blas_threads(
        tmp_path):
    src = os.path.dirname(os.path.dirname(oib.__file__))
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", EXPERIMENT, str(out)],
                       capture_output=True, text=True, env=env, check=True,
                       timeout=300)
        trees.append(tree_contents(out))
    assert {"records.csv", "report.json", "hz_report.json",
            "retrain_report.json", "compressors/oib_010.bin",
            "reexpanders/pca_010.bin", "heads/per_rho_010.bin"} <= \
        set(trees[0])
    assert list(trees[0]) == list(trees[1])
    assert [name for name in trees[0]
            if trees[0][name] != trees[1][name]] == []


@needs_pin
def test_base_weights_are_the_same_bytes_at_one_and_two_blas_threads():
    src = os.path.dirname(os.path.dirname(oib.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", BASE_WEIGHTS],
                              capture_output=True, text=True, env=env,
                              check=True, timeout=300)
        digests.append(proc.stdout)
    assert digests[0].split()[::2] == [pipeline.RAW, pipeline.TRANSFORM]
    assert digests[0] == digests[1]


def test_one_worker_trains_the_same_bytes_as_two(monkeypatch):
    config = config_from_dict(SMALL)
    features, labels = small_features()
    got = {}
    for workers in (1, 2):
        monkeypatch.setattr(pipeline, "training_workers",
                            lambda n, workers=workers: workers)
        threads = set()
        recording(monkeypatch, pipeline, "train",
                  lambda: threads.add(threading.get_ident()))
        got[workers] = weight_bytes(
            pipeline.train_base_models(config, features, labels))
        assert len(threads) == workers
        monkeypatch.undo()
    assert got[1] == got[2]
    assert got[1]["first"] != got[1]["second"]


@needs_pin
def test_the_blas_count_is_restored_after_training():
    features, labels = small_features()
    x = features["first"][0].astype(np.float32)
    with blas_count(2):
        train(init_mlp([16, 8, 4], seed=0), x, labels,
              TrainConfig(epochs=1, seed=1))
        assert BLAS_THREADS.getter() == 2
    with blas_count(1):
        train(init_mlp([16, 8, 4], seed=0), x, labels,
              TrainConfig(epochs=1, seed=1))
        assert BLAS_THREADS.getter() == 1


@needs_pin
def test_a_worker_divergence_raises_and_restores_the_blas_count(
        monkeypatch):
    config = config_from_dict(SMALL)
    features, labels = small_features(nan_domain="second")
    monkeypatch.setattr(pipeline, "training_workers", lambda n: 2)
    raised_in = []
    original = pipeline.train

    def tracking(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        except NumericalError:
            raised_in.append(threading.get_ident())
            raise
    monkeypatch.setattr(pipeline, "train", tracking)
    with blas_count(2):
        with pytest.raises(NumericalError, match="diverged"):
            pipeline.train_base_models(config, features, labels)
        assert BLAS_THREADS.getter() == 2
    assert raised_in and raised_in[0] != threading.get_ident()


@needs_pin
def test_the_count_stays_one_while_two_trainings_overlap(monkeypatch):
    features, labels = small_features()
    both_inside = threading.Barrier(2, timeout=60)
    seen = {}

    def record():
        counts = seen.setdefault(threading.get_ident(), [])
        if not counts:
            both_inside.wait()
        counts.append(BLAS_THREADS.getter())
    recording(monkeypatch, inference_net, "_batch_loss_grads", record)

    def run(name):
        x = features[name][0].astype(np.float32)
        train(init_mlp([16, 8, 4], seed=0), x, labels,
              TrainConfig(epochs=2, seed=1))

    with blas_count(2):
        threads = [threading.Thread(target=run, args=(name,))
                   for name in features]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert BLAS_THREADS.getter() == 2
    assert len(seen) == 2
    assert all(counts and set(counts) == {1} for counts in seen.values())


@needs_pin
def test_without_the_setter_training_is_sequential_and_unpinned(
        monkeypatch):
    config = config_from_dict(SMALL)
    features, labels = small_features()
    setter = BLAS_THREADS.setter
    monkeypatch.setattr(BLAS_THREADS, "setter", None)
    assert pipeline.training_workers(2) == 1
    threads, counts = set(), set()
    recording(monkeypatch, pipeline, "train",
              lambda: threads.add(threading.get_ident()))
    recording(monkeypatch, inference_net, "_batch_loss_grads",
              lambda: counts.add(BLAS_THREADS.getter()))
    saved = BLAS_THREADS.getter()
    setter(2)
    try:
        pipeline.train_base_models(config, features, labels)
    finally:
        setter(saved)
    assert threads == {threading.get_ident()}
    assert counts == {2}


@needs_pin
def test_the_pin_holds_under_many_overlapping_holders():
    errors = []

    def hold():
        for _ in range(1000):
            with BLAS_THREADS.one_thread():
                if BLAS_THREADS.getter() != 1:
                    errors.append(BLAS_THREADS.getter())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blas_count(2):
            threads = [threading.Thread(target=hold) for _ in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert BLAS_THREADS.getter() == 2
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


@pytest.fixture(scope="module")
def evaluated():
    """Stages 1-5 of a tiny config with three sizes, in memory."""
    config = config_from_dict(dict(
        TINY, n_z_grid=[5, 10, 15],
        retrain={"average_epochs": 2, "average_decay_at": 1,
                 "finetune_epochs": 2}))
    return pipeline.evaluate(pipeline.fit(pipeline.prepare(config)))


def head_bytes(heads):
    return {name: (seed, b"".join(w.tobytes() + b.tobytes()
                                  for w, b in model.layers))
            for name, (model, seed) in heads.items()}


def test_retrained_heads_do_not_depend_on_the_stacks(evaluated,
                                                     monkeypatch):
    got = {}
    for workers in (1, 2):
        monkeypatch.setattr(pipeline, "training_workers",
                            lambda n, workers=workers: min(n, workers))
        stacks = []
        original = pipeline.finetune_head

        def counting(head, pools, *args):
            stacks.append((threading.get_ident(), sorted(pools)))
            return original(head, pools, *args)
        monkeypatch.setattr(pipeline, "finetune_head", counting)
        heads, records = pipeline.retrain_heads(evaluated.config, evaluated)
        got[workers] = head_bytes(heads), records
        assert sorted(n_z for _, sizes in stacks for n_z in sizes) == \
            [5, 10, 15]
        assert len(stacks) == len({thread for thread, _ in stacks}) == \
            workers
        monkeypatch.undo()
    assert got[1] == got[2]
    assert list(got[1][0]) == ["average", "per_rho_005", "per_rho_010",
                               "per_rho_015"]
    assert [seed for seed, _ in got[1][0].values()][1:] == [
        pipeline.head_seed(evaluated.config, n_z) for n_z in (5, 10, 15)]


def test_retraining_reads_the_evaluations_own_head_inputs(evaluated,
                                                          monkeypatch):
    n_train = len(evaluated.train_labels)
    n_y = evaluated.config.model_layer_sizes[1]
    # The result's own fields hold no float64 reconstruction (the fit's
    # target, each DomainData.pre_train, is not one of them).
    for value in vars(evaluated).values():
        for array in (value.values() if isinstance(value, dict) else
                      [value]):
            assert not (isinstance(array, np.ndarray) and
                        array.dtype == np.float64 and
                        array.shape == (n_train, n_y))
    received = []
    for name in ("train_multi_rho_head", "finetune_head"):
        original = getattr(pipeline, name)

        def wrapped(model, pools, *args, original=original):
            received.extend(pools.items())
            return original(model, pools, *args)
        monkeypatch.setattr(pipeline, name, wrapped)
    trained_on = []
    core = inference_net._train_core

    def tracking(layers, pools, *args):
        trained_on.extend(p for head_pools in pools for p in head_pools)
        return core(layers, pools, *args)
    monkeypatch.setattr(inference_net, "_train_core", tracking)
    pipeline.retrain_heads(evaluated.config, evaluated)
    grid = evaluated.config.n_z_grid
    assert sorted(n_z for n_z, _ in received) == sorted(2 * grid)
    for n_z, pool in received:
        assert pool is evaluated.head_inputs_train[n_z]
    # and the trainers hand them to _train_core without a copy
    own = [evaluated.head_inputs_train[n_z] for n_z in grid]
    assert len(trained_on) == 2 * len(grid)
    assert all(any(p is a for a in own) for p in trained_on)


@needs_pin
def test_a_head_diverging_in_a_worker_stack_raises_in_the_caller(
        evaluated, monkeypatch):
    result = copy.copy(evaluated)
    result.head_inputs_train = dict(evaluated.head_inputs_train)
    # Size 10 is in the second stack, which a pool thread trains.
    bad = result.head_inputs_train[10].copy()
    bad[:, 0] = np.nan
    result.head_inputs_train[10] = bad
    # The average head would diverge first on the NaN pool; start the
    # fine-tunes from the base network's head instead.
    monkeypatch.setattr(pipeline, "train_multi_rho_head",
                        lambda model, *args: inference_net.head_model(model))
    monkeypatch.setattr(pipeline, "training_workers", lambda n: min(n, 2))
    raised_in = []
    original = pipeline.finetune_head

    def tracking(*args):
        try:
            return original(*args)
        except NumericalError:
            raised_in.append(threading.get_ident())
            raise
    monkeypatch.setattr(pipeline, "finetune_head", tracking)
    threads = threading.active_count()
    with blas_count(2):
        with pytest.raises(NumericalError, match="diverged"):
            pipeline.retrain_heads(result.config, result)
        assert BLAS_THREADS.getter() == 2
    assert raised_in and raised_in[0] != threading.get_ident()
    assert threading.active_count() == threads


def fit_and_evaluate(result):
    """``fit_reexpanders`` and ``evaluate_grid`` on the result's fit, as
    bytes: every theta and target mean, the records and the head inputs."""
    config, domains = result.config, result.domains
    reexpanders = pipeline.fit_reexpanders(config, domains,
                                           result.compressors)
    records, inputs_tr, inputs_te = pipeline.evaluate_grid(
        config, domains, result.compressors, reexpanders,
        result.test_labels)
    return ({key: rx.theta.tobytes() + rx.target_mean.tobytes()
             for key, rx in reexpanders.items()}, records,
            {n_z: a.tobytes() for n_z, a in inputs_tr.items()},
            {n_z: a.tobytes() for n_z, a in inputs_te.items()})


def test_one_worker_fits_and_evaluates_the_same_bytes_as_two(evaluated,
                                                             monkeypatch):
    got = {}
    for workers in (1, 2):
        monkeypatch.setattr(pipeline, "training_workers",
                            lambda n, workers=workers: min(n, workers))
        threads = []
        recording(monkeypatch, pipeline, "nested_scales",
                  lambda: threads.append(threading.get_ident()))
        got[workers] = fit_and_evaluate(evaluated)
        # one nested_scales call per kind in each of the two stages, which
        # run one after the other; each stage makes its own pool, whose
        # thread need not reuse the other stage's ident
        n = len(evaluated.config.compressor_kinds)
        assert len(threads) == 2 * n
        assert len(set(threads[:n])) == len(set(threads[n:])) == workers
        monkeypatch.undo()
    assert got[1] == got[2]
    assert sorted(got[1][2]) == sorted(got[1][3]) == [5, 10, 15]


@needs_pin
def test_fit_and_evaluation_run_on_one_blas_thread(evaluated, monkeypatch):
    result = copy.copy(evaluated)
    result.domains = {name: copy.copy(domain)
                      for name, domain in evaluated.domains.items()}
    monkeypatch.setattr(pipeline, "training_workers", lambda n: min(n, 2))
    seen = {}
    for name in ("pre_activations", "sample_covariance", "solve_gib",
                 "pca_basis", "encoding_mi", "nested_scales", "fit_ls",
                 "reexpand", "gaussian_entropy"):
        recording(monkeypatch, pipeline, name,
                  lambda name=name: seen.setdefault(name, set()).add(
                      BLAS_THREADS.getter()))
    with blas_count(2):
        pipeline.evaluate(pipeline.fit(result))
        assert BLAS_THREADS.getter() == 2
    assert len(seen) == 9
    assert all(counts == {1} for counts in seen.values()), seen


@needs_pin
@pytest.mark.parametrize("stage, site", [
    ("fit_reexpanders", "fit_ls"), ("evaluate_grid", "gaussian_entropy")])
def test_a_kind_failing_in_a_pool_thread_raises_in_the_caller(
        evaluated, monkeypatch, stage, site):
    monkeypatch.setattr(pipeline, "training_workers", lambda n: min(n, 2))
    caller = threading.get_ident()
    raised_in = []
    original = getattr(pipeline, site)

    def failing(*args, **kwargs):
        if threading.get_ident() != caller:
            raised_in.append(threading.get_ident())
            raise NumericalError("injected")
        return original(*args, **kwargs)
    monkeypatch.setattr(pipeline, site, failing)
    args = {"fit_reexpanders": (evaluated.compressors,),
            "evaluate_grid": (evaluated.compressors, evaluated.reexpanders,
                              evaluated.test_labels)}[stage]
    threads = threading.active_count()
    with blas_count(2):
        with pytest.raises(NumericalError, match="injected"):
            getattr(pipeline, stage)(evaluated.config, evaluated.domains,
                                     *args)
        assert BLAS_THREADS.getter() == 2
    assert raised_in
    assert threading.active_count() == threads
