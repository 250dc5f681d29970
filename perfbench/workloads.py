"""The benchmark's workloads: set-up, one timed operation, exact checks.

Each workload builds its inputs from the seed alone.  ``setup`` is called
several times so that its median can be reported; the runner then calls
``op`` until the measuring time is over.  ``op`` returns the group it
timed (the n_z for ``serve``, otherwise the workload name) and the
seconds the timed calls took, and checks its own results outside that
interval.  Every check is one attempted operation in ``tally``.

The sizes are chosen so that one run of every workload fits in well under
a minute on a 2-core machine while keeping every stage that a default run
executes.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
import sys
import time
import traceback

import numpy as np

from oib import (cli, complexity_model, config, gaussianizer,
                 gib_compressor, inference_net, pipeline, reexpander)
from oib.errors import OibError

import layers

SERVE_NZ = layers.SERVE_NZ
LOGIT_RTOL = 1e-4
MI_RTOL = 1e-9


class Tally:
    """Counts attempted and failed checks; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def error(self, what):
        """An operation raised: count it as attempted and failed."""
        traceback.print_exc(file=sys.stderr)
        self.check(False, "%s raised" % what)


def sha256_files(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def weights_sha256(models):
    """SHA-256 of the float32 weights in checkpoint byte order."""
    digest = hashlib.sha256()
    for model in models:
        for w, b in model.layers:
            digest.update(np.ascontiguousarray(w, dtype="<f4").tobytes())
            digest.update(np.ascontiguousarray(b, dtype="<f4").tobytes())
    return digest.hexdigest()


def last(values):
    """The latest figure, or 0 when every operation failed."""
    return values[-1] if values else 0.0


def mean_oib_accuracy(records):
    return float(np.mean([r.accuracy for r in records if r.kind == "oib"]))


def check_grid(cfg, records, tally):
    """Exact invariants of one evaluation grid, one check per record.

    Every (kind, n_z) record is present with finite fields; OIB and CCA
    share their directions, so their MI agree at every n_z (loading
    invariance); MI never decreases as n_z grows.
    """
    by_key = {(r.kind, r.n_z): r for r in records}
    for kind in cfg.compressor_kinds:
        previous = None
        for n_z in cfg.n_z_grid:
            rec = by_key.get((kind, n_z))
            ok = rec is not None and all(
                np.isfinite(getattr(rec, f.name))
                for f in dataclasses.fields(rec) if f.name != "kind")
            pair = by_key.get(("oib", n_z)), by_key.get(("cca", n_z))
            if ok and kind in ("oib", "cca") and None not in pair:
                a, b = (r.mi_nats for r in pair)
                ok = abs(a - b) <= MI_RTOL * max(abs(a), abs(b))
            if ok and previous is not None:
                ok = rec.mi_nats >= previous - MI_RTOL * abs(previous)
            tally.check(ok, "record %s n_z=%d" % (kind, n_z))
            previous = rec.mi_nats if rec is not None else previous


def check_report(result, tally):
    try:
        pipeline.report_dict(result)
        ok = True
    except OibError:
        ok = False
    tally.check(ok, "report_dict schema")


class Workload:
    """Shared state and defaults; subclasses define the operation."""

    name = None
    min_ops = 1

    def __init__(self, seed, workdir, tally):
        self.seed = seed
        self.workdir = workdir
        self.tally = tally
        self.info = {}

    def config(self, data):
        return config.apply_overrides(config.config_from_dict(data),
                                      seed=self.seed)

    def accuracy(self):
        raise NotImplementedError

    def accuracy_per_rho(self):
        return 0.0

    def finish(self):
        """Checks that need every operation done; returns nothing."""


class Experiment(Workload):
    """The paper's experiment as users run it: ``run_experiment``."""

    name = "experiment"
    # The default config with apply_overrides(subset_n=1000): more training
    # images than the 784 inputs, so every covariance has full rank, and
    # training is most of an op (inference_net.train_share, about 0.7).
    sizes = {"dataset": {"n_train": 1000, "n_test": 200}}
    warmup = {"dataset": {"n_train": 120, "n_test": 40},
              "n_z_grid": [10, 20], "train": {"epochs": 1},
              "retrain": {"average_epochs": 1, "finetune_epochs": 1}}

    def setup(self):
        # A tiny run loads what the first call would otherwise load lazily.
        pipeline.run_experiment(self.config(self.warmup))
        self.cfg = self.config(self.sizes)
        self.accuracies, self.per_rho = [], []

    def op(self, i):
        out = os.path.join(self.workdir, "experiment-%d" % i)
        start = time.perf_counter()
        result = pipeline.run_experiment(self.cfg, out_dir=out)
        elapsed = time.perf_counter() - start
        check_grid(self.cfg, result.records, self.tally)
        check_report(result, self.tally)
        self.accuracies.append(mean_oib_accuracy(result.records))
        self.per_rho.append(float(np.mean(
            [r.accuracy_per_rho for r in result.retrain_records])))
        self.info["records_csv_sha256"] = sha256_files(
            [os.path.join(out, "records.csv")])
        self.info["base_weights_sha256"] = sha256_files(
            [os.path.join(out, "base_%s.bin" % d)
             for d in (pipeline.TRANSFORM, pipeline.RAW)])
        shutil.rmtree(out)
        return self.name, elapsed

    def accuracy(self):
        return last(self.accuracies)

    def accuracy_per_rho(self):
        return last(self.per_rho)


class Sweep(Workload):
    """The closed-form side over a dense grid, with base nets trained once."""

    name = "sweep"
    sizes = {"dataset": {"n_train": 600, "n_test": 400},
             "train": {"epochs": 8},
             "n_z_grid": list(range(1, 197, 10))}

    def setup(self):
        self.cfg = self.config(self.sizes)
        self.train_set, self.test_set = pipeline.build_dataset(self.cfg)
        self.plan, features = pipeline.domain_features(
            self.cfg, self.train_set, self.test_set)
        self.domains = pipeline.train_base_models(self.cfg, features,
                                                  self.train_set.labels)
        self.info["base_weights_sha256"] = weights_sha256(
            [self.domains[d].model for d in (pipeline.TRANSFORM,
                                             pipeline.RAW)])
        self.accuracies = []

    def op(self, i):
        cfg, domains = self.cfg, self.domains
        start = time.perf_counter()
        pipeline.fit_all_domains(cfg, domains)
        compressors = pipeline.build_compressors(cfg, domains)
        reexpanders = pipeline.fit_reexpanders(cfg, domains, compressors)
        records, _, _ = pipeline.evaluate_grid(cfg, domains, compressors,
                                               reexpanders,
                                               self.test_set.labels)
        elapsed = time.perf_counter() - start
        result = pipeline.ExperimentResult(
            config=cfg, plan=self.plan, train_labels=self.train_set.labels,
            test_labels=self.test_set.labels, domains=domains,
            compressors=compressors, reexpanders=reexpanders,
            records=records)
        check_grid(cfg, records, self.tally)
        check_report(result, self.tally)
        self.accuracies.append(mean_oib_accuracy(records))
        path = os.path.join(self.workdir, "sweep-records.csv")
        pipeline.write_records_csv(records, path)
        self.info["records_csv_sha256"] = sha256_files([path])
        return self.name, elapsed

    def accuracy(self):
        return last(self.accuracies)


def serve_path(plan, comp, rx, model, x_raw):
    """Compressed inference: DFT, encoder, re-expansion, remaining layers."""
    x = gaussianizer.forward(plan, x_raw)
    z = gib_compressor.encode(comp, x)
    y = reexpander.reexpand(rx, z)
    return inference_net.forward_from_layer(model, 1, y)


class Serve(Workload):
    """One closed-loop caller sending batches through the compressed path.

    Each op serves the next ``batch`` test images at one n_z, alternating
    n_z 10 and 100, so DFT and BLAS throughput dominate.  Batch-1 latency
    of the same path is in the traced run's stage table.
    """

    name = "serve"
    batch = 128
    b1_checked = 32
    sizes = {"dataset": {"n_train": 600, "n_test": 512},
             "train": {"epochs": 10},
             "compressor_kinds": ["oib"], "n_z_grid": list(SERVE_NZ)}

    def setup(self):
        cfg = self.cfg = self.config(self.sizes)
        train_set, test_set = pipeline.build_dataset(cfg)
        self.plan, features = pipeline.domain_features(cfg, train_set,
                                                       test_set)
        tf = pipeline.TRANSFORM
        domains = pipeline.train_base_models(cfg, {tf: features[tf]},
                                             train_set.labels)
        pipeline.fit_domain(cfg, domains[tf], cfg.seeds.targets_transform,
                            with_gib=True)
        self.compressors = pipeline.build_compressors(cfg, domains)
        self.reexpanders = pipeline.fit_reexpanders(cfg, domains,
                                                    self.compressors)
        records, _, _ = pipeline.evaluate_grid(cfg, domains,
                                               self.compressors,
                                               self.reexpanders,
                                               test_set.labels)
        self.model = domains[tf].model
        self.x_raw = test_set.images.values
        self.labels = test_set.labels
        self.x_tf = features[tf][1]
        if len(self.labels) % self.batch:
            raise ValueError("n_test must be a multiple of the batch")
        self.n_batches = len(self.labels) // self.batch
        self.min_ops = len(SERVE_NZ) * self.n_batches
        self.record_accuracy = {r.n_z: r.accuracy for r in records}
        self.reference = {n_z: self.serve(n_z, self.x_raw)
                          for n_z in SERVE_NZ}
        for n_z in SERVE_NZ:
            for j in range(self.b1_checked):
                self.tally.check(
                    self.logits_match(self.serve(n_z, self.x_raw[j]),
                                      self.reference[n_z][j]),
                    "batch-1 logits n_z=%d sample %d" % (n_z, j))
        self.predictions = {n_z: np.full(len(self.labels), -1)
                            for n_z in SERVE_NZ}
        self.accuracies = {}
        self.info["base_weights_sha256"] = weights_sha256([self.model])

    def serve(self, n_z, x_raw):
        return serve_path(self.plan, self.compressors[("oib", n_z)],
                          self.reexpanders[("oib", n_z)], self.model, x_raw)

    def logits_match(self, logits, reference):
        scale = max(float(np.max(np.abs(reference))), 1.0)
        return float(np.max(np.abs(logits - reference))) <= LOGIT_RTOL * scale

    def op(self, i):
        n_z = SERVE_NZ[i % len(SERVE_NZ)]
        k = (i // len(SERVE_NZ)) % self.n_batches
        rows = slice(k * self.batch, (k + 1) * self.batch)
        comp = self.compressors[("oib", n_z)]
        rx = self.reexpanders[("oib", n_z)]
        x = self.x_raw[rows]
        start = time.perf_counter()
        logits = serve_path(self.plan, comp, rx, self.model, x)
        elapsed = time.perf_counter() - start
        self.tally.check(self.logits_match(logits, self.reference[n_z][rows]),
                         "logits n_z=%d batch %d" % (n_z, k))
        if n_z not in self.accuracies:
            self.predictions[n_z][rows] = logits.argmax(axis=1)
            if k == self.n_batches - 1:
                acc = float(np.mean(self.predictions[n_z] == self.labels))
                self.tally.check(acc == self.record_accuracy[n_z],
                                 "served accuracy at n_z=%d" % n_z)
                self.accuracies[n_z] = acc
        return n_z, elapsed

    def finish(self):
        for n_z in SERVE_NZ:
            self.tally.check(n_z in self.accuracies,
                             "a full pass over the test set at n_z=%d" % n_z)

    def accuracy(self):
        """Mean over n_z of the served accuracy."""
        return float(np.mean(list(self.accuracies.values()))) \
            if self.accuracies else 0.0


class Cli(Workload):
    """The staged ``oib`` commands, called in-process into fresh outputs."""

    name = "cli"
    sizes = {"dataset": {"n_train": 384, "n_test": 256},
             "train": {"epochs": 12},
             "retrain": {"average_epochs": 10, "average_decay_at": 7,
                         "finetune_epochs": 3}}
    commands = (["train-base"], ["fit-oib"], ["evaluate"],
                ["retrain", "--mode", "per_rho_head"], ["hz-test"])

    def setup(self):
        root = os.path.join(self.workdir, "cli")
        os.makedirs(root, exist_ok=True)
        self.config_path = os.path.join(root, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.sizes, fh)
        self.csv_hashes = []
        self.accuracies, self.per_rho = [], []

    def op(self, i):
        out = os.path.join(self.workdir, "cli", "run-%d" % i)
        common = ["--config", self.config_path, "--out", out,
                  "--seed", str(self.seed)]
        codes = []
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            for command in self.commands:
                codes.append(cli.main(command + common))
        elapsed = time.perf_counter() - start
        for command, code in zip(self.commands, codes):
            self.tally.check(code == 0, "oib %s exit code %r"
                             % (command[0], code))
        csv_path = os.path.join(out, "records.csv")
        self.csv_hashes.append(sha256_files([csv_path]))
        with open(csv_path) as fh:
            self.accuracies.append(float(np.mean(
                [float(row["accuracy"]) for row in csv.DictReader(fh)
                 if row["kind"] == "oib"])))
        with open(os.path.join(out, "retrain_report.json")) as fh:
            self.per_rho.append(float(np.mean(
                [r["accuracy_per_rho"] for r in json.load(fh)["records"]])))
        self.info["records_csv_sha256"] = self.csv_hashes[-1]
        self.info["base_weights_sha256"] = sha256_files(
            [os.path.join(out, "base_%s.bin" % d)
             for d in (pipeline.TRANSFORM, pipeline.RAW)])
        shutil.rmtree(out)
        return self.name, elapsed

    def finish(self):
        """records.csv must equal what run_experiment writes for the config."""
        out = os.path.join(self.workdir, "cli", "reference")
        cfg = config.apply_overrides(config.load_config(self.config_path),
                                     seed=self.seed, out=out)
        pipeline.run_experiment(cfg, out_dir=out)
        reference = sha256_files([os.path.join(out, "records.csv")])
        for k, digest in enumerate(self.csv_hashes):
            self.tally.check(digest == reference,
                             "cli records.csv of run %d equals "
                             "run_experiment's" % k)
        shutil.rmtree(out)

    def accuracy(self):
        return last(self.accuracies)

    def accuracy_per_rho(self):
        return last(self.per_rho)


WORKLOADS = {cls.name: cls for cls in (Experiment, Sweep, Serve, Cli)}


def serve_table(wl, seconds):
    """Measured µs/sample of each serve stage next to its modelled MACs.

    Every stage is timed by calling its public function directly, at batch
    1 (one sample per call) and on one ``wl.batch``-row batch, round-robin
    until ``seconds`` have passed.  Head layers are timed one at a time as
    one-layer models on the activations that reach them; ``path`` is the
    whole compressed path.  Returns the metrics and the table rows.
    """
    model = wl.model
    sizes = model.layer_sizes
    x_raw, x_tf = wl.x_raw, wl.x_tf
    n = len(x_raw)
    head_macs = {}
    # (row, metric stem, n_z suffix, callable, leading args, inputs, MACs)
    stages = [("transform", "gaussianizer.forward", "", gaussianizer.forward,
               (wl.plan,), x_raw, complexity_model.fft_macs(sizes[0]))]
    for n_z in SERVE_NZ:
        comp = wl.compressors[("oib", n_z)]
        rx = wl.reexpanders[("oib", n_z)]
        bd = complexity_model.pipeline_macs(sizes[0], n_z, sizes[1:])
        per = dict(bd.per_stage)
        head_macs = {k: per["classification:layer%d" % k]
                     for k in layers.HEAD_LAYERS}
        z = gib_compressor.encode(comp, x_tf)
        suffix = "_nz%d" % n_z
        stages += [
            ("encoder", "gib_compressor.encode", suffix,
             gib_compressor.encode, (comp,), x_tf,
             per["compression:encoder"]),
            ("reexpansion", "reexpander.reexpand", suffix,
             reexpander.reexpand, (rx,), z,
             per["classification:reexpansion"]),
            ("path", "serve.path", suffix, serve_path,
             (wl.plan, comp, rx, model), x_raw, bd.total)]
    acts = x_tf.astype(model.dtype)
    for k in range(len(model.layers) - 1):
        acts = np.maximum(inference_net.forward(
            inference_net.MlpModel([model.layers[k]]), acts), 0)
        if k + 1 in layers.HEAD_LAYERS:
            one = inference_net.MlpModel([model.layers[k + 1]])
            stages.append(("layer%d" % (k + 1),
                           "inference_net.layer%d" % (k + 1), "",
                           inference_net.forward, (one,), acts,
                           head_macs[k + 1]))
    y = reexpander.reexpand(wl.reexpanders[("oib", SERVE_NZ[0])],
                            gib_compressor.encode(
                                wl.compressors[("oib", SERVE_NZ[0])], x_tf))
    stages.append(("head", "inference_net.head", "",
                   lambda m, a: inference_net.forward_from_layer(m, 1, a),
                   (model,), y, None))
    stages.append(("network", "inference_net.forward", "",
                   inference_net.forward, (model,), x_tf,
                   complexity_model.network_macs(sizes).total))

    samples = {(i, mode): [] for i in range(len(stages))
               for mode in ("b1", "bulk")}
    deadline = time.perf_counter() + seconds
    j = 0
    while True:
        for i, (_, _, _, fn, args, data, _) in enumerate(stages):
            for _ in range(10):
                row = data[j % n]
                start = time.perf_counter()
                fn(*args, row)
                samples[(i, "b1")].append(time.perf_counter() - start)
                j += 1
            rows = data[:wl.batch]
            start = time.perf_counter()
            fn(*args, rows)
            samples[(i, "bulk")].append((time.perf_counter() - start)
                                        / wl.batch)
        if time.perf_counter() >= deadline:
            break

    metrics, table = {}, []
    for i, (row, stem, suffix, _, _, _, macs) in enumerate(stages):
        b1 = 1e6 * float(np.median(samples[(i, "b1")]))
        bulk = 1e6 * float(np.median(samples[(i, "bulk")]))
        metrics["%s_us_per_sample_b1%s" % (stem, suffix)] = b1
        metrics["%s_us_per_sample_bulk%s" % (stem, suffix)] = bulk
        entry = {"stage": row + suffix, "us_per_sample_b1": b1,
                 "us_per_sample_bulk": bulk}
        if macs is not None:
            rate = macs / (bulk * 1e-6)
            metrics["complexity_model.%s_macs%s" % (row, suffix)] = macs
            metrics["serve.%s_macs_per_s%s" % (row, suffix)] = rate
            entry.update(macs_modelled=macs, macs_per_s_bulk=rate)
        if row == "path":
            metrics["serve.path_p99_us_b1%s" % suffix] = 1e6 * float(
                np.percentile(samples[(i, "b1")], 99))
        table.append(entry)
    return metrics, table
