"""Which public functions of ``oib`` are traced, and the per-layer metrics.

Every entry of ``SITES`` names the module where a caller looks a function
up, so ``pipeline.train`` and ``cli.build_dataset`` are wrapped in the
importing module, not only in the defining one.  Spans are named after the
defining module.  ``per_layer_metrics`` turns the spans of the traced
operations into per-operation figures.
"""

import importlib
import math
import os

import numpy as np

PIPELINE_STAGES = ("build_dataset", "domain_features", "train_base_models",
                   "fit_all_domains", "build_compressors", "fit_reexpanders",
                   "evaluate_grid", "retrain_heads", "hz_compare",
                   "write_artifacts")
CLI_COMMANDS = ("train_base", "fit_oib", "evaluate", "retrain", "hz_test")
TRAIN_FUNCS = ("train",)
RETRAIN_FUNCS = ("finetune_head", "train_multi_rho_head", "train_head_on_z")
COMPRESSOR_FUNCS = ("compressor_at_size", "cca_compressor", "pca_compressor")
SAVE_FUNCS = ("save_model", "save_compressor", "save_reexpander")
LOAD_FUNCS = ("load_model", "load_compressor", "load_reexpander")
WRITE_FUNCS = ("write_artifacts", "write_base_artifacts",
               "write_fit_artifacts", "write_evaluation",
               "write_retrain_artifacts", "write_hz_report")


def _train_steps(n, cfg):
    n_fit = n - int(round(cfg.val_fraction * n))
    return cfg.epochs * math.ceil(n_fit / cfg.batch_size)


def _steps_attrs(label_arg):
    def attrs(args, kwargs, result):
        return {"steps": _train_steps(len(args[label_arg]), args[-1])}
    return attrs


def _images_attrs(args, kwargs, result):
    return {"images": int(result.n_samples)}


def _clamped_attrs(args, kwargs, result):
    return {"clamped": int(np.count_nonzero(
        result.eigenvalues != result.raw_eigenvalues))}


def _bytes_attrs(args, kwargs, result):
    stem = str(args[1])
    return {"bytes": sum(os.path.getsize(stem + ext)
                         for ext in (".json", ".bin"))}


def _sites():
    """(lookup module, attribute, defining module, attrs, cpu) tuples."""
    sites = []
    for stage in PIPELINE_STAGES:
        sites.append(("pipeline", stage, "pipeline", None,
                      stage == "evaluate_grid"))
    for stage in ("build_dataset", "domain_features", "train_base_models",
                  "fit_all_domains"):
        sites.append(("cli", stage, "pipeline", None, False))
    for fn in WRITE_FUNCS[1:]:
        sites.append(("pipeline", fn, "pipeline", None, False))
    for cmd in CLI_COMMANDS:
        sites.append(("cli", "cmd_" + cmd, "cli", None, False))
    sites += [
        ("pipeline", "synthetic_digits", "datasets", _images_attrs, False),
        ("pipeline", "train", "inference_net", _steps_attrs(2), False),
        ("pipeline", "finetune_head", "inference_net", _steps_attrs(2),
         False),
        ("pipeline", "train_multi_rho_head", "inference_net",
         _steps_attrs(2), False),
        ("pipeline", "train_head_on_z", "inference_net", _steps_attrs(1),
         False),
        ("gaussianizer", "forward", "gaussianizer", None, False),
        ("gaussianizer", "henze_zirkler", "gaussianizer", None, False),
        ("pipeline", "sample_covariance", "tensor_stats", None, False),
        ("gib_compressor", "gib_eigensystem", "tensor_stats",
         _clamped_attrs, False),
        ("pipeline", "solve_gib", "gib_compressor", None, False),
        ("pipeline", "fit_ls", "reexpander", None, False),
        ("pipeline", "reexpand", "reexpander", None, False),
        ("reexpander", "reexpand", "reexpander", None, False),
        ("gib_compressor", "encode", "gib_compressor", None, False),
        ("pipeline", "forward_from_layer", "inference_net", None, False),
        ("inference_net", "forward_from_layer", "inference_net", None,
         False),
        ("inference_net", "forward", "inference_net", None, False),
        ("pipeline", "encoding_mi", "info_metrics", None, False),
        ("pipeline", "gaussian_entropy", "info_metrics", None, False),
    ]
    for fn in COMPRESSOR_FUNCS:
        sites.append(("pipeline", fn, "gib_compressor", None, False))
    for fn in SAVE_FUNCS:
        sites.append(("pipeline", fn, "serialization", _bytes_attrs, False))
    sites.append(("cli", "save_model", "serialization", _bytes_attrs, False))
    for fn in LOAD_FUNCS:
        sites.append(("cli", fn, "serialization", None, False))
    return sites


SITES = _sites()


def add_sites(tracer):
    """Prepare a wrapper for every site; ``tracer.install()`` applies them."""
    for lookup, attr, owner, attrs, cpu in SITES:
        module = importlib.import_module("oib." + lookup)
        tracer.add_site(module, attr, "%s.%s" % (owner, attr), attrs, cpu)


# Serve stage table: one row per stage of compressed inference.
SERVE_NZ = (10, 100)
HEAD_LAYERS = (1, 2, 3, 4)


def _serve_names():
    names = [("complexity_model.transform_macs", "count"),
             ("gaussianizer.forward_us_per_sample_b1", "us"),
             ("gaussianizer.forward_us_per_sample_bulk", "us"),
             ("serve.transform_macs_per_s", "1/s")]
    for n_z in SERVE_NZ:
        for stage, stem in (("encoder", "gib_compressor.encode"),
                            ("reexpansion", "reexpander.reexpand"),
                            ("path", "serve.path")):
            names += [("complexity_model.%s_macs_nz%d" % (stage, n_z),
                       "count"),
                      ("%s_us_per_sample_b1_nz%d" % (stem, n_z), "us"),
                      ("%s_us_per_sample_bulk_nz%d" % (stem, n_z), "us"),
                      ("serve.%s_macs_per_s_nz%d" % (stage, n_z), "1/s")]
        names.append(("serve.path_p99_us_b1_nz%d" % n_z, "us"))
    for layer in HEAD_LAYERS:
        names += [("complexity_model.layer%d_macs" % layer, "count"),
                  ("inference_net.layer%d_us_per_sample_b1" % layer, "us"),
                  ("inference_net.layer%d_us_per_sample_bulk" % layer, "us"),
                  ("serve.layer%d_macs_per_s" % layer, "1/s")]
    names += [("inference_net.head_us_per_sample_b1", "us"),
              ("inference_net.head_us_per_sample_bulk", "us"),
              ("complexity_model.network_macs", "count"),
              ("inference_net.forward_us_per_sample_b1", "us"),
              ("inference_net.forward_us_per_sample_bulk", "us"),
              ("serve.network_macs_per_s", "1/s")]
    return names


def _span_names():
    names = [("pipeline.%s_s" % s, "s") for s in PIPELINE_STAGES]
    names += [("pipeline.evaluate_grid_cpu_s", "s"),
              ("datasets.synthetic_digits_s", "s"),
              ("datasets.images", "count"),
              ("inference_net.train_s", "s"),
              ("inference_net.retrain_s", "s"),
              ("inference_net.train_steps", "count"),
              ("inference_net.us_per_step", "us"),
              ("inference_net.train_share", "fraction"),
              ("inference_net.accuracy_per_rho", "fraction"),
              ("gaussianizer.henze_zirkler_s", "s"),
              ("gaussianizer.henze_zirkler_calls", "count"),
              ("tensor_stats.sample_covariance_s", "s"),
              ("tensor_stats.gib_eigensystem_s", "s"),
              ("tensor_stats.gib_eigensystem_calls", "count"),
              ("tensor_stats.clamped_eigenvalues", "count"),
              ("gib_compressor.build_s", "s"),
              ("gib_compressor.pca_compressor_s", "s"),
              ("gib_compressor.calls", "count"),
              ("reexpander.fit_ls_s", "s"),
              ("reexpander.fit_ls_calls", "count"),
              ("info_metrics.encoding_mi_s", "s"),
              ("info_metrics.gaussian_entropy_s", "s"),
              ("serialization.save_s", "s"),
              ("serialization.load_s", "s"),
              ("serialization.bytes_written", "bytes")]
    names += [("cli.%s_s" % c, "s") for c in CLI_COMMANDS]
    names += [("cli.dataset_renders", "count"),
              ("cli.base_trainings", "count"),
              ("trace.op_ms_traced", "ms"),
              ("trace.op_ms_untraced", "ms"),
              ("trace.overhead_ms", "ms"),
              ("trace.spans_per_op", "count")]
    return names


PER_LAYER = _span_names() + _serve_names()


def per_layer_metrics(spans, n_ops):
    """Per-operation totals of the traced spans, keyed by metric name.

    Times are inclusive of child spans.  Layers a workload never calls read
    zero.
    """
    by_id = {s["id"]: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    n = max(n_ops, 1)

    def dur(*names):
        return sum(s["end"] - s["start"] for name in names
                   for s in by_name.get(name, ())) / n

    def count(*names):
        return sum(len(by_name.get(name, ())) for name in names) / n

    def attr_sum(key, *names):
        return sum(s.get(key, 0) for name in names
                   for s in by_name.get(name, ())) / n

    def under_cli(span):
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"].startswith("cli."):
                return True
            parent = by_id.get(parent["parent"])
        return False

    out = {}
    for stage in PIPELINE_STAGES[:-1]:
        out["pipeline.%s_s" % stage] = dur("pipeline." + stage)
    writes = {"pipeline." + w for w in WRITE_FUNCS}
    out["pipeline.write_artifacts_s"] = sum(
        s["end"] - s["start"] for s in spans if s["name"] in writes
        and by_id.get(s["parent"], {}).get("name") not in writes) / n
    out["pipeline.evaluate_grid_cpu_s"] = attr_sum("cpu_s",
                                                   "pipeline.evaluate_grid")
    out["datasets.synthetic_digits_s"] = dur("datasets.synthetic_digits")
    out["datasets.images"] = attr_sum("images", "datasets.synthetic_digits")
    train = ["inference_net." + f for f in TRAIN_FUNCS]
    retrain = ["inference_net." + f for f in RETRAIN_FUNCS]
    out["inference_net.train_s"] = dur(*train)
    out["inference_net.retrain_s"] = dur(*retrain)
    steps = attr_sum("steps", *train, *retrain)
    out["inference_net.train_steps"] = steps
    out["inference_net.us_per_step"] = (
        1e6 * (out["inference_net.train_s"] + out["inference_net.retrain_s"])
        / steps if steps else 0.0)
    out["gaussianizer.henze_zirkler_s"] = dur("gaussianizer.henze_zirkler")
    out["gaussianizer.henze_zirkler_calls"] = count(
        "gaussianizer.henze_zirkler")
    out["tensor_stats.sample_covariance_s"] = dur(
        "tensor_stats.sample_covariance")
    out["tensor_stats.gib_eigensystem_s"] = dur("tensor_stats.gib_eigensystem")
    out["tensor_stats.gib_eigensystem_calls"] = count(
        "tensor_stats.gib_eigensystem")
    out["tensor_stats.clamped_eigenvalues"] = attr_sum(
        "clamped", "tensor_stats.gib_eigensystem")
    comps = ["gib_compressor." + f for f in COMPRESSOR_FUNCS]
    out["gib_compressor.build_s"] = dur(*comps)
    out["gib_compressor.pca_compressor_s"] = dur(
        "gib_compressor.pca_compressor")
    out["gib_compressor.calls"] = count(*comps)
    out["reexpander.fit_ls_s"] = dur("reexpander.fit_ls")
    out["reexpander.fit_ls_calls"] = count("reexpander.fit_ls")
    out["info_metrics.encoding_mi_s"] = dur("info_metrics.encoding_mi")
    out["info_metrics.gaussian_entropy_s"] = dur(
        "info_metrics.gaussian_entropy")
    saves = ["serialization." + f for f in SAVE_FUNCS]
    out["serialization.save_s"] = dur(*saves)
    out["serialization.load_s"] = dur(*("serialization." + f
                                        for f in LOAD_FUNCS))
    out["serialization.bytes_written"] = attr_sum("bytes", *saves)
    for cmd in CLI_COMMANDS:
        out["cli.%s_s" % cmd] = dur("cli.cmd_" + cmd)
    out["cli.dataset_renders"] = sum(
        under_cli(s) for s in by_name.get("pipeline.build_dataset", ())) / n
    out["cli.base_trainings"] = sum(
        under_cli(s) for s in by_name.get("pipeline.train_base_models",
                                          ())) / n
    return out
