"""Command-line entry point for the compression experiments.

Subcommands run the pipeline's own stages and compose through the output
directory: ``train-base`` writes the base model checkpoints, ``fit-oib``
reads them and writes compressors (each with its MI) and re-expanders,
``evaluate`` reads everything and writes the report, ``retrain``
fine-tunes the shared and per-size heads (``per_rho_head``, reported in
``retrain_report.json``) or trains one classifier per size on the codes
themselves (``per_rho_on_z``, reported in ``bank_report.json``),
``hz-test`` compares domain normality without any network, ``macs``
prints the complexity table, and ``synth-check`` runs the
synthetic-Gaussian oracle suites.  Only ``fit-oib`` fits: ``evaluate``
and ``retrain`` apply what it stored.

Before any work, a command checks its config, that the output directory
or its nearest existing parent is a directory (except ``macs`` and
``synth-check``, which write nothing there), and for ``retrain`` that
``oib`` is on the grid.  It then reads what earlier commands stored, in
one order: the saved corpus, both base checkpoints (``fit-oib``,
``evaluate`` and ``retrain``), and every compressor of the grid
(``evaluate`` and ``retrain``) with its re-expander (``evaluate`` and
``retrain --mode per_rho_head``); ``retrain --mode per_rho_on_z`` reads
only the corpus and the OIB compressors.  An artifact whose manifest key
is not the one the config gives (``corpus_key`` for the corpus,
``model_key`` for the rest) exits 2, naming it.  Only then is a missing
corpus rendered (IDX inputs are always read from their files);
``train-base`` saves ``dataset.json``/``dataset.bin`` only when it
rendered them.  The saved corpus is bitwise the rendered one, so
commands started in separate processes agree bitwise with
``run_experiment`` when they share the numpy/BLAS build and CPU kernel,
at any BLAS thread count, since training, fit and evaluation run on one
BLAS thread per job.

Exit codes: 0 success, 2 configuration, input-file or damaged-artifact
problems (a damaged artifact's message starts "damaged data", the others
"config error"), 3 numerical failures.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import pipeline
from .complexity_model import (macs_rows, macs_table, network_macs,
                               saving_baseline)
from .config import ExperimentConfig, apply_overrides, load_config
from .datasets import SyntheticGaussianSpec, synth_gaussian
from .errors import ConfigError, DataFormatError, NumericalError, OibError
from .gib_compressor import (cca_compressor, compressor_at_beta,
                             compressor_at_size, solve_gib)
from .info_metrics import (gaussian_entropy, mi_loading_invariance_check,
                           random_projection_optimality_check)
from .pipeline import (RAW, TRANSFORM, artifact_stem, build_dataset,
                       domain_features, fit_all_domains, train_base_models)
from .reexpander import fit_lmmse, fit_ls, mse_entropy_gap, reexpand
# ``pipeline`` alone calls ``fit_all_domains``, ``train_base_models`` and
# ``save_model``; they are imported here because the benchmark traces them
# under this module.
from .serialization import (load_compressor, load_model, load_reexpander,
                            save_model, write_json)


def _resolve_config(args):
    config = load_config(args.config) if args.config else ExperimentConfig()
    config = apply_overrides(config, seed=args.seed, out=args.out,
                             encoding=args.encoding, subset_n=args.subset)
    if args.command in ("macs", "synth-check"):
        return config   # they write nothing under the output directory
    existing = os.path.abspath(config.output_dir)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError("output directory %s cannot be made: %s is not a "
                          "directory" % (config.output_dir, existing))
    return config


def _stored(config, fitted=False):
    """Stages 1-3 on what earlier commands stored in the output directory,
    all read before ``prepare`` renders a corpus that was never saved."""
    image_sets = pipeline.saved_corpus(config)
    out, key = config.output_dir, pipeline.model_key(config)
    models = {name: load_model(pipeline.base_stem(out, name), key)
              for name in (TRANSFORM, RAW)}
    compressors, reexpanders = {}, {}
    if fitted:
        for n_z in config.n_z_grid:
            for kind in config.compressor_kinds:
                compressors[(kind, n_z)] = load_compressor(
                    artifact_stem(out, "compressors", kind, n_z), key)
                reexpanders[(kind, n_z)] = load_reexpander(
                    artifact_stem(out, "reexpanders", kind, n_z), key)
    result = pipeline.prepare(config, image_sets, models)
    if fitted:
        result.compressors, result.reexpanders = compressors, reexpanders
    return result


def _stored_bank_inputs(config):
    """The corpus's domains, without networks, and the OIB compressors:
    all ``retrain --mode per_rho_on_z`` reads, the compressors before
    ``prepare`` renders a corpus that was never saved.  A compressor's
    key already ties it to the base networks."""
    image_sets = pipeline.saved_corpus(config)
    compressors = {("oib", n_z): load_compressor(
        artifact_stem(config.output_dir, "compressors", "oib", n_z),
        pipeline.model_key(config)) for n_z in config.n_z_grid}
    result = pipeline.prepare(config, image_sets, {TRANSFORM: None,
                                                   RAW: None})
    result.compressors = compressors
    return result


def cmd_train_base(config):
    saved = pipeline.saved_corpus(config)
    image_sets = saved or build_dataset(config)
    result = pipeline.prepare(config, image_sets)
    trace = pipeline.write_base_artifacts(result, config.output_dir)
    if saved is None and not config.dataset.from_files:
        pipeline.write_corpus(config, *image_sets)
    write_json({"output_dir": config.output_dir,
                "baseline": trace["baseline"],
                "final_epoch_loss": {name: domain.losses[-1]
                                     for name, domain in result.domains.items()
                                     if domain.losses}}, sys.stdout)
    return 0


def cmd_fit_oib(config):
    result = pipeline.fit(_stored(config))
    pipeline.write_fit_artifacts(result, config.output_dir)
    write_json({"output_dir": config.output_dir,
                "artifacts": len(result.compressors) + len(result.reexpanders),
                "noise_lambda": {name: domain.noise_lambda
                                 for name, domain in result.domains.items()
                                 if domain.noise_lambda is not None}},
               sys.stdout)
    return 0


def cmd_evaluate(config):
    result = _stored(config, fitted=True)
    pipeline.evaluate(result)
    pipeline.write_evaluation(result, config.output_dir)
    write_json({"report": os.path.join(config.output_dir, "report.json"),
                "csv": os.path.join(config.output_dir, "records.csv"),
                "records": len(result.records)}, sys.stdout)
    return 0


def cmd_retrain(config, mode):
    if "oib" not in config.compressor_kinds:
        raise ConfigError("retrain needs oib in compressor_kinds")
    config = dataclasses.replace(config, compressor_kinds=["oib"])
    if mode == "per_rho_on_z":
        heads, records = pipeline.retrain_bank(config,
                                               _stored_bank_inputs(config))
    else:
        heads, records = pipeline.retrain_heads(config, pipeline.evaluate(
            _stored(config, fitted=True)))
    write_json(pipeline.write_retrain_artifacts(mode, heads, records,
                                                config.output_dir),
               sys.stdout)
    return 0


def cmd_hz_test(config):
    train_set, test_set = pipeline.saved_corpus(config) or \
        build_dataset(config)
    _, features = domain_features(config, train_set, test_set)
    records = pipeline.hz_compare(config, features[RAW][1],
                                  features[TRANSFORM][1])
    write_json(pipeline.write_hz_report(records, config.output_dir),
               sys.stdout)
    return 0


def cmd_macs(config):
    sizes = config.model_layer_sizes
    print(macs_table(sizes, config.n_z_grid))
    write_json({"network_total": network_macs(sizes).total,
                "saving_baseline": saving_baseline(sizes),
                "rows": macs_rows(sizes, config.n_z_grid)}, sys.stdout)
    return 0


def _synth_checks():
    spec = SyntheticGaussianSpec(n_x=6, n_y=4, n_samples=100000, seed=11)
    x, y, cov, _ = synth_gaussian(spec)
    sol = solve_gib(cov)
    checks = {}

    worst = 0.0
    for n_z in range(1, sol.eigen.dim + 1):
        comp = compressor_at_size(sol, n_z)
        v = sol.eigen.left_eigenvectors[:n_z]
        alpha = np.linalg.norm(comp.matrix_a, axis=1) / \
            np.linalg.norm(v, axis=1)
        lam = sol.eigen.eigenvalues[:n_z]
        resid = alpha ** 2 * lam + 1.0 - comp.beta * (1.0 - lam)
        scaled = np.abs(resid) / np.maximum(1.0, comp.beta * (1.0 - lam))
        worst = max(worst, float(np.max(scaled)))
    checks["loading_structure_residual"] = {"value": worst,
                                            "ok": worst < 1e-8}

    below = compressor_at_beta(sol, 0.99 * sol.beta_critical[0])
    checks["all_zero_below_first_critical"] = {"value": below.n_z,
                                               "ok": below.n_z == 0}

    margin = random_projection_optimality_check(cov, n_z=2, trials=50,
                                                seed=5).min_margin
    checks["projection_optimality_margin"] = {"value": margin,
                                              "ok": margin >= -1e-9}

    spread = mi_loading_invariance_check(sol, cov, n_z=3,
                                         trials=20).max_relative_spread
    checks["loading_invariance_spread"] = {"value": spread,
                                           "ok": spread < 1e-8}

    comp = cca_compressor(sol, 3)
    z = x.values @ comp.matrix_a.T
    rng = np.random.default_rng(21)
    l0 = rng.standard_normal((4, spec.n_x))
    targets = x.values @ l0.T + 0.3 * rng.standard_normal((spec.n_samples,
                                                           4))
    c_zz = comp.matrix_a @ cov.sigma_x @ comp.matrix_a.T
    c_yz = l0 @ cov.sigma_x @ comp.matrix_a.T
    rx_pop = fit_lmmse(c_yz, c_zz)
    rx_ls = fit_ls(z, targets)
    rel = float(np.linalg.norm(rx_ls.theta - rx_pop.theta)
                / np.linalg.norm(rx_pop.theta))
    checks["ls_vs_population_relative"] = {"value": rel, "ok": rel < 1e-2}

    n, n_y, sigma = 20000, 4, 0.7
    z2 = rng.standard_normal((n, 2))
    m = rng.standard_normal((n_y, 2))
    y2 = z2 @ m.T + sigma * rng.standard_normal((n, n_y))
    rx = fit_lmmse(m, np.eye(2))
    err = y2 - reexpand(rx, z2)
    mse = float(np.mean(np.sum(err ** 2, axis=1)))
    err_cov = np.cov(err, rowvar=False, bias=True)
    gap = mse_entropy_gap(mse, gaussian_entropy(err_cov), n_y)
    checks["mse_entropy_gap"] = {"value": gap, "ok": gap >= -1e-9}

    return checks


def cmd_synth_check(config):
    checks = _synth_checks()
    write_json({"checks": checks,
                "ok": all(c["ok"] for c in checks.values())}, sys.stdout)
    if not all(c["ok"] for c in checks.values()):
        raise NumericalError("synthetic oracle checks failed: %s"
                             % [k for k, c in checks.items()
                                if not c["ok"]])
    return 0


# Every subcommand and its help.  ``main`` looks its ``cmd_`` function up
# by name when it runs, so a wrapper set on the module attribute is called.
COMMANDS = {
    "train-base": "train the base networks in both domains",
    "fit-oib": "fit compressors and re-expanders for the grid",
    "evaluate": "accuracy/entropy/MI/MACs report over the grid",
    "retrain": "retrain classifier heads on reconstructions",
    "hz-test": "normality comparison of raw vs transform domain",
    "macs": "complexity table for the configured model",
    "synth-check": "run the synthetic-Gaussian oracle suites",
}


def make_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON experiment config")
    common.add_argument("--seed", type=int,
                        help="offset every stage seed for a replication")
    common.add_argument("--out", help="output directory override")
    common.add_argument("--encoding",
                        choices=["deterministic", "stochastic"],
                        help="encoder mode for accuracy evaluation")
    common.add_argument("--subset", type=int,
                        help="reduce the training set to N samples "
                             "(test set scales to N/5)")
    parser = argparse.ArgumentParser(
        prog="oib",
        description="feature-compression experiments: closed-form "
                    "information-bottleneck encoders inside a trained "
                    "classifier")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=text)
        if name == "retrain":
            command.add_argument("--mode", default="per_rho_head",
                                 choices=list(pipeline.RETRAIN_REPORTS))
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        modes = [args.mode] if args.command == "retrain" else []
        return command(_resolve_config(args), *modes)
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except DataFormatError as exc:
        print("damaged data: %s" % exc, file=sys.stderr)
        return 2
    except OibError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
