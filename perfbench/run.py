"""Benchmark of the oib package: one workload per process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 12 \
        --trace 0

It pins the BLAS thread count, imports ``oib`` from ``src/`` of the
checkout, sets the workload up several times, repeats the workload's
operation for ``--seconds``, checks every result, and prints two lines:
an ``info`` object (environment fingerprint, checksums, the machine speed
that ``calibrate`` measured between operations, the MAC table) and, last,
the result object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics as measured;
``--trace 1`` alternates traced and untraced operations and reports the
per-layer metrics and the tracing overhead.  See README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
# The thread count a default run gets on the 2-core reference machine.
BLAS_THREADS = 2

END_TO_END = [("setup_s", "s"), ("op_ms", "ms"), ("op_tail_ms", "ms"),
              ("accuracy", "fraction"), ("peak_rss_mb", "MB")]
# Only serve runs enough ops (over a thousand per n_z) for a p90 with many
# samples beyond it; experiment, sweep and cli run one to three ops, so
# there op_tail_ms is about their slowest op.  p99 of the serve ops moved by
# about 20 % between runs; p90 stays within the bound.
TAIL_PCT = 90


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def import_oib():
    """Import oib from this checkout's src/, never from site-packages."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "oib", "__init__.py")):
        raise SystemExit("perfbench: no oib sources under %s" % src)
    sys.path.insert(0, src)
    import oib
    if os.path.dirname(os.path.abspath(oib.__file__)) != \
            os.path.join(src, "oib"):
        raise SystemExit("perfbench: imported oib from %s, not %s"
                         % (oib.__file__, src))


def summarize(times_by_group, pct):
    """Mean over groups of each group's percentile, in milliseconds."""
    import numpy as np
    values = [np.percentile(t, pct) for t in times_by_group.values() if t]
    return 1e3 * float(np.mean(values)) if values else 0.0


def measure(wl, seconds, speed, tracer=None):
    """Repeat ``wl.op`` for ``seconds``; untraced and traced op times.

    The machine's speed is sampled before the first operation, between
    operations and after the last, outside the measuring time, for
    ``info`` only.  At least ``wl.min_ops`` operations run.  With a tracer,
    operations alternate between traced and untraced, and at least one of
    each runs; each traced operation is a root span.
    """
    traced_op = tracer.wrap("op." + wl.name, wl.op) if tracer else None
    times = ({}, {})
    start = time.perf_counter()
    i = 0
    while True:
        start += speed.maybe_sample()
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.install()
        try:
            group, elapsed = (traced_op if traced else wl.op)(i)
            times[traced].setdefault(group, []).append(elapsed)
        except Exception:
            wl.tally.error("%s operation %d" % (wl.name, i))
        finally:
            if traced:
                tracer.restore()
        i += 1
        if time.perf_counter() - start >= seconds and \
                i >= max(wl.min_ops, 2 if tracer else 1):
            break
    speed.sample()
    return times[0], times[1], i


def run(args, import_s, blas_threads):
    import calibrate
    import envinfo
    import layers
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("perfbench: unknown workload %r; choose from %s"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    tally = workloads.Tally()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, tally)
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "fingerprint": envinfo.fingerprint(blas_threads)}
    speed = calibrate.Speed()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - start)
        info["import_s"] = import_s
        info["setup_repeats_s"] = setups

        tracer = None
        op_seconds = args.seconds
        if args.trace:
            tracer = tracing.Tracer()
            layers.add_sites(tracer)
            if wl.name == "serve":
                op_seconds = args.seconds / 2
        untraced, traced, n_ops = measure(wl, op_seconds, speed, tracer)
        wl.finish()
        info.update(wl.info)
        info["ops_timed"] = n_ops
        info["op_samples"] = {str(g): len(t) for g, t in untraced.items()}
        info["speed_factor"] = speed.factor()
        info["kernel_s"] = speed.samples
        if not args.trace:
            metrics = {"setup_s": import_s + statistics.median(setups),
                       "op_ms": summarize(untraced, 50),
                       "op_tail_ms": summarize(untraced, TAIL_PCT),
                       "accuracy": wl.accuracy(),
                       "peak_rss_mb": resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            units = dict(END_TO_END)
            info["named"] = roadmap_names(wl, metrics, untraced)
        else:
            n_traced = sum(len(t) for t in traced.values())
            metrics = {name: 0.0 for name, _ in layers.PER_LAYER}
            metrics.update(layers.per_layer_metrics(tracer.spans, n_traced))
            metrics["inference_net.accuracy_per_rho"] = wl.accuracy_per_rho()
            metrics["trace.op_ms_traced"] = summarize(traced, 50)
            metrics["trace.op_ms_untraced"] = summarize(untraced, 50)
            metrics["trace.overhead_ms"] = (metrics["trace.op_ms_traced"]
                                            - metrics["trace.op_ms_untraced"])
            metrics["trace.spans_per_op"] = len(tracer.spans) / max(n_traced,
                                                                    1)
            if metrics["trace.op_ms_traced"] > 0:
                metrics["inference_net.train_share"] = 1e3 * (
                    metrics["inference_net.train_s"]
                    + metrics["inference_net.retrain_s"]) \
                    / metrics["trace.op_ms_traced"]
            if wl.name == "serve":
                table, rows = workloads.serve_table(wl, args.seconds / 2)
                metrics.update(table)
                info["mac_table"] = rows
            info["self_s_per_op"] = self_time_summary(tracer.spans, n_traced)
            trace_dir = os.path.join(WORK_DIR, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(trace_dir, "%s-seed%d.jsonl"
                                      % (args.workload, args.seed))
            tracer.write_jsonl(trace_path)
            info["trace_file"] = os.path.relpath(trace_path, ROOT)
            units = dict(layers.PER_LAYER)
            unknown = set(metrics) - set(units)
            if unknown:
                raise RuntimeError("undeclared metrics: %s" % sorted(unknown))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info["failures"] = tally.failures
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return info, result


def roadmap_names(wl, metrics, untraced):
    """The run's figures under the names the roadmap quotes."""
    named = {"accuracy_oib": metrics["accuracy"],
             "ops": wl.tally.attempted, "ops_failed": wl.tally.failed}
    if wl.name in ("experiment", "sweep", "cli"):
        named[wl.name + "_s"] = metrics["op_ms"] / 1e3
    if wl.name in ("experiment", "cli"):
        named["accuracy_per_rho"] = wl.accuracy_per_rho()
    if wl.name == "serve" and metrics["op_ms"] > 0:
        named["serve_bulk_samples_per_s"] = wl.batch / (metrics["op_ms"]
                                                        / 1e3)
        named["serve_bulk_p99_ms"] = summarize(untraced, 99)
    return named


def self_time_summary(spans, n_traced):
    """Self time per traced operation, summed by span name, largest first."""
    import tracer as tracing
    names = {s["id"]: s["name"] for s in spans}
    totals = {}
    for span_id, value in tracing.self_times(spans).items():
        name = names[span_id]
        totals[name] = totals.get(name, 0.0) + value / max(n_traced, 1)
    return sorted(totals.items(), key=lambda kv: -kv[1])


def main(argv=None):
    start = time.perf_counter()
    args = parse_args(argv)
    import envinfo
    blas_threads = min(BLAS_THREADS, envinfo.nproc())
    envinfo.pin_blas_threads(blas_threads)
    import_oib()
    import workloads  # noqa: F401  (its imports count as set-up)
    import_s = time.perf_counter() - start
    info, result = run(args, import_s, blas_threads)
    print(json.dumps({"info": info}, sort_keys=True, allow_nan=False))
    print(json.dumps(result, sort_keys=True, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
