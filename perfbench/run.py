"""End-to-end benchmark of the Replay4NCL paper pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload headline --seed 1 --seconds 10 --trace 0

One invocation runs one workload (see ``workloads.py``) in this process:
it sets up ``SETUP_REPS`` times, then repeats the timed operation until
``--seconds`` have passed (at least twice, so runs of one seed can be
compared), checks every output, and prints the metrics as the last line
of standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced operation, then traced ones, and reports
the per-layer metrics (see ``tracing.py``).

The run keeps its files under ``.bench_out/<run id>/``: a private
``REPRO_CACHE``, the replay stores, the host record, the full report
and, when traced, the spans.  Every ``REPRO_*`` variable of the calling
environment is dropped so that no setting leaks in, and BLAS runs one
thread, so the process uses at most two: its own and the program's
shard-prefetch worker.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

#: Set-ups per run; ``setup_s`` is the median.
SETUP_REPS = 3
#: Timed operations per untraced run, at least (digest comparison).
MIN_OPS = 2
#: Probe readings taken before each set-up.
SETUP_PROBES = 9

#: End-to-end metrics (reported with ``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "epoch_ms_p50": "ms",
    "epoch_ms_p75": "ms",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}

#: Per-layer metrics (reported with ``--trace 1``) and their units.
#: A value of 0 means the workload bypasses that layer or figure.
PER_LAYER = {
    "train.epoch.s": "s",
    "train.optimizer.s": "s",
    "autograd.backward.s": "s",
    "train.eval.s": "s",
    "train.eval.share": "ratio",
    "train.predicts_per_epoch": "count",
    "train.eval.distinct_ratio": "ratio",
    "snn.forward.s": "s",
    "snn.predict.s": "s",
    "snn.activations_at.s": "s",
    "kernel.lif_forward.s": "s",
    "kernel.lif_forward.calls": "count",
    "kernel.lif_backward.s": "s",
    "kernel.lif_backward.calls": "count",
    "kernel.readout_forward.s": "s",
    "kernel.readout_forward.calls": "count",
    "kernel.readout_backward.s": "s",
    "kernel.readout_backward.calls": "count",
    "data.generate.s": "s",
    "data.generate.calls": "count",
    "data.to_dense.s": "s",
    "setup.data.generate.s": "s",
    "setup.data.to_dense.s": "s",
    "setup.train.epoch.s": "s",
    "latent.generate.s": "s",
    "latent.materialize.s": "s",
    "latent.frozen_trace.s": "s",
    "codec.compress.s": "s",
    "codec.decompress.s": "s",
    "store.write.s": "s",
    "store.read_shard.s": "s",
    "store.read_shard.calls": "count",
    "store.gather.s": "s",
    "store.cache_hit_ratio": "ratio",
    "store.adopt.s": "s",
    "store.rebalance.s": "s",
    "store.evicted": "count",
    "store.disk_bytes": "B",
    "scenario.eval.s": "s",
    "hw.model.s": "s",
    "obs.trace_overhead": "ratio",
    "trace.coverage": "ratio",
    "ncl_s.replay4ncl": "s",
    "ncl_s.spikinglr": "s",
    "old_acc": "top1",
    "new_acc": "top1",
    "hw.model_speedup": "ratio",
    "host.ncl_speedup": "ratio",
    "host.train_speedup": "ratio",
    "host.steal_share": "ratio",
    "host.probe_ms": "ms",
    "host.wall_raw_s": "s",
    "host.setup_raw_s": "s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", default="bench", help="scale preset; the self-test uses ci"
    )
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="perturb the second operation's output (self-test of the checks)",
    )
    return parser.parse_args(argv)


def _isolate(workdir: Path) -> None:
    """Drop inherited REPRO_* settings, pin BLAS to one thread, keep files private.

    ``TMPDIR`` keeps the C compiler's temporary files inside the run
    directory too.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["REPRO_CACHE"] = str(workdir / "cache")
    os.environ["TMPDIR"] = str(workdir / "tmp")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    start = perf_counter()
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}/repro; run from the repository root",
              file=sys.stderr)
        return 2
    run_id = "-".join(
        map(str, (args.workload, args.scale, f"s{args.seed}", f"t{args.trace}",
                  os.getpid(), time.time_ns()))
    )
    workdir = root / ".bench_out" / run_id
    _isolate(workdir)
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]

    # Imported only now, here and in the helpers below: numpy must start
    # under the BLAS setting and the program under the isolated environment.
    import host
    import tracing
    import workloads
    from repro import obs
    from repro.snn.backends import active

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    (workdir / "tmp").mkdir(parents=True)
    backend = active().name  # probes (and compiles) the kernel backend
    import_s = perf_counter() - start
    host_record = host.record(src, args.seed, backend)
    print("host: " + json.dumps(host_record), flush=True)

    watch = tracing.Stopwatch(probe=host.probe_ms)
    tracer = tracing.Tracer(run_id) if args.trace else None
    try:
        with watch.installed():
            setup_raw, setup_ref = [], []
            for _ in range(SETUP_REPS):
                slowness = host.slowness([host.probe_ms() for _ in range(SETUP_PROBES)])
                cpu_before = host.cpu_times()
                rep_start = perf_counter()
                with tracer.active() if tracer else nullcontext():
                    with obs.span("bench.setup", category=tracing.CATEGORY):
                        ctx = workload.setup(args.scale, args.seed, workdir)
                setup_raw.append(perf_counter() - rep_start)
                stolen = host.steal_share(cpu_before, host.cpu_times())
                setup_ref.append(
                    host.reference_seconds(import_s + setup_raw[-1], slowness, stolen)
                )
            setup = {
                "setup_s": statistics.median(setup_ref),
                "host.setup_raw_s": import_s + statistics.median(setup_raw),
            }
            reference = getattr(workload, "reference", None)
            reference_error = None
            if reference is not None:
                try:
                    reference(ctx)
                except Exception:
                    reference_error = traceback.format_exc()
            ops = _measure(args, workload, ctx, watch, tracer, reference_error,
                           host_record, root)
    finally:
        shutil.rmtree(workdir / "cache", ignore_errors=True)
        shutil.rmtree(workdir / "tmp", ignore_errors=True)
        for store in workdir.glob("store-*"):
            shutil.rmtree(store, ignore_errors=True)

    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    timed = traced if args.trace else untraced
    report = _reported(watch, timed)
    end_to_end, epochs = _end_to_end(args.workload, watch, untraced)
    report.update(end_to_end)
    report.update(setup)
    if tracer is not None:
        report.update(_layers(tracer, traced, untraced))
        tracer.write(workdir / "trace.jsonl")
        table = tracing.self_time_table(tracer.spans())
        print("self time (traced run, all spans):")
        for row in table[:30]:
            print(f"  {row['self_s']:9.4f} s self  {row['total_s']:9.4f} s total  "
                  f"{row['calls']:7d}x  {row['category']}:{row['name']}")

    failed = sum(1 for op in ops if op["problems"])
    for op in ops:
        for problem in op["problems"]:
            print(f"op {op['index']} failed: {problem}", file=sys.stderr)
    report["pass_rate"] = (len(ops) - failed) / len(ops)
    report["error_rate"] = failed / len(ops)
    wanted = PER_LAYER if args.trace else END_TO_END
    units = {**END_TO_END, **PER_LAYER, "error_rate": "ratio"}
    samples = {"wall_s": len(untraced), "setup_s": SETUP_REPS, "epoch_ms_p50": epochs,
               "epoch_ms_p75": epochs, "host.wall_raw_s": len(timed),
               "host.setup_raw_s": SETUP_REPS}
    full = {
        name: {"value": value, "unit": units.get(name, ""), "samples": samples.get(name)}
        for name, value in sorted(report.items())
    }
    (workdir / "report.json").write_text(json.dumps(
        {"host": host_record, "ops": [_op_summary(op) for op in ops], "metrics": full,
         "epochs": watch.epochs, "phases": watch.phases, "probes": watch.probes},
        indent=1, default=str))
    print("report: " + json.dumps(full))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": report[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def _measure(args, workload, ctx, watch, tracer, reference_error, host_record, root):
    """Run timed operations until ``--seconds`` have passed; check each."""
    import host
    import workloads
    from repro import obs
    import tracing

    digest_file = (root / ".bench_out" / "digests"
                   / f"{args.workload}-{args.scale}-s{args.seed}-{host_record['code']}.txt")
    ops: list[dict] = []
    reference_digest = digest_file.read_text().strip() if digest_file.exists() else None
    measure_start = None
    index = 0
    while True:
        traced = tracer is not None and index > 0
        if measure_start is None and (tracer is None or traced):
            measure_start = perf_counter()
        op = {"index": index, "traced": traced, "problems": []}
        counters = tracer.counters() if traced else {}
        cpu_before = host.cpu_times()
        watch.op = index
        raw = None
        op_start = perf_counter()
        try:
            with tracer.active() if traced else nullcontext():
                op_start = perf_counter()
                with obs.span("bench.op", category=tracing.CATEGORY, index=index):
                    raw = workload.run(ctx, index)
                op["seconds"] = perf_counter() - op_start
        except Exception:
            op["seconds"] = perf_counter() - op_start
            op["problems"].append("operation raised:\n" + traceback.format_exc())
        finally:
            watch.op = None
        op["steal_share"] = host.steal_share(cpu_before, host.cpu_times())
        # Report the operation at the reference host speed, without the
        # time its probes took; its epochs get the same scale.
        readings, probe_s = watch.op_probes(index)
        if not readings:
            readings, probe_s = [host.probe_ms() for _ in range(SETUP_PROBES)], 0.0
        op["probe_ms"] = statistics.median(readings)
        op["scale"] = host.reference_seconds(
            1.0, host.slowness(readings), op["steal_share"]
        )
        op["raw_seconds"] = op["seconds"]
        op["seconds"] = (op["seconds"] - probe_s) * op["scale"]
        if traced:
            after = tracer.counters()
            op["counters"] = {k: after.get(k, 0.0) - counters.get(k, 0.0) for k in after}
        if raw is not None:
            if args.corrupt and index == 1:
                workloads.corrupt(raw)
            try:
                outcome = workload.inspect(ctx, raw)
            except Exception:
                op["problems"].append("checking the output raised:\n" + traceback.format_exc())
            else:
                op["outcome"] = outcome
                op["problems"] += outcome.problems
                if reference_error is not None:
                    op["problems"].append("dense reference run raised:\n" + reference_error)
                if reference_digest is None:
                    reference_digest = outcome.digest
                    digest_file.parent.mkdir(parents=True, exist_ok=True)
                    tmp = digest_file.with_suffix(f".{os.getpid()}.tmp")
                    tmp.write_text(outcome.digest + "\n")
                    os.replace(tmp, digest_file)
                elif outcome.digest != reference_digest:
                    op["problems"].append(
                        f"weights/accuracy digest {outcome.digest[:12]} differs from "
                        f"{reference_digest[:12]}, the first of this seed and source"
                    )
        ops.append(op)
        index += 1
        enough = len([o for o in ops if o["traced"] == (tracer is not None)])
        needed = 1 if tracer is not None else MIN_OPS
        if enough >= needed and perf_counter() - measure_start >= args.seconds:
            return ops


def _quantile(values, q: int) -> float:
    """The q-th quartile (1..3) of ``values``; 0 when there are none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4, method="inclusive")[q - 1]


def _end_to_end(workload: str, watch, untraced) -> tuple[dict, int]:
    """End-to-end figures of the untraced operations, and the epoch count."""
    scale = {op["index"]: op["scale"] for op in untraced}
    # headline mixes T=100 SpikingLR and T=40 Replay4NCL epochs; their two
    # modes would put the median on the gap between them, so its epoch
    # quantiles cover the Replay4NCL (paper) method only.
    exclude = "spikinglr" if workload == "headline" else None
    epochs_ms = [
        sec * 1e3 * scale[op]
        for op, method, sec in watch.epochs
        if op in scale and (exclude is None or method != exclude)
    ]
    values = {
        "wall_s": _median([op["seconds"] for op in untraced]),
        "epoch_ms_p50": _quantile(epochs_ms, 2),
        "epoch_ms_p75": _quantile(epochs_ms, 3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, len(epochs_ms)


def _reported(watch, timed) -> dict:
    """Figures reported but not gated: NCL phases, model vs host, host state."""
    ops = {op["index"] for op in timed}
    outcomes = [op["outcome"] for op in timed if "outcome" in op]
    r4 = _median(watch.phase_seconds(ops, "replay4ncl"))
    slr = _median(watch.phase_seconds(ops, "spikinglr"))
    train_ratios = [
        watch.method_epoch_total(i, "spikinglr") / watch.method_epoch_total(i, "replay4ncl")
        for i in ops
        if watch.method_epoch_total(i, "replay4ncl") > 0
        and watch.method_epoch_total(i, "spikinglr") > 0
    ]
    return {
        "ncl_s.replay4ncl": r4,
        "ncl_s.spikinglr": slr,
        "old_acc": _median([o.old_acc for o in outcomes]),
        "new_acc": _median([o.new_acc for o in outcomes if o.new_acc is not None]),
        "hw.model_speedup": _median(
            [o.extras["hw.model_speedup"] for o in outcomes if "hw.model_speedup" in o.extras]),
        "host.ncl_speedup": slr / r4 if r4 and slr else 0.0,
        "host.train_speedup": _median(train_ratios),
        "host.steal_share": _median([op["steal_share"] for op in timed]),
        "host.probe_ms": _median([op["probe_ms"] for op in timed]),
        "host.wall_raw_s": _median([op["raw_seconds"] for op in timed]),
        "store.disk_bytes": _median(
            [o.extras["store.disk_bytes"] for o in outcomes if "store.disk_bytes" in o.extras]),
    }


def _layers(tracer, traced, untraced) -> dict:
    import tracing

    spans = tracer.spans()
    roots = {s.attrs["index"]: s for s in tracer.roots("bench.op")}
    per_op = [
        tracing.op_layer_metrics(spans, roots[op["index"]], op["counters"])
        for op in traced if op["index"] in roots
    ]
    values = tracing.median_of(per_op)
    setups = tracer.roots("bench.setup")
    if setups:
        values.update(tracing.setup_layer_metrics(spans, setups[-1]))
    untraced_s = _median([op["seconds"] for op in untraced])
    traced_s = _median([op["seconds"] for op in traced])
    values["obs.trace_overhead"] = traced_s / untraced_s if untraced_s else 0.0
    return values


def _op_summary(op) -> dict:
    summary = {k: v for k, v in op.items() if k not in ("outcome", "counters")}
    if "outcome" in op:
        o = op["outcome"]
        summary.update(old_acc=o.old_acc, new_acc=o.new_acc, digest=o.digest, **o.extras)
    return summary


if __name__ == "__main__":
    sys.exit(main())
