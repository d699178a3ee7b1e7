"""Spans around the program's public calls, and per-layer figures from them.

The benchmark does not add instrumentation to ``src/``.  Instead it
wraps the public calls of each layer (listed in :data:`LAYER_CALLS`)
while a traced run is active and records one span per call on a
:class:`repro.obs.Recorder`.  The program's own ``kernel.*``,
``store.*`` and ``scenario.*`` spans and counters land on the same
recorder, so the two sets nest into one tree per operation.

Spans stay in memory until the run ends; :meth:`Tracer.write` then
writes them as JSON lines with their run id and self time.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from repro import obs
from repro.autograd.tensor import Tensor
from repro.compression.bitpack import BitpackCodec
from repro.compression.sparse import AddressEventCodec
from repro.compression.subsample import TemporalSubsampleCodec
from repro.core import latent_replay
from repro.core.latent_replay import LatentReplayBuffer
from repro.core.strategies import NCLMethod
from repro.data.datasets import SpikeDataset
from repro.data.synthetic_shd import SyntheticSHD
from repro.replaystore.federation import FederatedReplayStore
from repro.replaystore.store import ReplayStore
from repro.replaystore.stream import ConcatReplaySource
from repro.snn.network import SpikingNetwork
from repro.training.optimizers import Adam
from repro.training.trainer import Trainer

#: Category of every span the benchmark records itself.
CATEGORY = "bench"

#: (owner, attribute, span name): the public calls a traced run wraps.
LAYER_CALLS = (
    (Trainer, "fit", "train.fit"),
    (Trainer, "train_epoch", "train.train_epoch"),
    (Adam, "step", "train.optimizer_step"),
    (Tensor, "backward", "autograd.backward"),
    (SpikingNetwork, "forward", "snn.forward"),
    (SpikingNetwork, "predict", "snn.predict"),
    (SpikingNetwork, "activations_at", "snn.activations_at"),
    (SyntheticSHD, "generate", "data.generate"),
    (SpikeDataset, "to_dense", "data.to_dense"),
    (LatentReplayBuffer, "generate", "latent.generate"),
    (LatentReplayBuffer, "generate_into_store", "latent.generate"),
    (LatentReplayBuffer, "materialize", "latent.materialize"),
    (latent_replay, "frozen_front_trace", "latent.frozen_trace"),
    (TemporalSubsampleCodec, "compress", "codec.compress"),
    (TemporalSubsampleCodec, "decompress", "codec.decompress"),
    (BitpackCodec, "compress", "codec.compress"),
    (BitpackCodec, "decompress", "codec.decompress"),
    (AddressEventCodec, "compress", "codec.compress"),
    (AddressEventCodec, "decompress", "codec.decompress"),
    (ReplayStore, "append", "store.write"),
    (ReplayStore, "read_shard", "store.read_shard"),
    (ConcatReplaySource, "gather", "store.gather"),
    (FederatedReplayStore, "adopt", "store.adopt"),
    (FederatedReplayStore, "rebalance", "store.rebalance"),
)

#: Spans that only group other work, and the benchmark's own probes:
#: their self time is not attributed to a layer.
UNATTRIBUTED = {
    "bench.op",
    "bench.probe",
    "bench.setup",
    "ncl.run",
    "scenario.run",
    "scenario.step",
    "scenario.pretrain",
    "ncl.prepare",
    "ncl.train",
    "train.epoch",
    "train.eval",
}

#: Per-layer time metrics: metric name -> span name summed (inclusive).
TIME_METRICS = {
    "train.epoch.s": "train.train_epoch",
    "train.optimizer.s": "train.optimizer_step",
    "autograd.backward.s": "autograd.backward",
    "train.eval.s": "train.evaluator",
    "snn.forward.s": "snn.forward",
    "snn.predict.s": "snn.predict",
    "snn.activations_at.s": "snn.activations_at",
    "kernel.lif_forward.s": "kernel.lif_forward",
    "kernel.lif_backward.s": "kernel.lif_backward",
    "kernel.readout_forward.s": "kernel.readout_forward",
    "kernel.readout_backward.s": "kernel.readout_backward",
    "data.generate.s": "data.generate",
    "data.to_dense.s": "data.to_dense",
    "latent.generate.s": "latent.generate",
    "latent.materialize.s": "latent.materialize",
    "latent.frozen_trace.s": "latent.frozen_trace",
    "codec.compress.s": "codec.compress",
    "codec.decompress.s": "codec.decompress",
    "store.write.s": "store.write",
    "store.read_shard.s": "store.read_shard",
    "store.gather.s": "store.gather",
    "store.adopt.s": "store.adopt",
    "store.rebalance.s": "store.rebalance",
    "scenario.eval.s": "scenario.eval",
    "hw.model.s": "hw.model",
}

#: Per-layer call counts: metric name -> span name counted.
CALL_METRICS = {
    "kernel.lif_forward.calls": "kernel.lif_forward",
    "kernel.lif_backward.calls": "kernel.lif_backward",
    "kernel.readout_forward.calls": "kernel.readout_forward",
    "kernel.readout_backward.calls": "kernel.readout_backward",
    "data.generate.calls": "data.generate",
    "store.read_shard.calls": "store.read_shard",
}

#: Metrics taken from the last traced set-up rather than the operations.
SETUP_METRICS = {
    "setup.data.generate.s": "data.generate",
    "setup.data.to_dense.s": "data.to_dense",
    "setup.train.epoch.s": "train.train_epoch",
}


@contextmanager
def patched(calls):
    """Replace each ``(owner, attr, make_wrapper)`` for the block.

    ``owner`` is a class or a module; a class or static method is
    wrapped as one.
    """
    saved = []
    try:
        for owner, attr, make_wrapper in calls:
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(make_wrapper(raw.__func__))
            else:
                replacement = make_wrapper(raw)
            setattr(owner, attr, replacement)
            saved.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


class Stopwatch:
    """Always-on timing of NCL phases and training epochs.

    Both untraced and traced runs read ``Trainer.train_epoch`` and
    ``NCLMethod.run`` durations from here; the cost is two clock reads
    per call.  Records made outside an operation (``op is None``) are
    set-up work and are ignored by the metrics.

    After each epoch of an operation the stopwatch also runs ``probe``
    (a short fixed loop, outside the epoch's timing) so the operation's
    host speed is sampled all through it; the time the probes take is
    kept so it can be taken off the operation's wall time.

    Args:
        probe: Zero-argument callable returning the probe's reading.
    """

    def __init__(self, probe):
        self.probe = probe
        self.op: int | None = None
        self.method: str | None = None
        #: (op, method or None, seconds) per ``train_epoch`` call.
        self.epochs: list[tuple[int, str | None, float]] = []
        #: (op, method, seconds) per ``NCLMethod.run`` call.
        self.phases: list[tuple[int, str, float]] = []
        #: (op, reading, seconds spent) per probe.
        self.probes: list[tuple[int, float, float]] = []

    def _epoch(self, fn):
        watch = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if watch.op is not None:
                    watch.epochs.append((watch.op, watch.method, perf_counter() - start))
                    with obs.span("bench.probe", category=CATEGORY):
                        start = perf_counter()
                        reading = watch.probe()
                        watch.probes.append((watch.op, reading, perf_counter() - start))

        return wrapper

    def _phase(self, fn):
        watch = self

        @functools.wraps(fn)
        def wrapper(method, *args, **kwargs):
            outer, watch.method = watch.method, method.name
            start = perf_counter()
            try:
                with obs.span("ncl.run", category=CATEGORY, method=method.name):
                    return fn(method, *args, **kwargs)
            finally:
                if watch.op is not None:
                    watch.phases.append((watch.op, method.name, perf_counter() - start))
                watch.method = outer

        return wrapper

    def installed(self):
        """Context manager installing the two timers."""
        return patched(
            [
                (Trainer, "train_epoch", self._epoch),
                (NCLMethod, "run", self._phase),
            ]
        )

    def phase_seconds(self, ops, method: str) -> list[float]:
        """NCL phase durations of ``method`` within ``ops``."""
        return [sec for op, name, sec in self.phases if op in ops and name == method]

    def op_probes(self, op: int) -> tuple[list[float], float]:
        """Probe readings of one operation and the seconds they took."""
        mine = [(reading, sec) for o, reading, sec in self.probes if o == op]
        return [r for r, _ in mine], sum(sec for _, sec in mine)

    def method_epoch_total(self, op: int, method: str) -> float:
        """Summed training-epoch time of one method in one operation."""
        return sum(sec for o, name, sec in self.epochs if o == op and name == method)


def _span_wrapper(name):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with obs.span(name, category=CATEGORY):
                return fn(*args, **kwargs)

        return wrapper

    return make


def _predict_wrapper(fn):
    @functools.wraps(fn)
    def wrapper(network, inputs, *args, **kwargs):
        # The input's identity tells repeated evaluations of one test set
        # apart from distinct ones (train.eval.distinct_ratio).
        with obs.span("snn.predict", category=CATEGORY, input=id(inputs)):
            return fn(network, inputs, *args, **kwargs)

    return wrapper


def _fit_wrapper(fn):
    @functools.wraps(fn)
    def wrapper(trainer, inputs, labels, evaluators=None, *args, **kwargs):
        if evaluators:
            evaluators = {
                field: _evaluator(field, evaluate)
                for field, evaluate in evaluators.items()
            }
        with obs.span("train.fit", category=CATEGORY):
            return fn(trainer, inputs, labels, evaluators, *args, **kwargs)

    return wrapper


def _evaluator(field, evaluate):
    def wrapper():
        with obs.span("train.evaluator", category=CATEGORY, field=field):
            return evaluate()

    return wrapper


class Tracer:
    """A traced run's recorder, wrappers and span store.

    Args:
        run_id: Identifier written into every exported span.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.recorder = obs.Recorder()

    @contextmanager
    def active(self):
        """Wrap the layer calls and record onto this tracer's recorder."""
        special = {(Trainer, "fit"): _fit_wrapper, (SpikingNetwork, "predict"): _predict_wrapper}
        calls = [
            (owner, attr, special.get((owner, attr)) or _span_wrapper(name))
            for owner, attr, name in LAYER_CALLS
        ]
        with patched(calls), obs.use_recorder(self.recorder):
            yield self

    def counters(self) -> dict[str, float]:
        """Current totals of the program's counters, by name."""
        totals: dict[str, float] = defaultdict(float)
        for entry in self.recorder.metrics():
            if entry.kind == "counter":
                totals[entry.name] += entry.total
        return dict(totals)

    # ------------------------------------------------------------------
    def spans(self):
        """Every finished span so far."""
        return self.recorder.spans()

    def roots(self, name: str):
        """Finished spans called ``name`` that the benchmark recorded."""
        return [s for s in self.spans() if s.name == name and s.category == CATEGORY]

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, with run id and self time."""
        spans = self.spans()
        self_times = _self_times(spans)
        with open(path, "w") as handle:
            for s in spans:
                record = {
                    "run": self.run_id,
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "name": s.name,
                    "category": s.category,
                    "thread": s.thread,
                    "start": s.start,
                    "end": s.end,
                    "self": self_times[s.span_id],
                    "attrs": s.attrs,
                }
                handle.write(json.dumps(record, default=str) + "\n")


def _self_times(spans) -> dict[int, float]:
    """Duration of each span minus the time its children cover."""
    self_time = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent_id in self_time:
            self_time[s.parent_id] -= s.duration
    return self_time


#: Names of the spans the benchmark records; a program span of the same
#: name (the program has its own ``store.gather``) is not counted twice.
BENCH_NAMES = {name for _, _, name in LAYER_CALLS} | {
    "train.evaluator", "hw.model", "ncl.run", "bench.op", "bench.setup", "bench.probe",
}


def _within(spans, root):
    """Spans of any thread inside ``root``'s interval, program duplicates dropped."""
    return [
        s for s in spans
        if s.span_id != root.span_id and s.start >= root.start and s.end <= root.end
        and (s.category == CATEGORY or s.name not in BENCH_NAMES)
    ]


def _descendants(spans, root):
    children = defaultdict(list)
    for s in spans:
        children[s.parent_id].append(s)
    found, frontier = [], [root.span_id]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            found.append(child)
            frontier.append(child.span_id)
    return found


def self_time_table(spans) -> list[dict]:
    """Calls, total and self seconds per (category, name), largest self first."""
    self_times = _self_times(spans)
    rows: dict[tuple, list] = {}
    for s in spans:
        row = rows.setdefault((s.category, s.name), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.duration
        row[2] += self_times[s.span_id]
    table = [
        {"category": cat, "name": name, "calls": n, "total_s": tot, "self_s": own}
        for (cat, name), (n, tot, own) in rows.items()
    ]
    return sorted(table, key=lambda row: -row["self_s"])


def coverage(spans, root) -> float:
    """Share of ``root``'s wall time whose self time sits in a layer span.

    Only the root's own thread counts: prefetch-worker spans overlap the
    main thread's and would be counted twice.  The benchmark's own probes
    are not the program's time and leave the denominator.
    """
    tree = _descendants(spans, root)
    self_times = _self_times([root, *tree])
    attributed = sum(
        self_times[s.span_id] for s in tree if s.name not in UNATTRIBUTED
    )
    program = root.duration - sum(s.duration for s in tree if s.name == "bench.probe")
    return attributed / program if program > 0 else 0.0


def op_layer_metrics(spans, root, counters_delta: dict[str, float]) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    window = _within(spans, root)
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in window:
        totals[s.name] += s.duration
        calls[s.name] += 1
    values = {metric: totals[name] for metric, name in TIME_METRICS.items()}
    values.update({metric: float(calls[name]) for metric, name in CALL_METRICS.items()})

    # Evaluation inside training: predicts per epoch and how many of them
    # re-evaluate an input already evaluated in the same epoch.
    by_id = {s.span_id: s for s in window}
    epochs = calls["train.train_epoch"]
    per_epoch: dict[int, list] = defaultdict(list)
    for s in window:
        parent = by_id.get(s.parent_id)
        if s.name == "snn.predict" and parent is not None and parent.name == "train.evaluator":
            grouping = by_id.get(parent.parent_id)  # the program's per-epoch span
            per_epoch[grouping.span_id if grouping else parent.span_id].append(
                s.attrs.get("input")
            )
    predicts = sum(len(ids) for ids in per_epoch.values())
    distinct = sum(len(set(ids)) for ids in per_epoch.values())
    values["train.predicts_per_epoch"] = predicts / epochs if epochs else 0.0
    values["train.eval.distinct_ratio"] = distinct / predicts if predicts else 0.0
    ncl_total = totals["ncl.run"]
    values["train.eval.share"] = values["train.eval.s"] / ncl_total if ncl_total else 0.0

    hits = counters_delta.get("store.cache_hits", 0.0)
    misses = counters_delta.get("store.cache_misses", 0.0)
    values["store.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["store.evicted"] = counters_delta.get("federation.evictions", 0.0)
    values["trace.coverage"] = coverage(spans, root)
    return values


def setup_layer_metrics(spans, root) -> dict[str, float]:
    """Per-layer figures of one traced set-up."""
    window = _within(spans, root)
    return {
        metric: sum((s.duration for s in window if s.name == name), 0.0)
        for metric, name in SETUP_METRICS.items()
    }


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    """Key-wise median of a list of metric dicts."""
    if not dicts:
        return {}
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}
