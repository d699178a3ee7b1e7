"""The three benchmark workloads: set-up, timed operation, output checks.

Each workload calls the program only through public functions.  Its
``setup`` builds everything the operation needs (synthesis, binning and,
for the NCL workloads, the pretrained network); ``run`` is the timed
operation; ``inspect`` checks the operation's output outside the timed
region and returns an :class:`Outcome`.

Why these three:

- ``pretrain`` is the only workload that trains all four layers, so it
  is the one that runs ``lif_backward``, the weight-gradient GEMMs and
  the optimizer at scale.  It has no per-epoch evaluation and no replay.
- ``headline`` is the paper comparison: SpikingLR (T=100, x2 subsample
  codec) and Replay4NCL (T=40) from one pretrained network, then the
  analytic latency, energy and memory models.  It stresses latent
  generation, the codecs, readout-only training and per-epoch
  evaluation, and bypasses pretraining and the replay store.
- ``sequential-store`` runs three chained Replay4NCL steps through the
  on-disk replay federation with two-sample shards and a byte budget
  that forces eviction, so store writes, shard decodes, adoption and
  rebalancing all sit on the timed path.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.pipeline import PretrainResult, pretrain
from repro.core.replay4ncl import Replay4NCL
from repro.core.replayspec import ReplaySpec
from repro.core.spikinglr import SpikingLR
from repro.data.synthetic_shd import SyntheticSHD
from repro.data.tasks import make_class_incremental
from repro.eval.scale import get_scale
from repro.hw import (
    EnergyModel,
    LatencyModel,
    LatentMemoryModel,
    audit_federation,
    embedded_neuromorphic,
    latent_memory_bytes,
)
from repro.replaystore.federation import FederatedReplayStore
from repro.scenario import get as get_scenario
from repro.scenario import run_scenario
from tracing import CATEGORY

#: Samples per shard on ``sequential-store``: each member then spans
#: 14-18 shards against the stream's two-shard decode cache.
SHARD_SAMPLES = 2
#: Federation budget as a share of the first two members' modelled bytes.
BUDGET_SHARE = 0.75
SEQUENTIAL_STEPS = 3


@dataclass
class Outcome:
    """What one operation produced, reduced to checked figures.

    Attributes:
        old_acc: Final top-1 on the old (pretraining) classes.
        new_acc: Final top-1 on the newest classes; None on ``pretrain``.
        digest: Hash of the final weights and accuracies; equal seeds
            must give equal digests.
        problems: Failed output checks; empty when the output is right.
        extras: Figures reported next to the metrics (model speed-up,
            store bytes).
    """

    old_acc: float
    new_acc: float | None
    digest: str
    problems: list[str] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)


def _digest(arrays, values) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str((array.dtype.str, array.shape)).encode())
        h.update(array.tobytes())
    h.update(repr([float(v) for v in values]).encode())
    return h.hexdigest()


def _weights(network) -> list[np.ndarray]:
    return [
        value
        for _, params in sorted(network.state_dict().items())
        for _, value in sorted(params.items())
    ]


def _accuracy_problems(named: dict[str, float]) -> list[str]:
    return [
        f"{name}={value!r} is not a finite accuracy in [0, 1]"
        for name, value in named.items()
        if not (math.isfinite(value) and 0.0 <= value <= 1.0)
    ]


def _split(preset, seed):
    cfg = preset.experiment
    generator = SyntheticSHD(preset.shd, seed=seed)
    split = make_class_incremental(
        generator,
        cfg.samples_per_class,
        cfg.test_samples_per_class,
        num_pretrain_classes=cfg.num_pretrain_classes,
    )
    return generator, split


def _bin(split, *timesteps):
    """Fill the datasets' binning caches, which the program keeps per dataset."""
    for dataset in (split.pretrain_train, split.pretrain_test, split.new_train, split.new_test):
        for t in timesteps:
            dataset.to_dense(t)


def corrupt(raw) -> None:
    """Perturb one final weight of an operation's output in place.

    The self-test uses this to show that a wrong output is counted as a
    failed operation.
    """
    if isinstance(raw, PretrainResult):
        network = raw.network
    elif isinstance(raw, tuple):
        network = raw[1].network
    else:
        network = raw.final_network
    layer, params = next(iter(sorted(network.state_dict().items())))
    name, value = next(iter(sorted(params.items())))
    value = value.copy()
    value.flat[0] += 1.0
    network.load_state_dict({**network.state_dict(), layer: {**params, name: value}})


class Pretrain:
    """Full-network BPTT on the old classes plus the final test predict."""

    name = "pretrain"

    def setup(self, scale: str, seed: int, workdir: Path):
        preset = get_scale(scale)
        _, split = _split(preset, seed)
        _bin(split, preset.experiment.pretrain.timesteps)
        return {"cfg": preset.experiment, "split": split}

    def run(self, ctx, index: int):
        return pretrain(ctx["cfg"], ctx["split"])

    def inspect(self, ctx, raw: PretrainResult) -> Outcome:
        problems = _accuracy_problems({"test_accuracy": raw.test_accuracy})
        losses = [r.loss for r in raw.history.records]
        if len(losses) != ctx["cfg"].pretrain.epochs or not all(map(math.isfinite, losses)):
            problems.append(
                f"pretraining losses are not {ctx['cfg'].pretrain.epochs} finite values"
            )
        return Outcome(
            old_acc=raw.test_accuracy,
            new_acc=None,
            digest=_digest(_weights(raw.network), [raw.test_accuracy, *losses]),
            problems=problems,
        )


class Headline:
    """SpikingLR then Replay4NCL from one pretrained network, then the hw models."""

    name = "headline"

    def setup(self, scale: str, seed: int, workdir: Path):
        preset = get_scale(scale)
        cfg = preset.experiment
        _, split = _split(preset, seed)
        _bin(split, cfg.pretrain.timesteps, cfg.ncl.timesteps)
        return {"cfg": cfg, "split": split, "pretrained": pretrain(cfg, split)}

    def run(self, ctx, index: int):
        cfg, split = ctx["cfg"], ctx["split"]
        network = ctx["pretrained"].network
        sota = SpikingLR(cfg).run(network, split)
        ours = Replay4NCL(cfg).run(network, split)
        with obs.span("hw.model", category=CATEGORY):
            profile = embedded_neuromorphic()
            latency, energy = LatencyModel(profile), EnergyModel(profile)
            model = {
                "hw.model_speedup": latency.run_latency(sota, include_prepare=False)
                / latency.run_latency(ours, include_prepare=False),
                "hw.memory_saving": LatentMemoryModel().saving(
                    sota.latent_storage_bytes, ours.latent_storage_bytes
                ),
                "hw.energy_saving": 1.0
                - energy.run_energy(ours, include_prepare=False)
                / energy.run_energy(sota, include_prepare=False),
            }
        return sota, ours, model

    def inspect(self, ctx, raw) -> Outcome:
        cfg, split = ctx["cfg"], ctx["split"]
        sota, ours, model = raw
        accuracies = {}
        for result in (sota, ours):
            for record in result.history.records:
                for key in ("old_task_accuracy", "new_task_accuracy", "overall_accuracy"):
                    accuracies[f"{result.method}.{key}[{record.epoch}]"] = getattr(record, key)
        problems = _accuracy_problems(accuracies)

        # Latent bytes must equal the storage model for the replay subset:
        # ceil(fraction * n_c) samples of every old class.
        counts = split.pretrain_train.class_counts().values()
        replay_samples = sum(max(1, math.ceil(cfg.ncl.replay_fraction * n)) for n in counts)
        channels = cfg.network.layer_sizes[cfg.ncl.insertion_layer]
        for result in (sota, ours):
            expected = latent_memory_bytes(result.latent_stored_frames, replay_samples, channels)
            if result.latent_storage_bytes != expected:
                problems.append(
                    f"{result.method} latent bytes {result.latent_storage_bytes} != "
                    f"model {expected}"
                )
        problems += [
            f"{name}={value!r} is not finite" for name, value in model.items()
            if not math.isfinite(value)
        ]
        return Outcome(
            old_acc=ours.final_old_accuracy,
            new_acc=ours.final_new_accuracy,
            digest=_digest(
                _weights(sota.network) + _weights(ours.network),
                list(accuracies.values()) + [sota.latent_storage_bytes, ours.latent_storage_bytes],
            ),
            problems=problems,
            extras=dict(model),
        )


class SequentialStore:
    """Three chained Replay4NCL steps through a budgeted on-disk federation."""

    name = "sequential-store"

    def setup(self, scale: str, seed: int, workdir: Path):
        preset = get_scale(scale)
        cfg = preset.experiment
        generator = SyntheticSHD(preset.shd, seed=seed)
        first = next(iter(self._scenario().steps(generator, cfg)))
        # Member k replays ceil(fraction * n) samples of each class seen
        # before step k; the budget sits below the first two members' sum.
        per_class = max(1, math.ceil(cfg.ncl.replay_fraction * cfg.samples_per_class))
        base = len(first.split.old_classes)
        first_two = (base + base + 1) * per_class
        channels = cfg.network.layer_sizes[cfg.ncl.insertion_layer]
        budget = int(BUDGET_SHARE * latent_memory_bytes(cfg.ncl.timesteps, first_two, channels))
        return {
            "cfg": cfg,
            "generator": generator,
            "pretrained": pretrain(cfg, first.split),
            "budget": budget,
            "workdir": workdir,
        }

    @staticmethod
    def _scenario():
        return get_scenario("sequential", steps_count=SEQUENTIAL_STEPS)

    def _run(self, ctx, replay):
        return run_scenario(
            self._scenario(),
            "replay4ncl",
            generator=ctx["generator"],
            experiment=ctx["cfg"],
            pretrained=ctx["pretrained"],
            replay=replay,
        )

    def reference(self, ctx) -> None:
        """The dense-replay run every store-backed run must equal bitwise."""
        ctx["dense_matrix"] = self._run(ctx, None).accuracy_matrix

    def run(self, ctx, index: int):
        store = ctx["workdir"] / f"store-{index}"
        return self._run(
            ctx,
            ReplaySpec(
                store,
                shard_samples=SHARD_SAMPLES,
                federation_budget_bytes=ctx["budget"],
            ),
        )

    def inspect(self, ctx, raw) -> Outcome:
        matrix = raw.accuracy_matrix
        seen = ~np.isnan(matrix)
        problems = _accuracy_problems(
            {f"R[{i},{j}]": matrix[i, j] for i, j in zip(*np.nonzero(seen))}
        )
        if not np.array_equal(np.tril(np.ones_like(matrix, dtype=bool)), seen):
            problems.append("accuracy matrix is not filled exactly on and below the diagonal")
        if not np.array_equal(matrix, ctx["dense_matrix"], equal_nan=True):
            problems.append("store-backed accuracy matrix differs from dense replay")
        root = Path(raw.store_root)
        audit = audit_federation(FederatedReplayStore.open(root))
        if not audit.within_budget:
            problems.append(
                f"federation holds {audit.budget_model_bytes} B over its "
                f"{audit.budget_bytes} B budget"
            )
        final = raw.steps[-1]
        outcome = Outcome(
            old_acc=final.final_old_accuracy,
            new_acc=final.final_new_accuracy,
            digest=_digest(_weights(raw.final_network), matrix[seen].tolist()),
            problems=problems,
            extras={"store.disk_bytes": float(audit.disk_bytes)},
        )
        shutil.rmtree(root)
        return outcome


WORKLOADS = {w.name: w for w in (Pretrain(), Headline(), SequentialStore())}
