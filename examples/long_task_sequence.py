"""A long task stream on a memory budget: federated replay stores.

The scenario the federation exists for: an embedded agent keeps meeting
new classes, and replay memory must stay flat no matter how long the
stream runs.  Three acts:

1. **Store-federated sequential NCL** — a 3-step class-incremental
   stream where every step persists its latent replay into a member
   store of one `FederatedReplayStore`; each step reads its member back
   once, decoding every shard exactly once, and trains from that array.
2. **Global budget** — the same stream under a hard byte budget across
   *all* steps' stores: after each step the federation rebalances,
   evicting across members class-balancedly, and the archive never
   exceeds the budget.
3. **Dense parity** — the identical stream with replay held dense in
   memory, verifying the store-backed run reproduced it bit for bit.

Run:  python examples/long_task_sequence.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import ReplaySpec
from repro.core.pipeline import pretrain
from repro.data import SyntheticSHD, make_class_incremental
from repro.eval.scale import get_scale
from repro.hw.memory import audit_federation
from repro.replaystore import FederatedReplayStore
from repro.scenario import get, run_scenario


def build_scenario():
    preset = get_scale("ci")
    generator = SyntheticSHD(preset.shd, seed=preset.experiment.seed)
    exp = preset.experiment.replace(num_pretrain_classes=2)
    base_split = make_class_incremental(
        generator,
        exp.samples_per_class,
        exp.test_samples_per_class,
        num_pretrain_classes=2,
    )
    print("pre-training the base network (2 classes)...")
    pretrained = pretrain(exp, base_split)
    # Every run below starts from the same pre-trained network.
    return dict(
        scenario=get("sequential", steps_count=3, base_classes=2),
        method="replay4ncl",
        generator=generator,
        experiment=exp,
        pretrained=pretrained.network,
    )


def federated_run(stream, workdir: Path):
    print("\n=== act 1: store-federated 3-step stream ===")
    result = run_scenario(
        **stream,
        replay=ReplaySpec(store_dir=workdir / "federation", shard_samples=4),
    )
    print(result.describe())
    federation = FederatedReplayStore.open(result.store_root)
    print(f"\nfederation: {federation!r}")
    for k in range(len(result.steps)):
        member = federation.member(f"step-{k:03d}")
        dense_bytes = (
            4 * member.meta.stored_frames * member.num_samples
            * member.meta.num_channels
        )
        print(
            f"  step {k}: replay classes {sorted(set(member.labels.tolist()))}, "
            f"{member.num_samples} samples in {member.num_shards} shards, "
            f"decoded once per phase into {dense_bytes} B"
        )
    audit = audit_federation(federation)
    print(
        f"archive: {audit.num_samples} samples in {audit.num_members} members, "
        f"{audit.disk_bytes} B on disk (model {audit.modelled_bytes} B)"
    )
    return result


def budgeted_run(stream, workdir: Path, reference):
    print("\n=== act 2: the same stream under a global byte budget ===")
    probe = FederatedReplayStore.open(reference.store_root)
    budget = 12 * probe.sample_bytes
    print(f"budget: {budget} B (~12 samples across the whole stream)")
    result = run_scenario(
        **stream,
        replay=ReplaySpec(
            store_dir=workdir / "budgeted",
            shard_samples=4,
            federation_budget_bytes=budget,
        ),
    )
    federation = FederatedReplayStore.open(result.store_root)
    stats = federation.stats()
    print(
        f"archive after 3 steps: {stats.num_samples} samples, "
        f"{stats.model_bytes} / {budget} B "
        f"({stats.budget_utilization:.0%} of budget)"
    )
    print(f"per-member survivors: {stats.member_samples}")
    print(f"class counts stay balanced: {stats.class_counts}")
    identical = all(
        np.array_equal(p.data, q.data)
        for a, b in zip(reference.steps, result.steps)
        for p, q in zip(a.network.parameters(), b.network.parameters())
    )
    print(f"trajectory unchanged by archival budget: {identical}")


def dense_parity(stream, reference):
    print("\n=== act 3: dense in-memory replay vs the store, bit-identical ===")
    result = run_scenario(**stream)
    identical = all(
        np.array_equal(p.data, q.data)
        for a, b in zip(reference.steps, result.steps)
        for p, q in zip(a.network.parameters(), b.network.parameters())
    )
    print(f"final weights identical to the dense run: {identical}")


def main() -> None:
    stream = build_scenario()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        reference = federated_run(stream, workdir)
        budgeted_run(stream, workdir, reference)
        dense_parity(stream, reference)


if __name__ == "__main__":
    main()
