"""The replay-memory engine end to end: replay from disk, then audit it.

Two acts:

1. **Store-backed NCL** — a full Replay4NCL run with the replay buffer
   resident on disk, verified bit-for-bit against the in-memory path.
2. **Accounting** — the Fig. 12 latent-memory model is cross-checked
   against the actual shard bytes that run's store wrote.

Run:  python examples/replay_store_streaming.py
"""

import tempfile
from pathlib import Path

from repro.core import Replay4NCL, ReplaySpec, pretrain, run_method
from repro.data import SyntheticSHD, make_class_incremental
from repro.eval.scale import get_scale
from repro.hw.memory import audit_store
from repro.replaystore import ReplayStore


def store_backed_ncl(workdir: Path) -> Path:
    """Full NCL run with replay resident on disk — exact parity."""
    preset = get_scale("ci")
    experiment = preset.experiment
    generator = SyntheticSHD(preset.shd, seed=experiment.seed)
    split = make_class_incremental(
        generator,
        experiment.samples_per_class,
        experiment.test_samples_per_class,
        num_pretrain_classes=experiment.num_pretrain_classes,
    )
    pretrained = pretrain(experiment, split)

    in_memory = run_method(Replay4NCL(experiment), pretrained, split)
    store_backed = run_method(
        Replay4NCL(experiment),
        pretrained,
        split,
        replay=ReplaySpec(store_dir=workdir / "ncl-store", shard_samples=4),
    )
    print("store-backed Replay4NCL (ci scale):")
    print(f"  in-memory:    {in_memory.summary()}")
    print(f"  store-backed: {store_backed.summary()}")
    identical = (
        in_memory.final_overall_accuracy == store_backed.final_overall_accuracy
        and [r.loss for r in in_memory.history]
        == [r.loss for r in store_backed.history]
    )
    print(f"  bitwise-identical trajectory via ReplayStream: {identical}")
    print(f"  store at {store_backed.replay_store_path}\n")
    return Path(store_backed.replay_store_path)


def accounting_demo(store_path: Path) -> None:
    """Model-vs-disk audit of the store the NCL run wrote."""
    audit = audit_store(ReplayStore.open(store_path))
    print(f"latent-memory accounting ({audit.num_samples} samples, "
          f"{audit.num_shards} shards):")
    print(f"  analytic model: {audit.modelled_bytes} B (bitmap + headers)")
    print(f"  codec payload:  {audit.payload_bytes} B "
          f"(saving {audit.payload_saving:.1%})")
    print(f"  on disk:        {audit.disk_bytes} B "
          f"(format overhead {audit.format_overhead_bytes} B)")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        accounting_demo(store_backed_ncl(Path(tmp)))
