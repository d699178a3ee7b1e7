"""Federated replay maintenance: the between-steps rebalance pass.

``test_federated_rebalance`` times the budget-eviction pass (admission
sweep + cross-member shard rewrite) over a three-member federation sized
by ``REPRO_BENCH_SCALE`` like the other storage benches.
"""

import os
import shutil

import numpy as np
import pytest

from repro.replaystore import FederatedReplayStore, ReplayStore

#: (stored_frames, samples per member, channels, shard_samples)
_SCALE_SIZES = {
    "ci": (16, 48, 48, 8),
    "bench": (40, 192, 128, 16),
    "paper": (40, 768, 256, 32),
}


def _sizes():
    scale = os.environ.get("REPRO_BENCH_SCALE", "bench")
    if scale not in _SCALE_SIZES:
        raise ValueError(
            f"unknown REPRO_BENCH_SCALE {scale!r}; expected one of "
            f"{sorted(_SCALE_SIZES)}"
        )
    return _SCALE_SIZES[scale]


@pytest.fixture(scope="module")
def federation(tmp_path_factory):
    frames, samples, channels, shard_samples = _sizes()
    rng = np.random.default_rng(0)
    root = tmp_path_factory.mktemp("bench-federation") / "fed"
    fed = FederatedReplayStore.create(root, seed=0)
    for k in range(3):
        store = ReplayStore.create(
            root / f"task-{k}",
            stored_frames=frames,
            num_channels=channels,
            generated_timesteps=frames,
            shard_samples=shard_samples,
        )
        store.append(
            (rng.random((frames, samples, channels)) < 0.1).astype(np.float32),
            rng.integers(0, 10, samples),
        )
        fed.adopt(f"task-{k}")
    return fed


# ----------------------------------------------------------------------
# Between-steps maintenance: budgeted cross-member eviction
# ----------------------------------------------------------------------
def test_federated_rebalance(benchmark, federation, tmp_path):
    """Budget-eviction pass between steps: admission sweep + member rewrite."""
    source = federation

    def rebalance():
        # Fresh copy per round: rebalance mutates the member stores.
        root = tmp_path / "round"
        if root.exists():
            shutil.rmtree(root)
        shutil.copytree(source.root, root)
        fed = FederatedReplayStore.open(root)
        fed.configure(budget_bytes=(fed.num_samples // 2) * fed.sample_bytes)
        return fed.rebalance()

    result = benchmark(rebalance)
    assert result > 0
