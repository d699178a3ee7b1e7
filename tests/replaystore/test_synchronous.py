"""Store-backed replay reads run inline on the calling thread.

Every lazy replay source — a single-store :class:`ReplayStream`, the
dense+stored :class:`ConcatReplaySource` the NCL step trains on, and a
stream over a federation member rewritten by an evicting rebalance
(ragged shards of a later generation) — decodes shards inside
``gather``.  These tests pin both halves of that contract: gathers equal
fancy indexing on the dense array for every index pattern the loader
can produce, and no thread is ever started to serve them.
"""

import threading

import numpy as np
import pytest

from repro.data.loaders import DataLoader
from repro.replaystore import (
    ConcatReplaySource,
    FederatedReplayStore,
    ReplayStore,
    ReplayStream,
)

FRAMES, CHANNELS, SHARD = 10, 7, 4


def _raster(seed, samples):
    rng = np.random.default_rng(seed)
    return (rng.random((FRAMES, samples, CHANNELS)) < 0.25).astype(np.float32)


def _write_store(root, raster, labels):
    store = ReplayStore.create(
        root,
        stored_frames=FRAMES,
        num_channels=CHANNELS,
        generated_timesteps=FRAMES,
        shard_samples=SHARD,
    )
    store.append(raster, labels)
    return store


@pytest.fixture
def sources(tmp_path):
    """``name -> (factory, dense reference)`` for each lazy source."""
    stored = _raster(1, 13)
    store = _write_store(tmp_path / "single", stored, np.arange(13) % 3)
    dense_half = _raster(2, 6)

    fed = FederatedReplayStore.create(tmp_path / "fed", seed=0)
    first, second = _raster(3, 9), _raster(4, 5)
    _write_store(tmp_path / "fed" / "task-0", first, np.zeros(9))
    _write_store(tmp_path / "fed" / "task-1", second, np.ones(5))
    fed.adopt("task-0")
    fed.adopt("task-1")
    fed.configure(budget_bytes=10 * fed.sample_bytes)
    assert fed.rebalance() == 4  # class 0 evicted down to 5 survivors
    member = fed.member("task-0")
    survivors = np.asarray(
        [
            next(i for i in range(9) if np.array_equal(first[:, i], column))
            for column in np.moveaxis(ReplayStream(member).materialize(), 1, 0)
        ]
    )
    assert survivors.size == 5 and (np.diff(survivors) > 0).all()

    return {
        "stream": (lambda: ReplayStream(store), stored),
        "concat": (
            lambda: ConcatReplaySource(dense_half, ReplayStream(store)),
            np.concatenate([dense_half, stored], axis=1),
        ),
        "rebalanced": (lambda: ReplayStream(member), first[:, survivors, :]),
    }


_PATTERNS = {
    "sorted": lambda n: np.arange(n),
    "reversed": lambda n: np.arange(n)[::-1],
    "duplicates": lambda n: np.array([n - 1, 0, n - 1, 1, 0]),
    "single": lambda n: np.array([n // 2]),
    "strided": lambda n: np.arange(0, n, SHARD + 1),
    "permutation": lambda n: np.random.default_rng(9).permutation(n),
    "empty": lambda n: np.array([], dtype=np.int64),
}


@pytest.fixture
def started_threads(monkeypatch):
    """Names of every thread started while the test body runs."""
    started = []
    original = threading.Thread.start

    def recording_start(self):
        started.append(self.name)
        return original(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


@pytest.mark.parametrize("pattern", sorted(_PATTERNS))
@pytest.mark.parametrize("source", ["stream", "concat", "rebalanced"])
def test_gather_matches_dense_indexing(sources, source, pattern):
    factory, dense = sources[source]
    indices = _PATTERNS[pattern](dense.shape[1])
    np.testing.assert_array_equal(factory().gather(indices), dense[:, indices, :])


@pytest.mark.parametrize("source", ["stream", "concat", "rebalanced"])
def test_gather_starts_no_thread(sources, source, started_threads):
    factory, dense = sources[source]
    lazy = factory()
    for indices in (np.arange(dense.shape[1]), np.arange(dense.shape[1])[::-1]):
        lazy.gather(indices)
    assert started_threads == []


def test_shuffled_epoch_is_dense_and_single_threaded(sources, started_threads):
    factory, dense = sources["concat"]
    labels = np.arange(dense.shape[1])
    lazy = DataLoader(
        factory(), labels, batch_size=4, shuffle=True, rng=np.random.default_rng(5)
    )
    reference = DataLoader(
        dense, labels, batch_size=4, shuffle=True, rng=np.random.default_rng(5)
    )
    for (got_x, got_y), (want_x, want_y) in zip(lazy, reference, strict=True):
        np.testing.assert_array_equal(got_x, want_x)
        np.testing.assert_array_equal(got_y, want_y)
    assert started_threads == []
