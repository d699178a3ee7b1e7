"""Tests for ReplayStream, ConcatReplaySource, and DataLoader batch sources."""

import json
import shutil
import threading

import numpy as np
import pytest

from repro.data.loaders import DataLoader
from repro.errors import DataError, StoreError
from repro.ioutil import FileLock
from repro.obs import Recorder, use_recorder
from repro.replaystore import ConcatReplaySource, ReplayStore, ReplayStream
from repro.replaystore.store import INDEX_NAME, LOCK_NAME


@pytest.fixture
def raster():
    rng = np.random.default_rng(42)
    return (rng.random((12, 30, 9)) < 0.15).astype(np.float32)


@pytest.fixture
def store(tmp_path, raster):
    store = ReplayStore.create(
        tmp_path / "store",
        stored_frames=12,
        num_channels=9,
        generated_timesteps=12,
        shard_samples=7,
    )
    store.append(raster, np.arange(30) % 5)
    return store


@pytest.fixture
def subsampled_store(tmp_path, raster):
    # Factor-2 store: 12 stored frames expand to 24 on replay.
    store = ReplayStore.create(
        tmp_path / "sub",
        stored_frames=12,
        num_channels=9,
        generated_timesteps=24,
        codec_factor=2,
        shard_samples=7,
    )
    store.append(raster, np.arange(30) % 5)
    return store


class TestReplayStream:
    def test_gather_matches_dense_indexing(self, store, raster):
        stream = ReplayStream(store)
        idx = np.array([29, 0, 13, 13, 6])  # unsorted, duplicated
        np.testing.assert_array_equal(stream.gather(idx), raster[:, idx, :])

    def test_materialize(self, store, raster):
        np.testing.assert_array_equal(ReplayStream(store).materialize(), raster)

    def test_shape_and_labels(self, store):
        stream = ReplayStream(store)
        assert stream.shape == (12, 30, 9)
        np.testing.assert_array_equal(stream.labels, np.arange(30) % 5)

    def test_decompress_zero_stuffs(self, subsampled_store, raster):
        from repro.compression import TemporalSubsampleCodec

        stream = ReplayStream(subsampled_store, decompress=True)
        assert stream.shape == (24, 30, 9)
        expected = TemporalSubsampleCodec(2).decompress(raster, 24)
        np.testing.assert_array_equal(stream.materialize(), expected)

    def test_factor_requires_decompress(self, subsampled_store):
        with pytest.raises(StoreError, match="without decompression"):
            ReplayStream(subsampled_store, decompress=False)

    def test_gather_validation(self, store):
        stream = ReplayStream(store)
        with pytest.raises(StoreError, match="out of range"):
            stream.gather(np.array([30]))
        with pytest.raises(StoreError, match="1-D"):
            stream.gather(np.zeros((2, 2), dtype=np.int64))

    def test_decodes_each_shard_once(self, store):
        with use_recorder(Recorder()) as recorder:
            stream = ReplayStream(store)
            for _ in range(3):
                stream.gather(np.arange(30)[::-1])
            stream.materialize()
        decoded = [
            m.total for m in recorder.metrics() if m.name == "store.shards_decoded"
        ]
        assert decoded == [store.num_shards]
        shards = [
            s.attrs["shard"] for s in recorder.spans() if s.name == "store.decode_shard"
        ]
        assert shards == list(range(store.num_shards))

    def test_snapshot_is_read_only_and_gathers_are_copies(self, store, raster):
        stream = ReplayStream(store)
        with pytest.raises(ValueError):
            stream.materialize()[0, 0, 0] = 1.0
        batch = stream.gather(np.arange(3))
        batch[...] = 7.0
        np.testing.assert_array_equal(stream.materialize(), raster)

    def test_edited_index_label_is_store_error(self, store):
        # The index is read back under the lock: a label edited in the
        # index disagrees with the shard, and the read refuses it.
        index = store.root / INDEX_NAME
        payload = json.loads(index.read_text())
        payload["shards"][2]["labels"][0] += 1
        index.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="disagrees with the index"):
            ReplayStream(ReplayStore.open(store.root))

    def test_missing_shard_file_is_store_error(self, store):
        (store.root / store.shards[3].file).unlink()
        with pytest.raises(StoreError, match="is gone"):
            ReplayStream(store)

    def test_vanished_store_is_store_error(self, store):
        shutil.rmtree(store.root)
        with pytest.raises(StoreError, match="no replay store"):
            ReplayStream(store)

    def test_read_waits_for_the_writer_lock(self, store, raster):
        gate = FileLock(store.root / LOCK_NAME)
        gate.acquire()
        served = []
        reader = threading.Thread(
            target=lambda: served.append(ReplayStream(store).materialize())
        )
        reader.start()
        reader.join(timeout=0.3)
        assert not served, "a replay read must wait while a writer holds the lock"
        gate.release()
        reader.join(timeout=10)
        np.testing.assert_array_equal(served[0], raster)

    def test_empty_store(self, tmp_path):
        empty = ReplayStore.create(
            tmp_path / "empty", stored_frames=12, num_channels=9,
            generated_timesteps=12,
        )
        stream = ReplayStream(empty)
        assert stream.shape == (12, 0, 9)
        assert stream.gather(np.zeros(0, dtype=np.int64)).shape == (12, 0, 9)


class TestConcatReplaySource:
    def test_parity_with_concatenate(self, store, raster):
        rng = np.random.default_rng(3)
        dense = (rng.random((12, 11, 9)) < 0.2).astype(np.float32)
        source = ConcatReplaySource(dense, ReplayStream(store))
        reference = np.concatenate([dense, raster], axis=1)
        assert source.shape == reference.shape
        order = rng.permutation(41)
        np.testing.assert_array_equal(
            source.gather(order), reference[:, order, :]
        )

    def test_rejects_out_of_range_indices(self, store):
        # Negative indices must NOT silently wrap into the dense half —
        # that would break the np.concatenate fancy-indexing identity.
        source = ConcatReplaySource(np.zeros((12, 10, 9)), ReplayStream(store))
        with pytest.raises(StoreError, match="out of range"):
            source.gather(np.array([-1]))
        with pytest.raises(StoreError, match="out of range"):
            source.gather(np.array([40]))

    def test_rejects_multidimensional_indices(self, store):
        source = ConcatReplaySource(np.zeros((12, 10, 9)), ReplayStream(store))
        with pytest.raises(StoreError, match="1-D"):
            source.gather(np.zeros((2, 2), dtype=np.int64))

    def test_gathers_are_writable_copies(self, store, raster):
        dense = np.ones((12, 2, 9), dtype=np.float32)
        source = ConcatReplaySource(dense, ReplayStream(store))
        batch = source.gather(np.array([0, 2, 31]))
        batch[...] = 5.0
        np.testing.assert_array_equal(
            source.gather(np.arange(32)), np.concatenate([dense, raster], axis=1)
        )

    def test_geometry_validated(self, store):
        with pytest.raises(StoreError, match="frames"):
            ConcatReplaySource(np.zeros((5, 3, 9)), ReplayStream(store))
        with pytest.raises(StoreError, match="channels"):
            ConcatReplaySource(np.zeros((12, 3, 4)), ReplayStream(store))
        with pytest.raises(StoreError):
            ConcatReplaySource(np.zeros((12, 3)), ReplayStream(store))


class TestLazyDataLoader:
    def test_batches_identical_to_dense(self, store, raster):
        rng = np.random.default_rng(5)
        dense = (rng.random((12, 11, 9)) < 0.2).astype(np.float32)
        labels = np.arange(41)
        reference = np.concatenate([dense, raster], axis=1)

        lazy = DataLoader(
            ConcatReplaySource(dense, ReplayStream(store)),
            labels,
            batch_size=8,
            shuffle=True,
            rng=np.random.default_rng(99),
        )
        dense_loader = DataLoader(
            reference, labels, batch_size=8, shuffle=True,
            rng=np.random.default_rng(99),
        )
        lazy_batches = list(lazy)
        dense_batches = list(dense_loader)
        assert len(lazy_batches) == len(dense_batches) == len(lazy)
        for (li, ll), (di, dl) in zip(lazy_batches, dense_batches):
            np.testing.assert_array_equal(li, di)
            np.testing.assert_array_equal(ll, dl)

    def test_lazy_source_validation(self, store):
        source = ConcatReplaySource(np.zeros((12, 1, 9)), ReplayStream(store))
        with pytest.raises(DataError, match="labels"):
            DataLoader(source, np.zeros(7), batch_size=4)
        with pytest.raises(DataError, match="batch_size"):
            DataLoader(source, np.zeros(31), batch_size=0)
