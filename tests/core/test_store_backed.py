"""Store-backed NCL runs: disk-resident replay, bitwise-identical training.

The acceptance bar for the replaystore subsystem: running a full NCL
phase with the replay buffer on disk (``ReplaySpec(store_dir=...)``) must
reproduce the in-memory path **exactly** — same losses, same accuracy
curve, same final weights — because the shard codecs are lossless and
the minibatch schedule is unchanged.
"""

import threading

import numpy as np
import pytest

from repro.compression import TemporalSubsampleCodec
from repro.core import Replay4NCL, ReplaySpec, SpikingLR, run_method
from repro.core.latent_replay import LatentReplayBuffer
from repro.hw.memory import audit_store
from repro.replaystore import ReplayStore, ReplayStream, StoreMeta
from repro.training.trainer import Trainer


def _assert_identical(in_memory, store_backed):
    assert len(in_memory.history) == len(store_backed.history)
    for mem, disk in zip(in_memory.history, store_backed.history):
        assert mem.loss == disk.loss
        assert mem.old_task_accuracy == disk.old_task_accuracy
        assert mem.new_task_accuracy == disk.new_task_accuracy
        assert mem.overall_accuracy == disk.overall_accuracy
    assert in_memory.final_overall_accuracy == store_backed.final_overall_accuracy
    for p_mem, p_disk in zip(
        in_memory.network.parameters(), store_backed.network.parameters()
    ):
        np.testing.assert_array_equal(p_mem.data, p_disk.data)


class TestBitwiseParity:
    def test_replay4ncl(self, ci_pretrained, ci_split, ci_preset, tmp_path):
        method = Replay4NCL(ci_preset.experiment)
        in_memory = run_method(method, ci_pretrained, ci_split)
        store_backed = run_method(
            Replay4NCL(ci_preset.experiment),
            ci_pretrained,
            ci_split,
            replay=ReplaySpec(store_dir=tmp_path / "store", shard_samples=4),
        )
        _assert_identical(in_memory, store_backed)
        assert store_backed.replay_store_path == str(tmp_path / "store")
        assert in_memory.replay_store_path is None
        # The storage model is path-independent.
        assert store_backed.latent_storage_bytes == in_memory.latent_storage_bytes
        assert store_backed.latent_stored_frames == in_memory.latent_stored_frames

    def test_spikinglr_decompress_path(
        self, ci_pretrained, ci_split, ci_preset, tmp_path
    ):
        # SpikingLR stores factor-2 subsampled frames and zero-stuffs on
        # replay — the stream must reproduce that cycle exactly too.
        in_memory = run_method(
            SpikingLR(ci_preset.experiment), ci_pretrained, ci_split
        )
        store_backed = run_method(
            SpikingLR(ci_preset.experiment),
            ci_pretrained,
            ci_split,
            replay=ReplaySpec(store_dir=tmp_path / "store"),
        )
        _assert_identical(in_memory, store_backed)

    def test_epoch_costs_preserved(
        self, ci_pretrained, ci_split, ci_preset, tmp_path
    ):
        # The cost model must charge the same decompression work whether
        # the buffer is resident or store-backed.
        mem = run_method(SpikingLR(ci_preset.experiment), ci_pretrained, ci_split)
        disk = run_method(
            SpikingLR(ci_preset.experiment),
            ci_pretrained,
            ci_split,
            replay=ReplaySpec(store_dir=tmp_path / "store"),
        )
        assert [c.decompressed_cells for c in mem.epoch_costs] == [
            c.decompressed_cells for c in disk.epoch_costs
        ]


class TestSingleThreaded:
    def test_store_backed_step_trains_on_the_calling_thread(
        self, ci_pretrained, ci_split, ci_preset, tmp_path, monkeypatch
    ):
        # Shard decode runs inline in the training loop: no helper thread
        # may be alive while a store-backed NCL step trains.
        before = set(threading.enumerate())
        extra_per_epoch = []
        fit = Trainer.fit

        def sampling_fit(self, *args, **kwargs):
            def sample(record):
                extra_per_epoch.append(
                    [t.name for t in threading.enumerate() if t not in before]
                )

            return fit(self, *args, epoch_callback=sample, **kwargs)

        monkeypatch.setattr(Trainer, "fit", sampling_fit)
        run_method(
            Replay4NCL(ci_preset.experiment),
            ci_pretrained,
            ci_split,
            replay=ReplaySpec(store_dir=tmp_path / "store", shard_samples=4),
        )
        assert extra_per_epoch
        assert all(extra == [] for extra in extra_per_epoch), extra_per_epoch


class TestStoreArtifacts:
    @pytest.fixture(scope="class")
    def store_run(self, ci_pretrained, ci_split, ci_preset, tmp_path_factory):
        root = tmp_path_factory.mktemp("ncl-store") / "store"
        result = run_method(
            Replay4NCL(ci_preset.experiment),
            ci_pretrained,
            ci_split,
            replay=ReplaySpec(store_dir=root, shard_samples=4),
        )
        return result, ReplayStore.open(root)

    def test_store_persisted(self, store_run):
        result, store = store_run
        assert store.num_samples > 0
        assert store.meta.shard_samples == 4
        assert all(s.num_samples <= 4 for s in store.shards)

    def test_memory_model_crosschecks_disk(self, store_run):
        result, store = store_run
        audit = audit_store(store)
        # Per-shard codec choice can only undercut the bitmap model;
        # per-shard bit padding costs at most one byte per shard.
        assert audit.payload_bytes <= (
            result.latent_storage_bytes + audit.num_shards
        )
        assert audit.payload_saving >= 0.0
        assert audit.disk_bytes > audit.payload_bytes
        assert audit.modelled_bytes == result.latent_storage_bytes

    def test_buffer_roundtrips_through_store(self, store_run, tmp_path):
        _, store = store_run
        stored = ReplayStream(store).materialize()
        buffer = LatentReplayBuffer(
            compressed=stored,
            labels=store.labels,
            insertion_layer=store.meta.insertion_layer,
            generated_timesteps=store.meta.generated_timesteps,
            codec=TemporalSubsampleCodec(store.meta.codec_factor),
        )
        copy = buffer.to_store(tmp_path / "copy", shard_samples=3)
        assert copy.meta == StoreMeta(
            **{**vars(store.meta), "shard_samples": 3}
        )
        np.testing.assert_array_equal(copy.labels, store.labels)
        np.testing.assert_array_equal(ReplayStream(copy).materialize(), stored)
