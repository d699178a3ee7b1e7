"""Concurrency suite: locks, replay reads, member LRU, crash windows.

The two-handle contract under test everywhere here: a replay read takes
the store's lock for its whole decode, so a stream opened before a
mutation keeps serving its snapshot, and a stream opened through a
handle that a mutation left behind gets a clean
``StoreError("store was mutated ...")`` — **never** a vanished-file
``OSError`` and never silently wrong bytes.
"""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.errors import StoreError
from repro.ioutil import FileLock
from repro.replaystore import (
    FederatedReplayStore,
    ReplayStore,
    ReplayStream,
)
from repro.replaystore.federation import MAX_OPEN_MEMBERS
from repro.replaystore.store import LOCK_NAME

FRAMES, CHANNELS = 8, 12

SRC = str(Path(__file__).resolve().parents[2] / "src")


def make_store(root, labels, *, seed=0, shard_samples=4):
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    raster = (rng.random((FRAMES, labels.size, CHANNELS)) < 0.2).astype(
        np.float32
    )
    store = ReplayStore.create(
        root,
        stored_frames=FRAMES,
        num_channels=CHANNELS,
        generated_timesteps=FRAMES,
        shard_samples=shard_samples,
    )
    store.append(raster, labels)
    return store


def make_federation(root, members=3, samples=8, seed=0):
    fed = FederatedReplayStore.create(root, seed=seed)
    for k in range(members):
        make_store(
            root / f"task-{k}",
            np.arange(samples) % 4,
            seed=seed + k,
        )
        fed.adopt(f"task-{k}")
    return fed


class TestTwoHandleCompaction:
    """Rewrite through one handle, read through the other."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda writer: writer.filter(np.arange(0, 12, 2)),
            lambda writer: writer.compact(shard_samples=5),
        ],
        ids=["filter", "compact"],
    )
    def test_open_stream_keeps_its_snapshot(self, tmp_path, mutate):
        store = make_store(tmp_path / "s", np.arange(12) % 3)
        stream = ReplayStream(store)
        expected = stream.materialize().copy()

        mutate(ReplayStore.open(tmp_path / "s"))

        # The old generation's files are gone; the stream never needed them.
        assert not {info.file for info in store.shards} & {
            p.name for p in (tmp_path / "s").glob("shard-*.bin")
        }
        order = np.array([11, 0, 5, 5, 3])
        np.testing.assert_array_equal(stream.gather(order), expected[:, order, :])
        np.testing.assert_array_equal(stream.materialize(), expected)
        np.testing.assert_array_equal(stream.labels, np.arange(12) % 3)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda writer: writer.filter(np.arange(0, 12, 2)),
            lambda writer: writer.compact(shard_samples=5),
            lambda writer: writer.append(
                np.zeros((FRAMES, 2, CHANNELS), np.float32), np.zeros(2)
            ),
        ],
        ids=["filter", "compact", "append"],
    )
    def test_stream_through_stale_handle_is_store_error(self, tmp_path, mutate):
        make_store(tmp_path / "s", np.arange(12) % 3)
        stale = ReplayStore.open(tmp_path / "s")
        mutate(ReplayStore.open(tmp_path / "s"))
        try:
            ReplayStream(stale)
        except StoreError as error:
            assert "store was mutated" in str(error)
        except OSError as error:  # pragma: no cover - the bug under test
            raise AssertionError(f"leaked OSError: {error!r}")
        else:  # pragma: no cover - the bug under test
            raise AssertionError("a stale handle decoded a superseded snapshot")
        # Reopening the store serves its current state.
        assert ReplayStream(ReplayStore.open(tmp_path / "s")).num_samples in (6, 12, 14)

    def test_stale_handle_reads_shard_as_store_error(self, tmp_path):
        store = make_store(tmp_path / "s", np.arange(8) % 2)
        stale = ReplayStore.open(tmp_path / "s")
        store.filter(np.arange(4))
        store.compact()
        # The stale handle's shard list references deleted files; the
        # read wraps the OSError into the taxonomy.
        try:
            stale.read_shard(0)
        except StoreError:
            pass
        except OSError as error:  # pragma: no cover - the bug under test
            raise AssertionError(f"leaked OSError: {error!r}")


class TestLockedMutations:
    def test_threaded_appends_through_separate_handles(self, tmp_path):
        make_store(tmp_path / "s", np.arange(4) % 2)
        threads, errors = [], []

        def append(worker):
            try:
                rng = np.random.default_rng(worker)
                handle = ReplayStore.open(tmp_path / "s")
                raster = (rng.random((FRAMES, 5, CHANNELS)) < 0.2).astype(
                    np.float32
                )
                handle.append(raster, np.full(5, worker))
            except Exception as error:  # pragma: no cover - must not happen
                errors.append(error)

        for worker in range(6):
            threads.append(threading.Thread(target=append, args=(worker,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        merged = ReplayStore.open(tmp_path / "s")
        # Every append survived the read-modify-write race: the lock
        # serialized them, so no commit was lost.
        assert merged.num_samples == 4 + 6 * 5
        counts = {
            int(label): int(count)
            for label, count in zip(*np.unique(merged.labels, return_counts=True))
        }
        for worker in range(2, 6):
            assert counts[worker] == 5

    def test_mutation_blocks_until_lock_released(self, tmp_path):
        store = make_store(tmp_path / "s", np.arange(4) % 2)
        gate = FileLock(tmp_path / "s" / LOCK_NAME)
        gate.acquire()
        done = threading.Event()

        def append():
            rng = np.random.default_rng(0)
            raster = (rng.random((FRAMES, 2, CHANNELS)) < 0.2).astype(
                np.float32
            )
            ReplayStore.open(tmp_path / "s").append(raster, np.zeros(2))
            done.set()

        thread = threading.Thread(target=append)
        thread.start()
        assert not done.wait(0.3), "append must block while the lock is held"
        gate.release()
        thread.join(timeout=10)
        assert done.is_set()
        assert ReplayStore.open(tmp_path / "s").num_samples == 6
        # The gate handle observed none of the append's changes, but the
        # store's own handle reloads under the lock and stays coherent.
        assert store.num_samples == 4

    def test_threaded_federation_adopts_and_readers(self, tmp_path):
        fed = make_federation(tmp_path / "fed", members=2, samples=8)
        for k in range(4):
            make_store(
                tmp_path / "fed" / f"late-{k}",
                np.arange(8) % 4,
                seed=50 + k,
            )
        snapshots = {
            name: [ReplayStream(store).materialize()]
            for name, store in fed.members()
        }
        errors, observed = [], []

        def adopt(k):
            try:
                FederatedReplayStore.open(tmp_path / "fed").adopt(f"late-{k}")
            except Exception as error:  # pragma: no cover - must not happen
                errors.append(error)

        def read():
            try:
                for _ in range(6):
                    fed_view = FederatedReplayStore.open(tmp_path / "fed")
                    try:
                        assert fed_view.labels.size % 4 == 0
                        for name, store in fed_view.members():
                            observed.append((name, ReplayStream(store).materialize()))
                    except StoreError:
                        pass  # mutated between open and read: clean, expected
            except Exception as error:  # pragma: no cover - must not happen
                errors.append(error)

        def rewrite():
            try:
                writer = ReplayStore.open(tmp_path / "fed" / "task-0")
                for size in (3, 8, 5, 8):
                    writer.compact(shard_samples=size)
                writer.filter(np.arange(0, 8, 2))
                snapshots["task-0"].append(ReplayStream(writer).materialize())
            except Exception as error:  # pragma: no cover - must not happen
                errors.append(error)

        threads = (
            [threading.Thread(target=adopt, args=(k,)) for k in range(4)]
            + [threading.Thread(target=read) for _ in range(3)]
            + [threading.Thread(target=rewrite)]
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the threads more often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        assert errors == []
        merged = FederatedReplayStore.open(tmp_path / "fed")
        assert sorted(merged.member_names) == sorted(
            ["task-0", "task-1"] + [f"late-{k}" for k in range(4)]
        )
        assert merged.num_samples == 5 * 8 + 4
        # Every concurrent adopt landed: the labels span all six members.
        assert merged.labels.tolist() == (
            [0, 2, 0, 2] + (np.arange(8) % 4).tolist() * 5
        )
        # Every stream opened mid-traffic equals a snapshot some commit
        # made: compaction only re-packs shards, so a member's samples
        # change only at the final filter.
        for k in range(4):
            snapshots[f"late-{k}"] = [
                ReplayStream(merged.member(f"late-{k}")).materialize()
            ]
        assert observed
        for name, data in observed:
            assert any(np.array_equal(data, snap) for snap in snapshots[name])


class TestAdoptCrashWindow:
    def _crash_create_overwrite(self, root):
        """Re-create the federation, dying inside the removal window."""
        code = (
            "import sys; sys.path.insert(0, sys.argv[2]); "
            "import os; "
            "import repro.replaystore.federation as fedmod; "
            "fedmod.shutil.rmtree = lambda *a, **k: os._exit(0); "
            "fedmod.FederatedReplayStore.create(sys.argv[1], overwrite=True)"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code, str(root), SRC],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr

    def test_adopt_refuses_orphan_member_dir(self, tmp_path):
        root = tmp_path / "fed"
        make_federation(root, members=1, samples=8)
        self._crash_create_overwrite(root)

        # The interrupted overwrite committed a ledger naming the old
        # member dir before touching it: the dir survived the crash and
        # the fresh federation knows it is an orphan.
        fed = FederatedReplayStore.open(root)
        assert fed.member_names == []
        assert fed.pending_removal == ["task-0"]
        assert (root / "task-0").is_dir()
        with pytest.raises(StoreError, match="predates this federation"):
            fed.adopt("task-0")

    def test_allow_orphan_claims_and_clears_ledger(self, tmp_path):
        root = tmp_path / "fed"
        make_federation(root, members=1, samples=8)
        self._crash_create_overwrite(root)

        fed = FederatedReplayStore.open(root)
        store = fed.adopt("task-0", allow_orphan=True)
        assert store.num_samples == 8
        reopened = FederatedReplayStore.open(root)
        assert reopened.pending_removal == []
        assert reopened.member_names == ["task-0"]

    def test_rerunning_create_clears_the_orphans(self, tmp_path):
        root = tmp_path / "fed"
        make_federation(root, members=1, samples=8)
        self._crash_create_overwrite(root)

        FederatedReplayStore.create(root, overwrite=True)
        assert not (root / "task-0").exists()
        assert FederatedReplayStore.open(root).pending_removal == []


class TestMemberHandles:
    def test_open_handles_capped_by_lru(self, tmp_path):
        fed = make_federation(
            tmp_path / "fed", members=MAX_OPEN_MEMBERS + 3, samples=8
        )
        reader = FederatedReplayStore.open(tmp_path / "fed")
        assert reader.num_samples == (MAX_OPEN_MEMBERS + 3) * 8
        assert len(reader._members) == MAX_OPEN_MEMBERS
        # The least recently used handle was dropped; reopening it is
        # transparent.
        assert "task-0" not in reader._members
        np.testing.assert_array_equal(
            reader.member("task-0").labels, fed.member("task-0").labels
        )

    def test_recently_used_handle_survives_the_sweep(self, tmp_path):
        make_federation(tmp_path / "fed", members=MAX_OPEN_MEMBERS + 1, samples=8)
        reader = FederatedReplayStore.open(tmp_path / "fed")
        first = reader.member("task-0")
        for k in range(1, MAX_OPEN_MEMBERS):
            reader.member(f"task-{k}")
        assert reader.member("task-0") is first  # touched: now most recent
        reader.member(f"task-{MAX_OPEN_MEMBERS}")  # evicts task-1, not task-0
        assert reader.member("task-0") is first
        assert "task-1" not in reader._members

    def test_counts_follow_direct_member_mutation(self, tmp_path):
        make_federation(tmp_path / "fed", members=2, samples=8)
        # The federation keeps no per-member count of its own, so a
        # member rewritten behind its back is reported as it is on disk.
        ReplayStore.open(tmp_path / "fed" / "task-1").filter(np.arange(4))
        fresh = FederatedReplayStore.open(tmp_path / "fed")
        assert fresh.stats().member_samples == {"task-0": 8, "task-1": 4}
        assert fresh.num_samples == 12


def _member_rasters(fed):
    """``name -> (dense raster, labels)`` of every member, via streams."""
    out = {}
    for name, store in fed.members():
        stream = ReplayStream(store)
        out[name] = (stream.materialize(), stream.labels)
    return out


def _shrink_budget(root):
    writer = FederatedReplayStore.open(root)
    writer.configure(budget_bytes=(writer.num_samples // 2) * writer.sample_bytes)
    return writer.rebalance()


class TestMemberStreamUnderRebalance:
    def test_fresh_streams_hold_survivors_in_storage_order(self, tmp_path):
        fed = make_federation(tmp_path / "fed", members=3, samples=8)
        before = _member_rasters(fed)
        evicted = _shrink_budget(tmp_path / "fed")

        after = _member_rasters(FederatedReplayStore.open(tmp_path / "fed"))
        assert sum(labels.size for _, labels in after.values()) == 24 - evicted
        for name, (raster, labels) in after.items():
            old_raster, old_labels = before[name]
            # Each survivor is an old sample, in the old storage order.
            positions = [
                next(
                    i
                    for i in range(old_labels.size)
                    if old_labels[i] == labels[column]
                    and np.array_equal(old_raster[:, i, :], raster[:, column, :])
                )
                for column in range(labels.size)
            ]
            assert positions == sorted(set(positions))
