"""Concurrency suite: locks, pinned readers, lazy members, crash windows.

The two-handle contract under test everywhere here: a reader that
overlaps a mutation either finishes against its pinned snapshot or gets
a clean ``StoreError("store was mutated ...")`` at its next access —
**never** a vanished-file ``OSError`` and never silently wrong bytes.
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
    """The PR's acceptance test: compact through one handle, read the other."""

    def test_reader_survives_filter_then_fails_cleanly(self, tmp_path):
        store = make_store(tmp_path / "s", np.arange(12) % 3)
        reader = ReplayStream(store)
        expected = reader.gather(np.arange(12))

        writer = ReplayStore.open(tmp_path / "s")
        writer.filter(np.arange(0, 12, 2))

        # The reader's shard files are tombstoned, not deleted: every
        # file its snapshot references is still on disk.
        snapshot_files = {info.file for info in store.shards}
        on_disk = {p.name for p in (tmp_path / "s").glob("shard-*.bin")}
        assert snapshot_files <= on_disk

        # The next access through the stale handle is a taxonomy error,
        # never an OSError from a vanished file.
        with pytest.raises(StoreError, match="store was mutated"):
            reader.gather(np.arange(4))
        reader.close()
        # The gather it completed before the mutation was untouched.
        assert expected.shape == (FRAMES, 12, CHANNELS)

    def test_compaction_waits_for_pinned_reader(self, tmp_path):
        store = make_store(tmp_path / "s", np.arange(12) % 3)
        reader = ReplayStream(store)
        pinned = {info.file for info in store.shards}

        writer = ReplayStore.open(tmp_path / "s")
        writer.filter(np.arange(6))
        writer.compact()
        # Two mutations later the pinned generation's files still exist.
        on_disk = {p.name for p in (tmp_path / "s").glob("shard-*.bin")}
        assert pinned <= on_disk

        reader.close()
        assert writer.sweep_tombstones() > 0
        on_disk = {p.name for p in (tmp_path / "s").glob("shard-*.bin")}
        assert not (pinned & on_disk), "unpinned tombstones must be swept"

    def test_reader_from_dead_process_does_not_pin_forever(self, tmp_path):
        store = make_store(tmp_path / "s", np.arange(8) % 2)
        code = (
            "import sys; sys.path.insert(0, sys.argv[2]); "
            "import os; "
            "from repro.replaystore import ReplayStore, ReplayStream; "
            "stream = ReplayStream(ReplayStore.open(sys.argv[1])); "
            "os._exit(0)"
        )
        subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "s"), SRC],
            check=True,
        )
        writer = ReplayStore.open(tmp_path / "s")
        before = {p.name for p in (tmp_path / "s").glob("shard-*.bin")}
        writer.filter(np.arange(4))
        # The dead reader's pin was reaped, so its files are sweepable
        # (the filter's own commit already swept them).
        on_disk = {p.name for p in (tmp_path / "s").glob("shard-*.bin")}
        assert not (before & on_disk)

    def test_stale_handle_reads_shard_as_store_error(self, tmp_path):
        store = make_store(tmp_path / "s", np.arange(8) % 2)
        stale = ReplayStore.open(tmp_path / "s")
        store.filter(np.arange(4))
        store.compact()
        store.sweep_tombstones()
        # The stale handle's shard list references swept files; the read
        # wraps the OSError into the taxonomy.
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
        errors = []

        def adopt(k):
            try:
                FederatedReplayStore.open(tmp_path / "fed").adopt(f"late-{k}")
            except Exception as error:  # pragma: no cover - must not happen
                errors.append(error)

        def read():
            try:
                for _ in range(6):
                    view = FederatedReplayStore.open(tmp_path / "fed").stream()
                    try:
                        total = view.num_samples
                        data = view.gather(np.arange(min(total, 8)))
                        assert data.shape[0] == FRAMES
                    except StoreError:
                        pass  # mutated mid-read: clean, expected
                    finally:
                        view.close()
            except Exception as error:  # pragma: no cover - must not happen
                errors.append(error)

        threads = [
            threading.Thread(target=adopt, args=(k,)) for k in range(4)
        ] + [threading.Thread(target=read) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        merged = FederatedReplayStore.open(tmp_path / "fed")
        assert sorted(merged.member_names) == sorted(
            ["task-0", "task-1"] + [f"late-{k}" for k in range(4)]
        )
        assert merged.num_samples == 6 * 8
        # The persisted ledger agrees with the stores on disk.
        for name in merged.member_names:
            assert merged.member_samples[name] == merged.member(name).num_samples


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


class TestLazyMembers:
    def test_stream_opens_no_members_up_front(self, tmp_path):
        fed = make_federation(tmp_path / "fed", members=4, samples=8)
        view = FederatedReplayStore.open(tmp_path / "fed").stream()
        assert view.member_opens == 0
        assert view.open_streams == 0
        assert view.num_samples == fed.num_samples  # layout from the ledger
        view.close()

    def test_open_handles_capped_by_lru(self, tmp_path):
        fed = make_federation(tmp_path / "fed", members=6, samples=8)
        view = fed.stream(max_open_streams=2)
        data = view.gather(np.arange(view.num_samples))
        assert data.shape == (FRAMES, 48, CHANNELS)
        assert view.open_streams <= 2
        assert view.member_opens >= 6  # every member was touched
        view.close()

    def test_eviction_reopens_transparently_and_bitwise(self, tmp_path):
        fed = make_federation(tmp_path / "fed", members=5, samples=8)
        dense = fed.stream().materialize()
        view = fed.stream(max_open_streams=1)
        rng = np.random.default_rng(0)
        for _ in range(4):  # revisit members to force evict/reopen cycles
            indices = np.sort(rng.integers(0, dense.shape[1], 16))
            np.testing.assert_array_equal(
                view.gather(indices), dense[:, indices, :]
            )
        assert view.open_streams == 1
        assert view.member_opens > 5
        view.close()

    def test_member_count_drift_is_loud(self, tmp_path):
        fed = make_federation(tmp_path / "fed", members=2, samples=8)
        view = fed.stream()
        # Mutating a member behind the federation's back desyncs the
        # persisted ledger; opening that member must fail, not misroute.
        ReplayStore.open(tmp_path / "fed" / "task-1").filter(np.arange(4))
        with pytest.raises(StoreError, match="store was mutated"):
            view.gather(np.arange(view.num_samples))
        view.close()


class TestViewUnderRebalance:
    def test_parity_then_clean_error(self, tmp_path):
        fed = make_federation(tmp_path / "fed", members=3, samples=8)
        dense = fed.stream().materialize()

        view = fed.stream()
        indices = np.arange(0, dense.shape[1], 3)
        np.testing.assert_array_equal(view.gather(indices), dense[:, indices, :])

        writer = FederatedReplayStore.open(tmp_path / "fed")
        writer.configure(
            budget_bytes=(writer.num_samples // 2) * writer.sample_bytes
        )
        assert writer.rebalance() > 0

        with pytest.raises(StoreError, match="store was mutated"):
            view.gather(np.arange(dense.shape[1]))
        view.close()

    def test_fresh_view_after_rebalance_is_bitwise(self, tmp_path):
        fed = make_federation(tmp_path / "fed", members=3, samples=8)
        writer = FederatedReplayStore.open(tmp_path / "fed")
        writer.configure(
            budget_bytes=(writer.num_samples // 2) * writer.sample_bytes
        )
        writer.rebalance()

        fresh = FederatedReplayStore.open(tmp_path / "fed")
        dense = fresh.stream().materialize()
        view = fresh.stream()
        np.testing.assert_array_equal(
            view.gather(np.arange(dense.shape[1])), dense
        )
        view.close()
