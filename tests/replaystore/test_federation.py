"""Tests for FederatedReplayStore: budgets, balance, index validation."""

import json

import numpy as np
import pytest

from repro.errors import StoreError
from repro.hw.memory import audit_federation
from repro.replaystore import FederatedReplayStore, ReplayStore, ReplayStream
from repro.replaystore.federation import FEDERATION_INDEX_NAME
from repro.replaystore.store import INDEX_NAME

FRAMES, CHANNELS = 8, 12


def make_member(root, labels, *, seed=0, shard_samples=4, frames=FRAMES):
    """Write one member store holding ``len(labels)`` random samples."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    raster = (rng.random((frames, labels.size, CHANNELS)) < 0.2).astype(np.float32)
    store = ReplayStore.create(
        root,
        stored_frames=frames,
        num_channels=CHANNELS,
        generated_timesteps=frames,
        shard_samples=shard_samples,
    )
    store.append(raster, labels)
    return store


@pytest.fixture
def federation(tmp_path):
    fed = FederatedReplayStore.create(tmp_path / "fed", seed=3)
    make_member(tmp_path / "fed" / "task-0", [0] * 6 + [1] * 6, seed=1)
    make_member(tmp_path / "fed" / "task-1", [2] * 6, seed=2)
    fed.adopt("task-0")
    fed.adopt("task-1")
    return fed


class TestLifecycle:
    def test_open_roundtrips_index(self, federation):
        twin = FederatedReplayStore.open(federation.root)
        assert twin.member_names == ["task-0", "task-1"]
        assert twin.budget_bytes is None
        assert twin.num_samples == 18
        np.testing.assert_array_equal(twin.labels, federation.labels)

    def test_refuses_to_clobber(self, federation):
        with pytest.raises(StoreError, match="already exists"):
            FederatedReplayStore.create(federation.root)

    def test_open_missing_is_clean_error(self, tmp_path):
        with pytest.raises(StoreError, match="no federation"):
            FederatedReplayStore.open(tmp_path / "nope")

    def test_adopt_validates(self, federation, tmp_path):
        with pytest.raises(StoreError, match="already a member"):
            federation.adopt("task-0")
        with pytest.raises(StoreError, match="no replay store"):
            federation.adopt("task-9")
        make_member(
            federation.root / "task-bad", [0, 1], seed=9, frames=FRAMES + 1
        )
        with pytest.raises(StoreError, match="geometry"):
            federation.adopt("task-bad")

    def test_adopt_rejects_different_insertion_point(self, federation):
        # Same frame/channel counts but a different insertion layer is a
        # different feature space — federating them would silently mix
        # semantically incompatible latents.
        other = ReplayStore.create(
            federation.root / "task-lins",
            stored_frames=FRAMES,
            num_channels=CHANNELS,
            generated_timesteps=FRAMES,
            insertion_layer=2,
            shard_samples=4,
        )
        raster = np.zeros((FRAMES, 2, CHANNELS), dtype=np.float32)
        raster[0, :, 0] = 1.0
        other.append(raster, np.asarray([0, 1]))
        with pytest.raises(StoreError, match="Lins"):
            federation.adopt("task-lins")

    def test_unknown_member_access(self, federation):
        with pytest.raises(StoreError, match="not a member"):
            federation.member("task-9")

    def test_labels_follow_arrival_order(self, federation):
        np.testing.assert_array_equal(
            federation.labels, np.asarray([0] * 6 + [1] * 6 + [2] * 6)
        )

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="budget_bytes"):
            FederatedReplayStore.create(tmp_path / "f", budget_bytes=0)

    def test_create_takes_no_policy(self, tmp_path):
        with pytest.raises(TypeError, match="policy"):
            FederatedReplayStore.create(tmp_path / "f", policy="fifo")

    def test_member_names_must_be_plain(self, federation):
        for bad in ("", ".", "..", "a/b", "a\\b"):
            with pytest.raises(StoreError, match="plain directory name"):
                federation.adopt(bad)

    def test_overwrite_removes_stale_members(self, federation):
        # Regression: replacing a federation must take the old run's
        # member stores with it — otherwise a later auto-discovering
        # adopt would mix stale latents into the fresh archive.
        root = federation.root
        fresh = FederatedReplayStore.create(root, overwrite=True)
        assert fresh.member_names == []
        assert not (root / "task-0").exists()
        assert not (root / "task-1").exists()

    def test_configure_updates_and_persists(self, federation):
        federation.configure(budget_bytes=1234, seed=9)
        twin = FederatedReplayStore.open(federation.root)
        assert twin.budget_bytes == 1234
        assert twin.seed == 9
        with pytest.raises(StoreError, match="budget_bytes"):
            federation.configure(budget_bytes=0)


class TestGlobalBudget:
    """The core invariant: modelled bytes never exceed the budget."""

    def test_budget_holds_across_arrivals(self, tmp_path):
        fed = FederatedReplayStore.create(tmp_path / "fed", seed=5)
        rng = np.random.default_rng(0)
        budget = None
        for step in range(5):
            make_member(
                fed.root / f"task-{step}",
                rng.integers(0, step + 2, 8),
                seed=step,
            )
            fed.adopt(f"task-{step}")
            if budget is None:  # budget admits 10 samples total
                budget = 10 * fed.sample_bytes
                fed.configure(budget_bytes=budget)
            fed.rebalance()
            assert fed.model_bytes() <= budget
            assert not fed.over_budget()
        assert fed.num_samples == 10  # budget binds after enough arrivals

    def test_rebalance_is_noop_without_budget(self, federation):
        assert federation.rebalance() == 0
        assert federation.num_samples == 18

    def test_rebalance_deterministic_given_seed(self, tmp_path):
        kept = []
        for run in range(2):
            fed = FederatedReplayStore.create(tmp_path / f"fed-{run}", seed=11)
            make_member(fed.root / "a", [0] * 20, seed=1)
            make_member(fed.root / "b", [1] * 8, seed=2)
            fed.adopt("a")
            fed.adopt("b")
            fed.configure(budget_bytes=12 * fed.sample_bytes)
            fed.rebalance()
            kept.append(fed.labels.tolist())
        assert kept[0] == kept[1]

    def test_rebalance_counter_persists(self, tmp_path):
        fed = FederatedReplayStore.create(tmp_path / "fed", seed=0)
        make_member(fed.root / "a", [0] * 20, seed=1)
        fed.adopt("a")
        fed.configure(budget_bytes=4 * fed.sample_bytes)
        fed.rebalance()
        assert FederatedReplayStore.open(fed.root).rebalances == 1

    def test_eviction_flows_across_members(self, tmp_path):
        # Class-balanced pressure must shrink the over-represented OLD
        # member when a new class arrives, not just trim the newcomer.
        fed = FederatedReplayStore.create(tmp_path / "fed", seed=7)
        make_member(fed.root / "old", [0] * 16, seed=1)
        fed.adopt("old")
        fed.configure(budget_bytes=16 * fed.sample_bytes)
        make_member(fed.root / "new", [1] * 16, seed=2)
        fed.adopt("new")
        fed.rebalance()
        samples = fed.stats().member_samples
        assert samples["old"] < 16
        assert samples["new"] > 0
        assert fed.num_samples == 16


class TestRebalancePin:
    def test_survivors_are_pinned(self, tmp_path):
        # Golden survivors of a fixed three-step history: any change to
        # the admission rule's draw order or the arrival order shows
        # here before it forks a recorded trajectory.
        fed = FederatedReplayStore.create(tmp_path / "fed", seed=21)
        histories = [[0] * 10 + [1] * 4, [2] * 8 + [1] * 2, [3] * 6]
        rasters = {}
        for step, labels in enumerate(histories):
            store = make_member(fed.root / f"t{step}", labels, seed=step)
            rasters[f"t{step}"] = ReplayStream(store).materialize()
            fed.adopt(f"t{step}")
            if step == 0:
                fed.configure(budget_bytes=9 * fed.sample_bytes)
            fed.rebalance()
        assert fed.rebalances == 3
        survivors = {"t0": [0, 9, 12], "t1": [2, 7, 9], "t2": [1, 2, 5]}
        for name, store in fed.members():
            np.testing.assert_array_equal(
                ReplayStream(store).materialize(),
                rasters[name][:, survivors[name], :],
            )
        assert fed.labels.tolist() == [0, 0, 1, 2, 2, 1, 3, 3, 3]

    def test_budget_below_one_sample_is_refused(self, federation):
        federation.configure(budget_bytes=federation.sample_bytes - 1)
        with pytest.raises(StoreError, match="holds no sample"):
            federation.rebalance()
        assert federation.num_samples == 18  # nothing was rewritten

    def test_sample_bytes_is_the_storage_model(self, federation):
        from repro.compression import TemporalSubsampleCodec
        from repro.core.latent_replay import LatentReplayBuffer
        from repro.hw.memory import latent_memory_bytes

        raster = ReplayStream(federation.member("task-0")).materialize()
        buffer = LatentReplayBuffer(
            compressed=raster,
            labels=federation.member("task-0").labels,
            insertion_layer=0,
            generated_timesteps=FRAMES,
            codec=TemporalSubsampleCodec(1),
        )
        per_sample = buffer.storage_bytes() // buffer.num_samples
        assert federation.sample_bytes == per_sample
        # FRAMES * CHANNELS is a whole number of bytes, so per-sample
        # packing and whole-buffer packing price the archive alike.
        assert federation.model_bytes() == latent_memory_bytes(
            FRAMES, federation.num_samples, CHANNELS
        )


class TestClassBalance:
    def test_balanced_across_skewed_members(self, tmp_path):
        fed = FederatedReplayStore.create(tmp_path / "fed", seed=13)
        make_member(fed.root / "t0", [0] * 30, seed=1)
        fed.adopt("t0")
        make_member(fed.root / "t1", [1] * 30, seed=2)
        fed.adopt("t1")
        make_member(fed.root / "t2", [2] * 6, seed=3)
        fed.adopt("t2")
        fed.configure(budget_bytes=12 * fed.sample_bytes)
        fed.rebalance()
        counts = fed.class_counts()
        assert set(counts) == {0, 1, 2}  # no class extinct
        assert max(counts.values()) - min(counts.values()) <= 2
        assert fed.num_samples == 12

    def test_minority_class_survives_majority_pressure(self, tmp_path):
        fed = FederatedReplayStore.create(tmp_path / "fed", seed=17)
        make_member(fed.root / "rare", [5] * 2, seed=1)
        fed.adopt("rare")
        fed.configure(budget_bytes=8 * fed.sample_bytes)
        for step in range(3):
            make_member(fed.root / f"flood-{step}", [0] * 20, seed=2 + step)
            fed.adopt(f"flood-{step}")
            fed.rebalance()
            assert 5 in fed.class_counts()


class TestAudit:
    def test_audit_aggregates_members(self, federation):
        audit = audit_federation(federation)
        assert audit.num_members == 2
        assert audit.num_samples == 18
        assert set(audit.member_audits) == {"task-0", "task-1"}
        assert audit.modelled_bytes == sum(
            a.modelled_bytes for a in audit.member_audits.values()
        )
        assert audit.payload_bytes <= audit.modelled_bytes + audit.num_members * 3
        assert audit.disk_bytes > audit.payload_bytes
        assert audit.budget_utilization is None
        assert audit.within_budget

    def test_audit_tracks_budget(self, tmp_path):
        fed = FederatedReplayStore.create(tmp_path / "fed", seed=1)
        make_member(fed.root / "a", [0] * 10, seed=1)
        fed.adopt("a")
        fed.configure(budget_bytes=20 * fed.sample_bytes)
        audit = audit_federation(fed)
        assert audit.within_budget
        assert audit.budget_utilization == pytest.approx(0.5)

    def test_empty_federation_rejected(self, tmp_path):
        from repro.errors import ConfigError

        fed = FederatedReplayStore.create(tmp_path / "fed")
        with pytest.raises(ConfigError, match="no members"):
            audit_federation(fed)


def _edit_index(path, **fields):
    """Rewrite JSON index ``path`` with ``fields`` replaced."""
    payload = json.loads(path.read_text())
    payload.update(fields)
    path.write_text(json.dumps(payload))


class TestIndexCompatibility:
    @pytest.mark.parametrize("policy", ["fifo", "reservoir"])
    def test_other_policy_is_refused(self, federation, policy):
        _edit_index(federation.root / FEDERATION_INDEX_NAME, policy=policy)
        with pytest.raises(StoreError, match=repr(policy)):
            FederatedReplayStore.open(federation.root)

    def test_index_records_the_admission_rule(self, federation):
        payload = json.loads((federation.root / FEDERATION_INDEX_NAME).read_text())
        assert payload["policy"] == "class-balanced"
        assert "member_samples" not in payload

    def test_legacy_member_samples_ledger_still_opens(self, federation):
        # Older indexes carried a per-member sample ledger; it is ignored
        # on open and dropped at the next commit.
        index = federation.root / FEDERATION_INDEX_NAME
        _edit_index(index, member_samples={"task-0": 12, "task-1": 6})
        twin = FederatedReplayStore.open(federation.root)
        assert twin.num_samples == 18
        twin.configure(seed=4)
        assert "member_samples" not in json.loads(index.read_text())


_SHARD = {
    "file": "shard-00000.bin",
    "codec": "bitpack",
    "payload_bytes": 1,
    "payload_offset": 0,
}


def _index_of(federation, kind):
    """``(index path, opener of its directory)`` for one index kind."""
    if kind == "federation":
        return federation.root / FEDERATION_INDEX_NAME, FederatedReplayStore.open
    return federation.root / "task-0" / INDEX_NAME, ReplayStore.open


class TestMalformedIndex:
    """A bad index value is a StoreError naming the file and the field."""

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("federation", "budget_bytes", "x"),
            ("federation", "budget_bytes", -5),
            ("federation", "budget_bytes", 0),
            ("federation", "seed", "x"),
            ("federation", "seed", 1.5),
            ("federation", "rebalances", "x"),
            ("federation", "rebalances", -1),
            ("federation", "members", 5),
            ("federation", "members", [3]),
            ("federation", "members", ["../outside"]),
            ("federation", "members", ["task-0", "task-0"]),
            ("federation", "pending_removal", "step-000"),
            ("federation", "pending_removal", ["a/b"]),
            ("federation", "geometry", 5),
            ("federation", "geometry", {"stored_frames": 8}),
            ("store", "generation", "x"),
            ("store", "generation", -1),
            ("store", "generation", True),
            ("store", "meta", 5),
            ("store", "meta", {"stored_frames": "x"}),
            ("store", "shards", 5),
            ("store", "shards", [5]),
            ("store", "shards", [{**_SHARD, "num_samples": "x", "labels": []}]),
            ("store", "shards", [{**_SHARD, "num_samples": 2, "labels": [0]}]),
        ],
    )
    def test_bad_field_is_store_error(self, federation, kind, key, value):
        index, opener = _index_of(federation, kind)
        _edit_index(index, **{key: value})
        with pytest.raises(StoreError) as caught:
            opener(index.parent)
        assert str(index) in str(caught.value)
        assert repr(key) in str(caught.value)

    def test_missing_budget_is_malformed(self, federation):
        index = federation.root / FEDERATION_INDEX_NAME
        payload = json.loads(index.read_text())
        del payload["budget_bytes"]
        index.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="'budget_bytes'"):
            FederatedReplayStore.open(federation.root)

    @pytest.mark.parametrize("kind", ["federation", "store"])
    def test_non_object_index_is_store_error(self, federation, kind):
        index, opener = _index_of(federation, kind)
        index.write_text("[]")
        with pytest.raises(StoreError, match="version"):
            opener(index.parent)

    def test_minimal_federation_index_opens(self, federation):
        # The oldest index layout: no rebalance counter, crash ledger,
        # geometry or admission rule recorded.
        index = federation.root / FEDERATION_INDEX_NAME
        index.write_text(
            json.dumps(
                {
                    "version": 1,
                    "budget_bytes": None,
                    "seed": 3,
                    "members": ["task-0", "task-1"],
                }
            )
        )
        twin = FederatedReplayStore.open(federation.root)
        assert (twin.rebalances, twin.pending_removal, twin.geometry) == (0, [], None)
        assert twin.sample_bytes == federation.sample_bytes  # from a member
        twin.configure(budget_bytes=9 * twin.sample_bytes)
        assert twin.rebalance() == 9
        assert json.loads(index.read_text())["geometry"] is None

    def test_minimal_store_index_opens(self, federation):
        index = federation.root / "task-0" / INDEX_NAME
        payload = json.loads(index.read_text())
        del payload["generation"]
        index.write_text(json.dumps(payload))
        store = ReplayStore.open(index.parent)
        assert store.generation == 0
        assert store.num_samples == 12

