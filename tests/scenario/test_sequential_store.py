"""Store-federated sequential runs: the long-task-sequence harness.

Scenario-level acceptance tests for
`run_scenario("sequential", ..., replay=ReplaySpec(...))`: a 3-step
class-incremental stream whose replay memory lives in a
per-step federation of on-disk stores must

- reproduce the dense in-memory trajectory **bitwise** at the same seed;
- read each step's replay member exactly once, before training starts;
- never let the federation exceed a global byte budget, no matter how
  many steps the stream runs.
"""

import numpy as np
import pytest

from repro.core import ReplaySpec
from repro.core.pipeline import pretrain
from repro.data.synthetic_shd import SyntheticSHD
from repro.data.tasks import make_class_incremental
from repro.errors import StoreError
from repro.eval.scale import get_scale
from repro.hw.memory import audit_federation
from repro.obs import Recorder, use_recorder
from repro.replaystore import FederatedReplayStore
from repro.scenario import get, run_scenario
from repro.scenario.runner import create_federation

SHARD_SAMPLES = 4


@pytest.fixture(scope="module")
def stream():
    """Keyword arguments of the 3-step stream from one shared pre-training."""
    preset = get_scale("ci")
    generator = SyntheticSHD(preset.shd, seed=preset.experiment.seed)
    # ci has 5 classes: pre-train on 2, learn classes 2, 3, 4 in three steps.
    exp = preset.experiment.replace(num_pretrain_classes=2)
    base_split = make_class_incremental(
        generator,
        exp.samples_per_class,
        exp.test_samples_per_class,
        num_pretrain_classes=2,
    )
    return dict(
        scenario=get("sequential", steps_count=3, base_classes=2),
        method="replay4ncl",
        generator=generator,
        experiment=exp,
        pretrained=pretrain(exp, base_split).network,
    )


@pytest.fixture(scope="module")
def dense_result(stream):
    return run_scenario(**stream)


@pytest.fixture(scope="module")
def store_result(stream, tmp_path_factory):
    return run_scenario(
        **stream,
        replay=ReplaySpec(
            store_dir=tmp_path_factory.mktemp("seq-fed"),
            shard_samples=SHARD_SAMPLES,
        ),
    )


def assert_trajectory_identical(dense, stored):
    assert len(dense.steps) == len(stored.steps)
    for mem, disk in zip(dense.steps, stored.steps):
        assert len(mem.history) == len(disk.history)
        for m, d in zip(mem.history, disk.history):
            assert m.loss == d.loss
            assert m.old_task_accuracy == d.old_task_accuracy
            assert m.new_task_accuracy == d.new_task_accuracy
            assert m.overall_accuracy == d.overall_accuracy
        for p_mem, p_disk in zip(
            mem.network.parameters(), disk.network.parameters()
        ):
            np.testing.assert_array_equal(p_mem.data, p_disk.data)


class TestBitwiseParity:
    def test_matches_dense_trajectory(self, dense_result, store_result):
        assert_trajectory_identical(dense_result, store_result)

    def test_storage_model_is_path_independent(self, dense_result, store_result):
        for mem, disk in zip(dense_result.steps, store_result.steps):
            assert mem.latent_storage_bytes == disk.latent_storage_bytes
            assert mem.latent_stored_frames == disk.latent_stored_frames


class TestDecodeOncePerPhase:
    @pytest.fixture(scope="class")
    def traced(self, stream, tmp_path_factory):
        with use_recorder(Recorder()) as recorder:
            result = run_scenario(
                **stream,
                replay=ReplaySpec(
                    store_dir=tmp_path_factory.mktemp("seq-fed-traced"),
                    shard_samples=2,
                ),
            )
        return result, recorder

    def test_each_member_shard_decoded_once_per_stream(self, traced):
        result, recorder = traced
        spans = recorder.spans()
        children = {}
        for s in spans:
            children.setdefault(s.parent_id, []).append(s)
        reads = [s for s in spans if s.name == "store.gather"]
        assert len(reads) == len(result.steps)
        for read in reads:
            decoded = [
                s.attrs["shard"]
                for s in children.get(read.span_id, [])
                if s.name == "store.decode_shard"
            ]
            assert read.attrs["shards"] > 1
            assert decoded == list(range(read.attrs["shards"]))
        # The counter agrees with the spans: every decode is one of them.
        decodes = [s for s in spans if s.name == "store.decode_shard"]
        total = sum(
            m.total for m in recorder.metrics() if m.name == "store.shards_decoded"
        )
        assert total == len(decodes)

    def test_training_decodes_nothing(self, traced):
        _, recorder = traced
        spans = recorder.spans()
        by_id = {s.span_id: s for s in spans}

        def under_training(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                if span.name == "ncl.train":
                    return True
            return False

        assert any(s.name == "ncl.train" for s in spans)
        assert not any(
            under_training(s) for s in spans if s.name == "store.decode_shard"
        )

    def test_trajectory_unchanged(self, dense_result, traced):
        assert_trajectory_identical(dense_result, traced[0])


class TestFederationArtifacts:
    def test_one_member_per_step(self, store_result):
        federation = FederatedReplayStore.open(store_result.store_root)
        assert federation.member_names == ["step-000", "step-001", "step-002"]
        for k, step in enumerate(store_result.steps):
            member = federation.member(f"step-{k:03d}")
            assert step.replay_store_path == str(member.root)
            assert member.num_samples > 0

    def test_replay_pool_grows_with_seen_classes(self, store_result):
        federation = FederatedReplayStore.open(store_result.store_root)
        per_step = [
            set(np.unique(federation.member(name).labels))
            for name in federation.member_names
        ]
        assert per_step[0] < per_step[1] < per_step[2]

    def test_federated_audit_crosschecks(self, store_result):
        federation = FederatedReplayStore.open(store_result.store_root)
        audit = audit_federation(federation)
        assert audit.num_members == 3
        assert audit.within_budget  # unbudgeted: vacuously true
        assert audit.payload_bytes <= audit.modelled_bytes
        assert audit.disk_bytes > audit.payload_bytes

    def test_dense_result_has_no_store(self, dense_result):
        assert dense_result.store_root is None
        assert all(s.replay_store_path is None for s in dense_result.steps)


class TestCreateFederation:
    def test_dense_specs_open_none(self):
        assert create_federation(None) is None
        assert create_federation(ReplaySpec()) is None

    def test_store_spec_opens_an_empty_federation(self, tmp_path):
        federation = create_federation(
            ReplaySpec(store_dir=tmp_path / "fed", federation_budget_bytes=1 << 20)
        )
        assert isinstance(federation, FederatedReplayStore)
        assert federation.member_names == []
        assert federation.budget_bytes == 1 << 20
        assert (tmp_path / "fed").is_dir()


class TestRerun:
    def test_existing_root_refused_without_overwrite(self, stream, tmp_path):
        one_step = {
            **stream, "scenario": get("sequential", steps_count=1, base_classes=2)
        }
        spec = ReplaySpec(
            store_dir=tmp_path / "fed", shard_samples=SHARD_SAMPLES
        )
        first = run_scenario(**one_step, replay=spec)
        with pytest.raises(StoreError, match="already exists"):
            run_scenario(**one_step, replay=spec)
        rerun = run_scenario(
            **one_step,
            replay=ReplaySpec(
                store_dir=tmp_path / "fed",
                shard_samples=SHARD_SAMPLES,
                overwrite=True,
            ),
        )
        assert_trajectory_identical(first, rerun)
        federation = FederatedReplayStore.open(rerun.store_root)
        assert federation.member_names == ["step-000"]


class TestGlobalBudget:
    def test_budget_holds_across_the_stream(self, stream, tmp_path):
        # Tight budget: roughly one step's worth of replay for a
        # three-step stream, so rebalancing must evict across members.
        probe = FederatedReplayStore.open
        result = run_scenario(
            **stream,
            replay=ReplaySpec(
                store_dir=tmp_path / "budgeted", shard_samples=SHARD_SAMPLES
            ),
        )
        unbudgeted = probe(result.store_root).num_samples
        budget = 10 * probe(result.store_root).sample_bytes
        budgeted = run_scenario(
            **stream,
            replay=ReplaySpec(
                store_dir=tmp_path / "budgeted-tight",
                shard_samples=SHARD_SAMPLES,
                federation_budget_bytes=budget,
            ),
        )
        federation = probe(budgeted.store_root)
        assert federation.model_bytes() <= budget
        assert not federation.over_budget()
        assert federation.num_samples == 10 < unbudgeted
        assert audit_federation(federation).within_budget
        # The budget caps the archive *after* training: trajectories are
        # still the dense ones (training replay is the step's own set).
        assert_trajectory_identical(result, budgeted)
