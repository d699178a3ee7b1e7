"""Sequential (multi-step) class-incremental runs through `run_scenario`."""

import numpy as np
import pytest

from repro.core import Replay4NCL
from repro.core.pipeline import pretrain
from repro.core.strategies import EpochCost, NCLResult
from repro.data.synthetic_shd import SyntheticSHD
from repro.data.tasks import make_class_incremental
from repro.errors import DataError
from repro.eval.scale import get_scale
from repro.scenario import ScenarioResult, get, run_scenario
from repro.training.metrics import TrainingHistory


def _result_without_network() -> NCLResult:
    """A syntactically complete NCLResult whose network was dropped."""
    return NCLResult(
        method="stub",
        insertion_layer=0,
        timesteps=4,
        history=TrainingHistory(),
        final_old_accuracy=0.0,
        final_new_accuracy=0.0,
        final_overall_accuracy=0.0,
        latent_storage_bytes=0,
        latent_stored_frames=0,
        epoch_costs=[],
        prepare_cost=EpochCost(),
        network=None,
    )


@pytest.fixture(scope="module")
def stream():
    """Keyword arguments of a 2-step stream from one shared pre-training."""
    preset = get_scale("ci")
    generator = SyntheticSHD(preset.shd, seed=preset.experiment.seed)
    # ci has 5 classes: pre-train on 3, learn classes 3 and 4 in two steps.
    exp = preset.experiment.replace(num_pretrain_classes=3)
    base_split = make_class_incremental(
        generator,
        exp.samples_per_class,
        exp.test_samples_per_class,
        num_pretrain_classes=3,
    )
    return dict(
        scenario=get("sequential", steps_count=2, base_classes=3),
        generator=generator,
        experiment=exp,
        pretrained=pretrain(exp, base_split),
    )


def _one_step(stream):
    """The same stream cut to its first step (same base, same step 0)."""
    return {**stream, "scenario": get("sequential", steps_count=1, base_classes=3)}


class TestChainedRun:
    @pytest.fixture(scope="class")
    def result(self, stream):
        return run_scenario(method="replay4ncl", **stream)

    def test_two_steps(self, result):
        assert len(result.steps) == 2
        assert len(result.old_accuracy_trajectory) == 2

    def test_each_step_learns_its_class(self, result):
        # The ci budget is small; require progress, not perfection.
        assert result.new_accuracy_trajectory[0] >= 0.5

    def test_old_knowledge_survives_both_steps(self, result):
        assert result.old_accuracy_trajectory[-1] >= 0.4

    def test_networks_chain(self, result, stream):
        # Step 2's network must differ from both the pre-trained one and
        # step 1's (training happened at each step).
        w_pre = stream["pretrained"].network.readout.w_ff.data
        w_one = result.steps[0].network.readout.w_ff.data
        w_two = result.steps[1].network.readout.w_ff.data
        assert not np.array_equal(w_pre, w_one)
        assert not np.array_equal(w_one, w_two)

    def test_final_network_exposed(self, result):
        assert result.final_network is result.steps[-1].network

    def test_describe(self, result):
        text = result.describe()
        assert "2 step(s)" in text and "step-1" in text


class TestErrorPaths:
    def _networkless(self):
        return ScenarioResult(
            scenario="sequential",
            method="stub",
            steps=(_result_without_network(),),
            step_names=("step-0",),
            accuracy_matrix=np.zeros((2, 2)),
            pretrain_accuracy=0.0,
        )

    def test_final_network_raises_when_network_missing(self):
        # Regression: final_network must refuse to hand back None when
        # the last step carries no trained network.
        with pytest.raises(DataError, match="carries no network"):
            self._networkless().final_network

    def test_trajectories_still_exposed_without_network(self):
        # The accuracy trajectories are index-only: they must survive a
        # networkless step even though final_network raises.
        result = self._networkless()
        assert result.old_accuracy_trajectory == (0.0,)
        assert result.new_accuracy_trajectory == (0.0,)
        assert result.store_root is None

    def test_rejects_networkless_method(self, stream):
        class NetworklessMethod(Replay4NCL):
            def run(self, network, split, **kwargs):
                return _result_without_network()

        with pytest.raises(DataError, match="did not return"):
            run_scenario(method=NetworklessMethod, **_one_step(stream))

    def test_unwraps_pretrain_result(self, stream):
        # Regression: a PretrainResult is unwrapped the way run_method
        # does it — step 0 trains from its network.
        received = []

        class Recorder(Replay4NCL):
            def run(self, network, split, **kwargs):
                received.append(network)
                result = _result_without_network()
                result.network = network
                return result

        run_scenario(method=Recorder, **_one_step(stream))
        assert received == [stream["pretrained"].network]
