"""Per-epoch NCL evaluation on the cached frozen-front output.

``NCLMethod.run`` computes the frozen front's output on each test set
once per phase and each epoch predicts from the insertion layer up.
That is only a speed-up if it is bitwise the full-network prediction,
and only pays if evaluation really stops re-running the front; both
are pinned here.
"""

import math

import numpy as np
import pytest

from repro.core import Replay4NCL
from repro.obs import Recorder, use_recorder
from repro.snn import backends

C_AVAILABLE, C_REASON = backends.get_backend("c").availability()
BACKENDS = [
    "numpy",
    pytest.param(
        "c", marks=pytest.mark.skipif(not C_AVAILABLE, reason=f"C backend: {C_REASON}")
    ),
]


@pytest.fixture
def backend(request, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", request.param)
    assert backends.active().name == request.param
    return request.param


@pytest.fixture(scope="module")
def method(ci_preset):
    return Replay4NCL(ci_preset.experiment)


@pytest.fixture(scope="module")
def rasters(ci_split, method):
    """130 real samples (drawn with replacement) at the NCL timestep."""
    timesteps = method.ncl_timesteps()
    pool = np.concatenate(
        [
            split_part.to_dense(timesteps)
            for split_part in (ci_split.pretrain_test, ci_split.new_test)
        ],
        axis=1,
    )
    picks = np.random.default_rng(0).integers(0, pool.shape[1], size=130)
    return pool[:, picks]


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "static"])
@pytest.mark.parametrize("batch", [5, 72, 130])
@pytest.mark.parametrize("layer", [0, 1, 2, 3])
def test_cached_front_predicts_bitwise(
    ci_pretrained, method, rasters, backend, adaptive, batch, layer
):
    """Batch sizes straddle predict's 64-sample chunks."""
    network = ci_pretrained.network
    x = rasters[:, :batch]
    controller = method.make_controller() if adaptive else None
    if adaptive:
        assert callable(controller)
    front = network.activations_at(layer, x)
    if layer > 0:
        assert front.any(), "vacuous check: the frozen front emitted no spikes"
    cached = network.predict(
        front,
        start_layer=layer,
        controller=controller,
        controller_from_layer=layer,
    )
    full = network.predict(x, controller=controller, controller_from_layer=layer)
    np.testing.assert_array_equal(cached, full, strict=True)


class TestEvaluationCounts:
    @pytest.fixture(scope="class")
    def traced(self, ci_preset, ci_pretrained, ci_split):
        experiment = ci_preset.experiment.replace(
            ncl=ci_preset.experiment.ncl.replace(epochs=3)
        )
        method = Replay4NCL(experiment)
        with use_recorder(Recorder()):
            result = method.run(ci_pretrained.network, ci_split)
        return method, result

    @staticmethod
    def _ancestry(report):
        by_id = {s.span_id: s for s in report.spans}

        def ancestors(span):
            chain = []
            while span.parent_id is not None and span.parent_id in by_id:
                span = by_id[span.parent_id]
                chain.append(span)
            return chain

        return ancestors

    def test_no_frozen_front_kernel_inside_evaluation(self, traced):
        _, result = traced
        ancestors = self._ancestry(result.trace)
        lif = [s for s in result.trace.spans if s.name == "kernel.lif_forward"]
        assert lif, "the frozen front's one-off passes should still be traced"
        for span in lif:
            assert "train.eval" not in {a.name for a in ancestors(span)}

    def test_one_predict_per_test_set_per_epoch(self, traced, ci_split):
        _, result = traced
        ancestors = self._ancestry(result.trace)
        evals = [s for s in result.trace.spans if s.name == "train.eval"]
        assert len(evals) == 3
        chunks = math.ceil(len(ci_split.pretrain_test) / 64) + math.ceil(
            len(ci_split.new_test) / 64
        )
        for ev in evals:
            readouts = [
                s
                for s in result.trace.spans
                if s.name == "kernel.readout_forward"
                and ev.span_id in {a.span_id for a in ancestors(s)}
            ]
            assert len(readouts) == chunks

    def test_final_accuracies_match_full_network_predict(self, traced, ci_split):
        method, result = traced
        timesteps = method.ncl_timesteps()
        insertion = method.insertion_layer()
        predictions = {}
        for name, part in (("old", ci_split.pretrain_test), ("new", ci_split.new_test)):
            predictions[name] = result.network.predict(
                part.to_dense(timesteps),
                controller=method.make_controller(),
                controller_from_layer=insertion,
            )
        old_labels = ci_split.pretrain_test.labels
        new_labels = ci_split.new_test.labels
        assert result.final_old_accuracy == np.mean(predictions["old"] == old_labels)
        assert result.final_new_accuracy == np.mean(predictions["new"] == new_labels)
        assert result.final_overall_accuracy == np.mean(
            np.concatenate([predictions["old"], predictions["new"]])
            == np.concatenate([old_labels, new_labels])
        )
