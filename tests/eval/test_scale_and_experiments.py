"""Tests for scale presets and the experiment registry."""

import numpy as np
import pytest

from repro.core.pipeline import PretrainResult
from repro.errors import ConfigError
from repro.eval import experiments, get_scale
from repro.eval.scale import SCALES
from repro.snn.network import SpikingNetwork
from repro.training.metrics import TrainingHistory


class TestScalePresets:
    @pytest.mark.parametrize("name", sorted(SCALES))
    def test_presets_construct(self, name):
        preset = get_scale(name)
        assert preset.name == name
        assert preset.shd.num_classes == preset.experiment.network.num_classes

    def test_unknown_scale(self):
        with pytest.raises(ConfigError):
            get_scale("galactic")

    def test_timestep_ratio_invariant(self):
        # DESIGN.md: ncl/pretrain timesteps = 0.4 at every scale, so the
        # 20% latent-memory relationship is scale-invariant.
        for name in SCALES:
            preset = get_scale(name)
            ratio = preset.experiment.ncl.timesteps / preset.experiment.pretrain.timesteps
            assert ratio == pytest.approx(0.4)

    def test_paper_scale_matches_paper(self):
        preset = get_scale("paper")
        assert preset.experiment.network.layer_sizes == (700, 200, 100, 50, 20)
        assert preset.experiment.pretrain.timesteps == 100
        assert preset.experiment.ncl.timesteps == 40
        assert preset.experiment.num_pretrain_classes == 19
        assert preset.experiment.pretrain.learning_rate == pytest.approx(1e-3)

    def test_description(self):
        assert "net=" in get_scale("ci").description


class TestExperimentRegistry:
    def test_registry_covers_every_figure(self):
        expected = {"fig1a", "fig2", "fig8", "fig10", "fig11", "fig12",
                    "fig13", "headline"}
        assert set(experiments.available_experiments()) == expected

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            experiments.run("fig99", scale="ci")

    def test_context_cached(self):
        a = experiments.context("ci")
        b = experiments.context("ci")
        assert a is b

    def test_pretrain_disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        experiments._CONTEXTS.clear()
        ctx1 = experiments.context("ci")
        acc1 = ctx1.pretrained.test_accuracy
        # Second context build must load from disk (empty history marks
        # a cache hit) and agree on the accuracy.
        experiments._CONTEXTS.clear()
        ctx2 = experiments.context("ci")
        assert ctx2.pretrained.test_accuracy == pytest.approx(acc1)
        assert len(ctx2.pretrained.history) == 0
        experiments._CONTEXTS.clear()

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated",
            "empty-file",
            "not-an-archive",
            "key-without-slash",
            "missing-accuracy",
            "missing-layer",
            "wrong-ff-shape",
            "wrong-rec-shape",
        ],
    )
    def test_damaged_pretrain_cache_is_a_miss(self, damage, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        monkeypatch.setattr(experiments, "_CONTEXTS", {})
        preset = get_scale("ci")
        path = tmp_path / f"pretrain-{experiments._config_digest(preset)}.npz"
        network = SpikingNetwork(preset.experiment.network, seed=preset.experiment.seed)
        flat = {
            f"{layer}/{param}": value
            for layer, params in network.state_dict().items()
            for param, value in params.items()
        }
        if damage == "truncated":
            experiments._store_pretrained(
                preset,
                PretrainResult(
                    network=network,
                    history=TrainingHistory(),
                    test_accuracy=0.5,
                    epoch_traces=[],
                ),
            )
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif damage == "empty-file":
            path.write_bytes(b"")
        elif damage == "not-an-archive":
            path.write_bytes(b"not a zip archive\n" * 8)
        elif damage == "key-without-slash":
            np.savez(path, weights=np.zeros(3), __test_accuracy__=np.asarray(0.5))
        elif damage == "missing-accuracy":
            np.savez(path, **flat)
        else:
            if damage == "missing-layer":
                del flat["readout/w_ff"]
            elif damage == "wrong-ff-shape":
                flat["hidden0/w_ff"] = flat["hidden0/w_ff"][:, :-1]
            else:
                flat["hidden0/w_rec"] = flat["hidden0/w_rec"][:-1, :-1]
            np.savez(path, **flat, __test_accuracy__=np.asarray(0.5))
        assert experiments._load_pretrained(preset, None) is None
        # The miss re-pretrains and atomically overwrites the entry, which
        # then loads as a clean hit.
        ctx = experiments.context("ci")
        assert len(ctx.pretrained.history) > 0
        reloaded = experiments._load_pretrained(preset, None)
        assert reloaded.test_accuracy == ctx.pretrained.test_accuracy


class TestFigureRuns:
    """End-to-end runs at ci scale for the cheap figures."""

    def test_fig12_runs(self):
        result = experiments.run("fig12", scale="ci")
        savings = result.get_series("memory-saving").y
        assert all(0.0 < s < 0.5 for s in savings)

    def test_fig1a_runs(self):
        result = experiments.run("fig1a", scale="ci")
        assert result.scalars["accuracy_drop"] > 0.0
        assert len(result.get_series("old-tasks").y) == \
            get_scale("ci").experiment.ncl.epochs

    def test_headline_runs(self):
        result = experiments.run("headline", scale="ci")
        for key in ("latency_speedup", "memory_saving", "energy_saving"):
            assert key in result.scalars
        assert result.scalars["latency_speedup"] > 1.0
