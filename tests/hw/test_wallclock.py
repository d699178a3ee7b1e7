"""Tests for wall-clock measurement utilities."""

import time

import pytest

from repro.errors import ConfigError
from repro.hw import measure, measure_ratio


class TestMeasure:
    def test_basic_timing(self):
        sample = measure(lambda: time.sleep(0.002), "sleep", repeats=3, warmup=0)
        assert sample.best_s >= 0.002
        assert sample.mean_s >= sample.best_s
        assert sample.repeats == 3

    def test_warmup_runs_before_timing(self):
        calls = []
        measure(lambda: calls.append(1), repeats=2, warmup=3)
        assert len(calls) == 5

    def test_str(self):
        sample = measure(lambda: None, "noop", repeats=1, warmup=0)
        assert "noop" in str(sample)

    def test_validation(self):
        with pytest.raises(ConfigError):
            measure(lambda: None, repeats=0)
        with pytest.raises(ConfigError):
            measure(lambda: None, warmup=-1)


class TestMeasureRatio:
    def test_slow_over_fast_exceeds_one(self):
        ratio = measure_ratio(
            lambda: time.sleep(0.004), lambda: time.sleep(0.001), repeats=2
        )
        assert ratio > 1.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            measure_ratio(lambda: None, lambda: None, repeats=0)

    def test_runs_are_paired_in_alternation(self):
        calls = []
        measure_ratio(
            lambda: calls.append("slow"), lambda: calls.append("fast"), repeats=3
        )
        # One warmup pair, then the timed pairs back to back.
        assert calls == ["slow", "fast"] * 4

    def test_median_ignores_one_disturbed_pair(self):
        delays = iter([0.0, 0.0, 0.003, 0.030, 0.003, 0.001, 0.003, 0.001])

        ratio = measure_ratio(
            lambda: time.sleep(next(delays)), lambda: time.sleep(next(delays)),
            repeats=3,
        )
        # The first timed pair's fast run was slowed 30x; the median of
        # the three per-pair ratios still reports the undisturbed ~3x.
        assert ratio > 1.5

    def test_wallclock_agrees_with_latency_model_direction(self, monkeypatch):
        """A T=30 forward must be measurably slower than T=10."""
        import numpy as np

        from repro.config import NetworkConfig
        from repro.snn import SpikingNetwork

        # Measure on the numpy reference: faster backends shrink the
        # timed windows until constant per-forward overhead dominates
        # and the T-scaling direction drowns in scheduler noise.
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        net = SpikingNetwork(NetworkConfig(layer_sizes=(24, 16, 12, 4), beta=0.9), seed=0)
        net.set_trainable(False)
        rng = np.random.default_rng(0)
        x30 = (rng.random((30, 4, 24)) < 0.3).astype(np.float32)
        x10 = x30[:10]
        ratio = measure_ratio(
            lambda: net.forward(x30), lambda: net.forward(x10), repeats=21
        )
        net.set_trainable(True)
        assert ratio > 1.5  # direction matches the analytic model
