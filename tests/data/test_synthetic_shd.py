"""Tests for the synthetic SHD generator."""

import numpy as np
import pytest

from repro import obs
from repro.data import EventStream, SyntheticSHD, SyntheticSHDConfig
from repro.data.synthetic_shd import TEST_OFFSET, _Trajectory
from repro.errors import ConfigError, DataError
from repro.eval.scale import get_scale


@pytest.fixture(scope="module")
def generator():
    return SyntheticSHD(
        SyntheticSHDConfig(num_channels=64, num_classes=5, grid_steps=100), seed=7
    )


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = SyntheticSHDConfig()
        assert cfg.num_channels == 700 and cfg.num_classes == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_channels": 0},
            {"num_classes": 1},
            {"trajectories_per_class": 0},
            {"peak_rate": 0.0},
            {"background_rate": -1.0},
            {"duration": 0.0},
            {"channel_bandwidth": 0.6},
            {"num_anchors": 1},
            {"grid_steps": 5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SyntheticSHDConfig(**kwargs)


class TestDeterminism:
    def test_same_seed_same_events(self, generator):
        other = SyntheticSHD(generator.config, seed=7)
        a = generator.generate(1, 3)
        b = other.generate(1, 3)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.channels, b.channels)

    def test_different_samples_differ(self, generator):
        a = generator.generate(1, 0)
        b = generator.generate(1, 1)
        assert a.num_events != b.num_events or not np.array_equal(a.times, b.times)

    def test_different_seeds_differ(self, generator):
        other = SyntheticSHD(generator.config, seed=8)
        a = generator.generate(0, 0)
        b = other.generate(0, 0)
        assert not np.array_equal(a.times, b.times)

    def test_prototypes_deterministic(self, generator):
        other = SyntheticSHD(generator.config, seed=7)
        assert generator.class_prototype(2) == other.class_prototype(2)

    def test_anchors_shared_across_classes(self, generator):
        anchors = set(np.round(generator.anchors, 6))
        for c in range(generator.config.num_classes):
            for traj in generator.class_prototype(c):
                assert round(traj.start_channel, 6) in anchors
                assert round(traj.end_channel, 6) in anchors


class TestStatistics:
    def test_stream_shape(self, generator):
        s = generator.generate(0, 0)
        assert s.num_channels == 64
        assert s.duration == generator.config.duration

    def test_sparse_but_active(self, generator):
        s = generator.generate(0, 0)
        density = s.to_dense(100).mean()
        assert 0.005 < density < 0.4  # sparse like SHD, but not silent

    def test_intensity_field_nonnegative(self, generator):
        field = generator.intensity_field(0)
        assert field.min() >= generator.config.background_rate
        assert field.shape == (100, 64)

    def test_intensity_fields_differ_between_classes(self, generator):
        a = generator.intensity_field(0)
        b = generator.intensity_field(1)
        assert not np.allclose(a, b)

    def test_sample_variability_changes_field(self, generator):
        clean = generator.intensity_field(0)
        jittered = generator.intensity_field(0, rng=np.random.default_rng(0))
        assert not np.allclose(clean, jittered)

    def test_classes_temporally_separable(self, generator):
        # Rasters of different classes must differ far more across classes
        # than within a class (a weak separability sanity check).
        def mean_raster(c):
            rasters = [generator.generate(c, i).to_dense(50) for i in range(8)]
            return np.mean(rasters, axis=0)

        m0, m1 = mean_raster(0), mean_raster(1)
        between = np.abs(m0 - m1).sum()
        m0b = np.mean([generator.generate(0, 100 + i).to_dense(50) for i in range(8)], axis=0)
        within = np.abs(m0 - m0b).sum()
        assert between > 1.5 * within


class TestDatasetGeneration:
    def test_shapes_and_labels(self, generator):
        ds = generator.generate_dataset(4, split="train")
        assert len(ds) == 20
        assert ds.class_counts() == {c: 4 for c in range(5)}

    def test_class_filter(self, generator):
        ds = generator.generate_dataset(3, split="train", classes=[1, 3])
        assert ds.present_classes == [1, 3]

    def test_train_test_disjoint(self, generator):
        train = generator.generate_dataset(2, split="train")
        test = generator.generate_dataset(2, split="test")
        assert not np.array_equal(train.streams[0].times, test.streams[0].times)

    def test_rejects_bad_split(self, generator):
        with pytest.raises(DataError):
            generator.generate_dataset(2, split="validation")

    def test_rejects_bad_counts(self, generator):
        with pytest.raises(DataError):
            generator.generate_dataset(0)

    def test_rejects_bad_class(self, generator):
        with pytest.raises(DataError):
            generator.generate(99, 0)
        with pytest.raises(DataError):
            generator.generate_dataset(1, classes=[99])

    def test_rejects_counts_past_test_offset(self, generator):
        # Train id TEST_OFFSET would be the same draw as test id 0.
        with pytest.raises(DataError, match="offset"):
            generator.generate_dataset(TEST_OFFSET + 1, split="train")

    def test_accepts_counts_up_to_test_offset(self, generator):
        ids = []

        def fake_generate(class_id, sample_id):
            ids.append(sample_id)
            return EventStream(np.zeros(0), np.zeros(0), 64, 1.0)

        generator = SyntheticSHD(generator.config, seed=generator.seed)
        generator.generate = fake_generate
        generator.generate_dataset(TEST_OFFSET, split="train", classes=[0])
        generator.generate_dataset(TEST_OFFSET, split="test", classes=[0])
        assert ids == list(range(2 * TEST_OFFSET))


def _hits_and_misses(recorder) -> tuple[float, float]:
    totals = {entry.name: entry.total for entry in recorder.metrics()}
    return totals.get("data.pool_hits", 0.0), totals.get("data.pool_misses", 0.0)


class TestSamplePool:
    def test_shares_everything_but_the_pool(self, generator):
        pooled = generator.pooled()
        assert pooled is not generator
        assert pooled.config is generator.config and pooled.seed == generator.seed
        np.testing.assert_array_equal(pooled.anchors, generator.anchors)
        for c in range(generator.config.num_classes):
            assert pooled.class_prototype(c) is generator.class_prototype(c)

    def test_pooled_datasets_equal_plain_ones(self, generator):
        pooled = generator.pooled()
        for split in ("train", "test"):
            plain = generator.generate_dataset(3, split=split, classes=[0, 2])
            for _ in range(2):  # cold, then served from the pool
                ds = pooled.generate_dataset(3, split=split, classes=[0, 2])
                np.testing.assert_array_equal(ds.labels, plain.labels)
                for a, b in zip(ds.streams, plain.streams):
                    np.testing.assert_array_equal(a.times, b.times)
                    np.testing.assert_array_equal(a.channels, b.channels)

    def test_each_key_synthesized_once(self, generator, monkeypatch):
        pooled = generator.pooled()
        calls = []
        original = SyntheticSHD.generate

        def counting(self, class_id, sample_id):
            calls.append((class_id, sample_id))
            return original(self, class_id, sample_id)

        monkeypatch.setattr(SyntheticSHD, "generate", counting)
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            first = pooled.generate_dataset(2, classes=[0, 1])
            second = pooled.generate_dataset(3, classes=[1, 2])
            pooled.generate_dataset(2, split="test", classes=[1])
        assert sorted(calls) == sorted(set(calls))
        assert len(calls) == 4 + 4 + 2  # (1, 2) and class 2 are new; test is new
        assert second.streams[0] is first.streams[2]  # class 1, sample 0
        assert _hits_and_misses(recorder) == (2.0, 10.0)

    def test_plain_generator_keeps_no_pool(self, generator):
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            a = generator.generate_dataset(1, classes=[0])
            b = generator.generate_dataset(1, classes=[0])
        assert a.streams[0] is not b.streams[0]
        assert _hits_and_misses(recorder) == (0.0, 0.0)
        generator.pooled().generate_dataset(1, classes=[0])
        assert generator._pool is None


def _reference_field(gen, class_id, rng=None):
    """The full-grid intensity field (every trajectory evaluated on every
    grid row, zero envelope outside its window) — the formula the
    windowed implementation must reproduce bitwise."""
    cfg = gen.config
    grid_t = np.linspace(0.0, 1.0, cfg.grid_steps, endpoint=False) + 0.5 / cfg.grid_steps
    channels = np.arange(cfg.num_channels) / cfg.num_channels
    field = np.full(
        (cfg.grid_steps, cfg.num_channels), cfg.background_rate, dtype=np.float64
    )
    for traj in gen.class_prototype(class_id):
        start, end, curve = traj.start_channel, traj.end_channel, traj.curvature
        onset, offset = traj.onset, traj.offset
        if rng is not None:
            shift = rng.normal(0.0, cfg.channel_jitter_std)
            start = float(np.clip(start + shift, 0.02, 0.98))
            end = float(np.clip(end + shift, 0.02, 0.98))
            warp = float(np.clip(rng.normal(1.0, cfg.time_warp_std), 0.7, 1.3))
            onset = onset * warp
            offset = min(offset * warp, 1.0)
        span = max(offset - onset, 1e-3)
        phase = (grid_t - onset) / span
        envelope = np.where(
            (phase >= 0) & (phase <= 1), np.sin(np.pi * np.clip(phase, 0, 1)), 0.0
        )
        centre = start + (end - start) * phase + curve * phase * (1 - phase)
        gauss = np.exp(
            -0.5 * ((channels[None, :] - centre[:, None]) / cfg.channel_bandwidth) ** 2
        )
        field += cfg.peak_rate * traj.intensity * envelope[:, None] * gauss
    return field


def _assert_matches_reference(gen, class_id, sample_ids=(0, 1, TEST_OFFSET)):
    np.testing.assert_array_equal(
        gen.intensity_field(class_id), _reference_field(gen, class_id)
    )
    for seed in (0, 5):
        np.testing.assert_array_equal(
            gen.intensity_field(class_id, np.random.default_rng(seed)),
            _reference_field(gen, class_id, np.random.default_rng(seed)),
        )
    # generate() with the reference field swapped in must draw the same
    # events: same field bits, same RNG stream afterwards.
    reference = SyntheticSHD(gen.config, seed=gen.seed)
    reference._prototypes = gen._prototypes
    reference.intensity_field = lambda c, rng=None: _reference_field(reference, c, rng)
    for sample_id in sample_ids:
        a = gen.generate(class_id, sample_id)
        b = reference.generate(class_id, sample_id)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.channels, b.channels)


class TestGoldenField:
    @pytest.mark.parametrize("scale", ["ci", "bench"])
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_windowed_field_is_bitwise_full_grid(self, scale, seed):
        gen = SyntheticSHD(get_scale(scale).shd, seed=seed)
        for class_id in range(gen.config.num_classes):
            _assert_matches_reference(gen, class_id)

    def _with_prototype(self, trajectories):
        gen = SyntheticSHD(
            SyntheticSHDConfig(num_channels=64, num_classes=2, grid_steps=50), seed=3
        )
        gen._prototypes[0] = trajectories
        return gen

    def test_window_cut_off_by_grid_end(self):
        late = _Trajectory(0.2, 0.7, 0.1, onset=0.8, offset=1.0, intensity=0.9)
        gen = self._with_prototype([late])
        # The clean window reaches the last grid row.
        assert gen.intensity_field(0)[-1].max() > gen.config.background_rate
        _assert_matches_reference(gen, 0)

    def test_empty_window(self):
        never = _Trajectory(0.3, 0.6, -0.1, onset=1.2, offset=1.0, intensity=0.8)
        early = _Trajectory(0.6, 0.3, 0.2, onset=0.0, offset=0.4, intensity=1.0)
        gen = self._with_prototype([never, early])
        # onset > 1 stays past the grid under any time warp (>= 0.7 * 1.2).
        alone = self._with_prototype([never])
        np.testing.assert_array_equal(
            alone.intensity_field(0, np.random.default_rng(0)),
            np.full((50, 64), alone.config.background_rate),
        )
        _assert_matches_reference(gen, 0)
