"""`run_scenario` synthesizes each recording once per run.

A sequential stream rebuilds every step's old-class train/test sets;
the run-scoped pool (:meth:`SyntheticSHD.pooled`) serves the repeats,
so a run calls :meth:`SyntheticSHD.generate` once per distinct
``(class, sample)`` key — and a second run starts cold again.
"""

import numpy as np
import pytest

from repro.core.pipeline import pretrain
from repro.data.synthetic_shd import SyntheticSHD
from repro.eval.scale import get_scale
from repro.scenario import get, run_scenario


@pytest.fixture(scope="module")
def setup():
    preset = get_scale("ci")
    experiment = preset.experiment.replace(
        ncl=preset.experiment.ncl.replace(epochs=2)
    )
    generator = SyntheticSHD(preset.shd, seed=experiment.seed)
    scenario = get("sequential", steps_count=3)
    first = next(iter(scenario.steps(generator, experiment)))
    return dict(
        scenario=scenario,
        generator=generator,
        experiment=experiment,
        pretrained=pretrain(experiment, first.split),
    )


@pytest.fixture(scope="module")
def runs(setup):
    """Two runs with the same generator, recording every generate() key."""
    original = SyntheticSHD.generate
    keys: list[list[tuple[int, int]]] = []

    def counting(self, class_id, sample_id):
        keys[-1].append((class_id, sample_id))
        return original(self, class_id, sample_id)

    mp = pytest.MonkeyPatch()
    mp.setattr(SyntheticSHD, "generate", counting)
    try:
        results = []
        for _ in range(2):
            keys.append([])
            results.append(run_scenario(method="replay4ncl", **setup))
    finally:
        mp.undo()
    return keys, results


def test_each_key_synthesized_once(runs, setup):
    keys, _ = runs
    experiment = setup["experiment"]
    assert len(keys[0]) == len(set(keys[0]))
    # Every class appears in some step with both splits.
    num_classes = setup["generator"].config.num_classes
    assert len(keys[0]) == num_classes * (
        experiment.samples_per_class + experiment.test_samples_per_class
    )


def test_second_run_synthesizes_again(runs):
    keys, results = runs
    assert keys[1] == keys[0]
    np.testing.assert_array_equal(
        results[1].accuracy_matrix, results[0].accuracy_matrix
    )


def test_callers_generator_holds_no_pool(runs, setup):
    assert setup["generator"]._pool is None
