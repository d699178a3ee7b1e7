"""Deterministic unit tests for the federation's class-balanced admission."""

import numpy as np
import pytest

from repro.errors import StoreError
from repro.replaystore import class_balanced_admit


def _slot_reference(labels, capacity, seed):
    """Arrival-by-arrival reference: recount the kept set every step.

    Pins the RNG draw order of :func:`class_balanced_admit` — one draw
    per full-buffer arrival, evict-branch or reservoir-branch — so a
    rebalance keeps the same survivors bitwise.
    """
    rng = np.random.default_rng(seed)
    kept, seen = [], {}
    for label in labels:
        seen[label] = seen.get(label, 0) + 1
        if len(kept) < capacity:
            kept.append(label)
            continue
        counts = {c: kept.count(c) for c in set(kept)}
        top = max(counts.values())
        if counts.get(label, 0) < top:
            victim = min(c for c, n in counts.items() if n == top)
            slots = [i for i, k in enumerate(kept) if k == victim]
            kept[slots[int(rng.integers(0, len(slots)))]] = label
            continue
        draw = int(rng.integers(0, seen[label]))
        if draw < counts[label]:
            kept[[i for i, k in enumerate(kept) if k == label][draw]] = label
    return kept


def _drive(labels, capacity, seed=0):
    """Feed a label stream through admission; return the kept labels."""
    labels = list(labels)
    kept = class_balanced_admit(labels, capacity, np.random.default_rng(seed))
    return [int(labels[position]) for position in kept]


class TestClassBalanced:
    def test_rebalances_skewed_stream(self):
        # 30 samples of class 0 then 6 of class 1: a balanced buffer
        # should end close to 50/50, not 90/10.
        labels = [0] * 30 + [1] * 6
        kept = _drive(labels, capacity=8, seed=3)
        counts = {c: kept.count(c) for c in set(kept)}
        assert counts[1] >= 3
        assert len(kept) == 8

    def test_minority_class_never_evicted_by_majority(self):
        # Once a rare class is in, further majority arrivals cannot push
        # it out (they only ever displace the largest class).
        labels = [0] * 4 + [1] + [0] * 40
        kept = _drive(labels, capacity=4, seed=0)
        assert 1 in kept

    def test_within_class_reservoir(self):
        # Single class: behaves as a reservoir, stays at capacity.
        kept = _drive([2] * 50, capacity=6, seed=1)
        assert len(kept) == 6
        assert set(kept) == {2}

    def test_deterministic_given_seed(self):
        labels = list(range(4)) * 10
        a = _drive(labels, capacity=6, seed=9)
        b = _drive(labels, capacity=6, seed=9)
        assert a == b


class TestAdmissionContract:
    def test_returns_positions_in_slot_order(self):
        # Two class-0 arrivals fill the buffer; the class-1 arrival
        # overwrites one of their slots in place.
        for seed in range(4):
            kept = class_balanced_admit([0, 0, 1], 2, np.random.default_rng(seed))
            assert kept in ([2, 1], [0, 2])

    def test_empty_stream_keeps_nothing(self):
        assert class_balanced_admit([], 4, np.random.default_rng(0)) == []

    @pytest.mark.parametrize("capacity", [0, -3])
    def test_capacity_must_hold_a_sample(self, capacity):
        with pytest.raises(StoreError, match="capacity"):
            class_balanced_admit([0, 1], capacity, np.random.default_rng(0))


class TestSeedSweep:
    """Admission invariants must hold for *every* seed, not the lucky one.

    The deterministic tests above pin one RNG draw each; these sweep a
    handful of seeds so the class-balanced guarantees are properties of
    the algorithm, not artefacts of a particular stream of random
    numbers.
    """

    SEEDS = [0, 1, 7, 13, 101]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_capacity_respected_and_labels_from_stream(self, seed):
        labels = np.random.default_rng(seed).integers(0, 6, 80).tolist()
        kept = _drive(labels, capacity=12, seed=seed)
        assert len(kept) == 12
        stream_counts = {c: labels.count(c) for c in set(labels)}
        for c in set(kept):
            assert kept.count(c) <= stream_counts[c]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_under_capacity_keeps_everything(self, seed):
        labels = np.random.default_rng(seed).integers(0, 3, 9).tolist()
        assert _drive(labels, capacity=20, seed=seed) == labels

    @pytest.mark.parametrize("seed", SEEDS)
    def test_class_balanced_spread_on_round_robin(self, seed):
        # Equal interleaved arrivals: per-class counts may never drift
        # further than one apart, whatever the eviction draws do.
        labels = list(range(4)) * 15
        kept = _drive(labels, capacity=10, seed=seed)
        counts = [kept.count(c) for c in range(4)]
        assert sum(counts) == 10
        assert max(counts) - min(counts) <= 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_class_balanced_minority_floor(self, seed):
        # A class with >= capacity//num_classes arrivals keeps at least
        # that many slots under skewed pressure (no starvation).
        labels = [0] * 40 + [1] * 4 + [0] * 40
        kept = _drive(labels, capacity=8, seed=seed)
        assert kept.count(1) == 4
        assert len(kept) == 8

    @pytest.mark.parametrize("seed", SEEDS)
    def test_class_balanced_never_goes_extinct(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.permutation([0] * 50 + [1] * 8 + [2] * 8).tolist()
        kept = _drive(labels, capacity=9, seed=seed)
        assert set(kept) == {0, 1, 2}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_slot_reference(self, seed):
        labels = np.random.default_rng(seed).integers(0, 5, 120).tolist()
        labels += [0] * 30 + [4] * 3
        assert _drive(labels, capacity=11, seed=seed) == _slot_reference(
            labels, capacity=11, seed=seed
        )
