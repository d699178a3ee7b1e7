"""Wall-clock measurement of the simulation itself.

The analytic models in :mod:`repro.hw` predict *target-hardware* cost;
this module measures what the numpy simulation actually costs on the
host.  Two uses:

- sanity-check that measured wall-clock *ratios* (e.g. T=100 vs T=40
  epochs) agree in direction with the analytic latency model;
- give users an honest runtime expectation per scale preset.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError

__all__ = ["WallClockSample", "measure", "measure_ratio"]


@dataclass(frozen=True)
class WallClockSample:
    """Repeated timing of one callable."""

    label: str
    repeats: int
    best_s: float
    mean_s: float

    def __str__(self) -> str:
        return f"{self.label}: best {self.best_s * 1e3:.2f} ms, mean {self.mean_s * 1e3:.2f} ms"


def measure(
    fn: Callable[[], object],
    label: str = "",
    repeats: int = 5,
    warmup: int = 1,
) -> WallClockSample:
    """Time ``fn`` with warmup; returns best and mean of ``repeats`` runs."""
    if repeats <= 0:
        raise ConfigError(f"repeats must be positive, got {repeats}")
    if warmup < 0:
        raise ConfigError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return WallClockSample(
        label=label,
        repeats=repeats,
        best_s=min(timings),
        mean_s=sum(timings) / len(timings),
    )


def measure_ratio(
    slow_fn: Callable[[], object],
    fast_fn: Callable[[], object],
    repeats: int = 5,
) -> float:
    """Median slow/fast time ratio — e.g. a T=100 epoch vs a T=40 epoch.

    The two callables are timed in adjacent pairs and the ratio is taken
    per pair, so a stretch of host load (a preempted run, a busy sibling
    core) lands on both sides of a pair instead of skewing one side's
    best time; the median then drops the pairs a burst split unevenly.
    """
    if repeats <= 0:
        raise ConfigError(f"repeats must be positive, got {repeats}")
    slow_fn()
    fast_fn()
    ratios = []
    for _ in range(repeats):
        start = time.perf_counter()
        slow_fn()
        middle = time.perf_counter()
        fast_fn()
        end = time.perf_counter()
        if end == middle:
            raise ConfigError("fast callable measured as zero time")
        ratios.append((middle - start) / (end - middle))
    return statistics.median(ratios)
