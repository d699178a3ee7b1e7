"""Host record: what the run ran on, and how fast the host ran it.

A shared host disturbs timings in two ways.  Other tenants slow the
cores down: the same operation takes 1.3-1.8x longer for seconds to
minutes at a time while CPU time still matches wall time.  And the
hypervisor takes the cores away: in some stretches 10-20% of the busy
CPU time is steal.  The benchmark therefore times a fixed numpy loop
(the probe) after every training epoch of an operation and before every
set-up, reads steal from ``/proc/stat`` around both, and reports times
at a reference host speed (see :func:`reference_seconds`).
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

_PROBE_A = np.random.default_rng(0).standard_normal((96, 96)).astype(np.float32) / 10
_PROBE_B = np.random.default_rng(1).standard_normal((96, 96)).astype(np.float32) / 10


#: Iterations of the probe loop: short enough (about a millisecond) to
#: run after every training epoch.
PROBE_ITERATIONS = 25
#: The probe's duration when the host runs at full speed, taken from the
#: fastest runs on a 2-core x86 host with Python 3.11 and numpy 2.4.  Run
#: times are reported at this speed: a run whose probes read twice this
#: had its times halved.
REFERENCE_PROBE_MS = 0.6


def probe_ms() -> float:
    """Milliseconds of a fixed numpy loop (products and tanh).

    The loop does not touch the program, so a change to the program
    cannot change the probe.
    """
    a = _PROBE_A
    start = perf_counter()
    for _ in range(PROBE_ITERATIONS):
        a = np.tanh(a @ _PROBE_B)
    return (perf_counter() - start) * 1e3


def reference_seconds(seconds: float, slowness: float, stolen: float) -> float:
    """``seconds`` without the stolen share, at the reference host speed."""
    return seconds * (1.0 - stolen) / slowness


def slowness(probes) -> float:
    """How much slower than the reference the host ran over a stretch of time.

    ``probes`` are readings in the order they were taken, spread over the
    stretch.  Each is replaced by the median of its neighbours (ten each
    side), which drops the odd reading an interrupt or a cold cache
    inflated, and the mean of those medians over the stretch is taken,
    since the host's speed changes within it.
    """
    probes = list(probes)
    local = [
        statistics.median(probes[max(0, i - 10) : i + 11]) for i in range(len(probes))
    ]
    return statistics.fmean(local) / REFERENCE_PROBE_MS


def cpu_times() -> tuple[int, int] | None:
    """(steal, busy) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    values = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted inside user/nice.  An idle CPU
    # accrues no steal, so steal is taken as a share of the busy time.
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8]) - values[3] - values[4]


def steal_share(before, after) -> float:
    """Share of busy CPU time stolen between two :func:`cpu_times` readings."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def code_digest(src: Path) -> str:
    """Hash of every Python source file under ``src``, standing in for the commit."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def record(src: Path, seed: int, backend: str) -> dict:
    """The run's host record."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend,
        "seed": seed,
        "code": code_digest(src),
    }
