"""Self-test of the benchmark at ``ci`` scale (about 20 s on two cores).

Usage (from the repository root)::

    python3 perfbench/selftest.py

For every workload it runs ``run.py`` once untraced and once traced and
checks that each metric named in ``BENCHMARK.json`` is printed with its
unit, that the checks pass, that traced layer spans cover at least 90%
of the operation, and that layers the workload bypasses read zero.  It
then runs each workload with ``--corrupt`` and checks that the perturbed
output is counted as a failed operation, and runs the benchmark in a
directory without the program to check that it fails without a result.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Per-layer metrics that must read zero (bypassed) or above zero
#: (exercised) on each workload.
BYPASSED = {
    "pretrain": ["store.read_shard.calls", "store.write.s", "train.eval.s",
                 "latent.generate.s", "ncl_s.replay4ncl"],
    "headline": ["kernel.lif_backward.calls", "store.read_shard.calls",
                 "store.write.s", "data.generate.calls"],
    "sequential-store": ["kernel.lif_backward.calls", "ncl_s.spikinglr", "hw.model.s"],
}
EXERCISED = {
    "pretrain": ["kernel.lif_backward.calls", "train.optimizer.s"],
    "headline": ["train.eval.s", "latent.generate.s", "codec.decompress.s",
                 "ncl_s.spikinglr", "hw.model_speedup"],
    "sequential-store": ["store.read_shard.calls", "store.write.s", "store.adopt.s",
                         "store.evicted", "data.generate.calls"],
}


def _run(workload: str, trace: int, *extra: str, cwd: Path):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
               "--scale", "ci", *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stderr


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems: list[str] = []
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, stderr = _run(workload, trace, cwd=root)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{label}: exit {code}, result {result}\n{stderr}")
                continue
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                problems.append(f"{label}: metrics/units {printed} != {expected}")
            values = {name: m["value"] for name, m in result["metrics"].items()}
            if trace == 0 and any(v <= 0 for v in values.values()):
                problems.append(f"{label}: an end-to-end metric is not positive: {values}")
            if trace == 1:
                if values.get("trace.coverage", 0) < 0.9:
                    problems.append(f"{label}: layer spans cover {values.get('trace.coverage')}")
                problems += [f"{label}: bypassed {n} = {values.get(n)}"
                             for n in BYPASSED[workload] if values.get(n) != 0]
                problems += [f"{label}: exercised {n} = {values.get(n)}"
                             for n in EXERCISED[workload] if not values.get(n, 0) > 0]
        code, result, _ = _run(workload, 0, "--corrupt", cwd=root)
        if result is None or result["correct"] or result["failed"] < 1 or code == 0:
            problems.append(f"{workload} --corrupt: not counted as failed: {result}")

    bare = root / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(root / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = _run(names[0], 0, cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append(f"without the program: exit {code}, result {result}")

    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
