"""Shared plumbing: run context, result record, statistics helpers."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent

# Set-up is repeated this many times per run and its median reported, so
# one slow repetition on a shared machine does not move setup_s.
SETUP_REPEATS = 3


@contextlib.contextmanager
def workspace():
    """Import the program from this checkout and yield a private temp dir.

    Exits with status 2 when the checkout has no program sources.  Stores,
    inputs and the autotune calibration path live in the temp dir, under
    ``.perfbench_tmp/`` in the checkout, which is removed afterwards.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}; run from a checkout",
              file=sys.stderr)
        raise SystemExit(2)
    runs_dir = ROOT / ".perfbench_tmp"
    runs_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=runs_dir))
    # Never let a calibration file outside the run decide anything.
    os.environ["REPRO_AUTOTUNE_PATH"] = str(tmp / "autotune.json")
    sys.path.insert(0, str(src))
    try:
        import repro

        if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
            print(f"perfbench: imported repro from {repro.__file__}, not {src}",
                  file=sys.stderr)
            raise SystemExit(2)
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            runs_dir.rmdir()  # only when no other run is using it


@dataclass
class Context:
    seed: int
    seconds: float
    tmp: Path
    tracer: Optional[object] = None  # tracing.Tracer in the traced run


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    end_to_end: dict = field(default_factory=dict)  # name -> (value, unit)
    per_layer: dict = field(default_factory=dict)

    def e2e(self, name: str, value: float, unit: str) -> None:
        self.end_to_end[name] = (float(value), unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.per_layer[name] = (float(value), unit)


def timed_setup(make: Callable[[int], object]) -> tuple[object, float]:
    """Run ``make(repetition)`` :data:`SETUP_REPEATS` times; keep the last
    result and return it with the median wall time in seconds."""
    times, state = [], None
    for rep in range(SETUP_REPEATS):
        state = None  # release the previous repetition before timing the next
        gc.collect()
        t0 = time.perf_counter()
        state = make(rep)
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def merge_ops(per_op: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    """Sum traced ``(seconds, counts)`` pairs into one, e.g. a round's."""
    seconds, counts = defaultdict(float), defaultdict(float)
    for secs, cnt in per_op:
        for k, v in secs.items():
            seconds[k] += v
        for k, v in cnt.items():
            counts[k] += v
    return dict(seconds), dict(counts)


def layer_medians(result: Result, per_op: list[tuple[dict, dict]],
                  times: dict, counts: tuple) -> None:
    """Report medians over operations of traced self times and counts.

    ``per_op`` holds one ``(seconds, counts)`` pair per operation as
    returned by ``Tracer.take``; ``times`` maps a tracer layer to a metric
    name (reported in ms) and ``counts`` names tracer counts reported as
    they are.  A layer an operation never entered counts 0 for it.
    ``service.artifact_mb`` is the mean size of the artifacts an operation
    saved, as a median over operations.
    """
    if not per_op:
        return
    for layer, name in times.items():
        result.layer(name, median([secs.get(layer, 0.0) * 1e3 for secs, _ in per_op]),
                     "ms")
    for name in counts:
        result.layer(name, median([cnt.get(name, 0) for _, cnt in per_op]), "count")
    sizes = [cnt["service.artifact_bytes"] / cnt["service.artifacts_saved"] / 1e6
             for _, cnt in per_op if cnt.get("service.artifacts_saved")]
    if sizes:
        result.layer("service.artifact_mb", median(sizes), "MB")


def manifest() -> dict:
    """``BENCHMARK.json`` of this checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
