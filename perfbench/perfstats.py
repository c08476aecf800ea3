"""Percentiles, failure accounting, metric names and run provenance."""

from __future__ import annotations

import math
import os
import platform
import re
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def percentile(values, q: float) -> float | None:
    """Nearest-rank ``q`` quantile (0 < q < 1), or ``None`` when unsupported.

    The sample supports the percentile only when at least
    :data:`MIN_SAMPLES_BEYOND` values rank above it, so p50 needs 20
    samples, p90 needs 100 and p99 needs 1000.
    """
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_SAMPLES_BEYOND:
        return None
    return ordered[rank - 1]


class LatencyLog:
    """Per-operation latencies in which a failure counts at the client timeout.

    A failed or refused operation is recorded at ``timeout_s``, so failing
    faster can never read as a latency gain.
    """

    def __init__(self, timeout_s: float) -> None:
        self.timeout_s = timeout_s
        self.latencies_s: list[float] = []
        self.attempted = 0
        self.failed = 0

    def record(self, seconds: float, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            seconds = self.timeout_s
        self.latencies_s.append(seconds)

    def extend(self, other: "LatencyLog") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies_s.extend(other.latencies_s)

    def percentile_ms(self, q: float) -> float | None:
        value = percentile(self.latencies_s, q)
        return None if value is None else value * 1e3

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def bad_metric_names(names) -> list[str]:
    return [name for name in names if not METRIC_NAME.match(name)]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_commit(root: Path) -> str:
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown (no git checkout)"


def cpu_ticks() -> list[int] | None:
    """The aggregate ``cpu`` line of ``/proc/stat`` (None off Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_ticks` readings; a run with a large share is not comparable."""
    if not before or not after or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran.

    Neighbours on a shared host can slow every process by tens of percent
    without any steal time showing; comparing the probe of two runs tells
    whether their wall times are comparable.
    """
    times = []
    for _ in range(5):
        started = time.perf_counter()
        sum(i * i for i in range(100_000))
        times.append((time.perf_counter() - started) * 1e3)
    return sorted(times)[2]


def provenance(root: Path, *, workload: str, seed: int, seconds: int, trace: bool,
               runs: int, samples: dict[str, int], steal: float | None,
               probe_ms: tuple[float, float]) -> dict:
    """Where and how a result was measured."""
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host_steal_share": steal, "host_probe_ms": probe_ms,
        "nproc": os.cpu_count() or 1, "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(), "python_executable": sys.executable,
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "git_commit": _git_commit(root), "runs": runs, "samples": samples,
    }
