"""Summary statistics and process facts shared by the benchmark runner."""

from __future__ import annotations

import os
import platform
import resource
import statistics

TAIL_BEYOND = 10


def tail_index(n: int) -> int:
    """0-based rank of the tail order statistic among n sorted samples.

    The tail is the highest percentile with at least TAIL_BEYOND samples
    beyond it, but never below the median: with fewer than 2 * TAIL_BEYOND + 1
    samples it falls back to the upper median.
    """
    if n < 1:
        raise ValueError("no samples")
    return max(n - TAIL_BEYOND - 1, n // 2)


def summarize(seconds: list[float]) -> dict:
    """Median and tail of per-unit times, in milliseconds."""
    ordered = sorted(seconds)
    n = len(ordered)
    k = tail_index(n)
    return {
        "n": n,
        "p50_ms": statistics.median(ordered) * 1000,
        "tail_ms": ordered[k] * 1000,
        "tail_percentile": 100 * (k + 1) / n,
        "tail_beyond": n - k - 1,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
    }
