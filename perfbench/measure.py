"""Latency statistics, memory and environment records shared by the workloads."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource

import numpy as np

# Tail percentiles the report may choose from; the highest one with at least
# ten items beyond it is reported, so the tail never rests on fewer samples.
# Rungs sit far apart (100 to 1000 items all give p90), so runs of one
# workload land on the same rung even when their item counts differ.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail_percentile(count: int) -> float:
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct
    return TAIL_LADDER[-1]


def latency_summary(latencies_s: list[float]) -> dict:
    lat_ms = np.asarray(latencies_s) * 1e3
    pct = tail_percentile(len(lat_ms))
    return {
        "items_per_s": len(lat_ms) / float(lat_ms.sum() / 1e3),
        "item_p50_ms": float(np.percentile(lat_ms, 50)),
        "item_tail_ms": float(np.percentile(lat_ms, pct)),
        "tail_percentile": pct,
        "samples": len(lat_ms),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any pool child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _commit(root: str) -> str:
    """HEAD commit read from .git without starting git; 'unknown' outside a clone."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with open(os.path.join(root, ".git", ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _cache_sizes() -> dict:
    """L2/L3 sizes of cpu0 as the kernel reports them (empty where absent)."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def environment(root: str) -> dict:
    return {
        "commit": _commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": usable_cpus(),
        "start_method": multiprocessing.get_start_method(),
        "caches": _cache_sizes(),
    }
