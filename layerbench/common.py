"""Shared helpers: the checkout guard, host facts, CPU/RSS readings, stats.

Every entry point of the benchmark (``run.py`` and ``launcher.py``) calls
:func:`import_repro` before anything else, so a run can only ever measure
the ``src/repro`` of the checkout it sits in.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

#: the checkout root: the benchmark directory's parent
ROOT = Path(__file__).resolve().parent.parent
#: where runs leave launcher results, server logs and span dumps
OUT_DIR = ROOT / ".layerbench"

clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark cannot run or a correctness check failed hard."""


def import_repro():
    """Import ``repro`` from ``<checkout>/src``; refuse any other copy."""
    src = ROOT / "src"
    expected = (src / "repro").resolve()
    if not (expected / "__init__.py").is_file():
        raise BenchError(f"no package at {expected}: run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    found = Path(repro.__file__).resolve().parent
    if found != expected:
        raise BenchError(f"imported repro from {found}, expected {expected}")
    return repro


def subprocess_env() -> dict:
    """Environment for the server: unbuffered output, fixed string hashing.

    The server prints its address when it is ready, so its stdout must not
    sit in a buffer; a fixed hash seed keeps set iteration order, and with
    it the server's behaviour, the same in every round.
    """
    return {**os.environ, "PYTHONUNBUFFERED": "1", "PYTHONHASHSEED": "0"}


def host_facts() -> dict:
    """Facts recorded with every result, so noisy hosts are visible."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
    }


def cpu_ticks() -> tuple:
    """(all ticks, stolen ticks) of the host's CPUs so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return sum(fields[:8]), fields[7]


def steal_frac(before: tuple, after: tuple) -> float:
    """Share of CPU time the hypervisor took away between two readings."""
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    values = sorted(values)
    if not values:
        raise ValueError("median of no values")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return float(values[rank - 1])


def merge_checks(units) -> dict:
    """Each check's verdict over all units: passed only if it passed in all."""
    checks = {}
    for unit in units:
        for name, ok in unit["checks"].items():
            checks[name] = checks.get(name, True) and ok
    return checks


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    tmp.replace(path)
