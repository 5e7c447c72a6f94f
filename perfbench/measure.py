"""Percentiles, process clocks, memory, and the host fingerprint and probe."""

from __future__ import annotations

import math
import os
import platform
import re
import resource
import subprocess
import time
from typing import Any, Dict, Optional, Sequence


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q`` percentile."""
    cut = nearest_rank(values, q)
    return sum(1 for v in values if v > cut)


def monotonic() -> float:
    """A clock every process on the host shares (for cross-process
    set-up timing)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def process_age_s() -> Optional[float]:
    """Seconds since this process was created, from ``/proc`` (10 ms
    resolution), or None where ``/proc`` is missing."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, IndexError, ValueError, AttributeError):
        return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    """Current resident set size."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def host_probe_s() -> float:
    """A fixed pure-Python and NumPy loop that calls no ``repro`` code.

    Reported next to each run as a diagnostic only, so a slow-host
    period can be told apart from a regression.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += (i * i) % 7
    a = np.arange(96 * 96, dtype=np.float64).reshape(96, 96) / 9216.0
    for _ in range(400):
        a = np.tanh(a @ a.T) + 1e-3
    if acc < 0 or not np.isfinite(a).all():
        raise RuntimeError("host probe computed garbage")
    return time.perf_counter() - t0


def _blas_threads() -> Optional[int]:
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)",
                                         handle.read())))
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint(root: str) -> Dict[str, Any]:
    """nproc, CPU model, Python/NumPy/OpenBLAS versions, BLAS threads,
    git commit (when the checkout is a git repository)."""
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            match = re.search(r"model name\s*:\s*(.+)", handle.read())
        if match:
            cpu = match.group(1).strip()
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS") if k in os.environ},
        "git_commit": commit,
    }
