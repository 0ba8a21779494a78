"""The host block every result carries: CPU, cores, versions, calibration.

``calibration_s`` times a fixed loop of pure-Python and small-array numpy
work, the two kinds of work the simulator's engines do.  Dividing a
timing by it makes numbers taken on different hosts comparable.
"""

from __future__ import annotations

import os
import platform
import statistics
from pathlib import Path
from time import perf_counter
from typing import Dict, Union

import numpy as np


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibrate() -> float:
    """Seconds for one fixed pass of pure-Python plus small-array work."""
    t0 = perf_counter()
    acc = 0
    table: Dict[int, int] = {}
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    x = np.arange(64, dtype=np.float64)
    total = 0.0
    for i in range(4_000):
        y = np.sqrt(x * 1.5 + i)
        total += float(y[y > 4.0].sum())
    return perf_counter() - t0


def host_block(repeats: int = 3) -> Dict[str, Union[str, int, float]]:
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_s": statistics.median(calibrate() for _ in range(repeats)),
    }
