"""Host-speed calibration: a fixed piece of work timed next to the program.

The benchmark runs on shared hosts whose speed swings by up to ~2x,
for seconds to minutes at a time, while the process keeps its core
(CPU time equals wall time and steal stays near zero).  A wall time
alone then measures the neighbours as much as the program.

:func:`calibrate` times a fixed kernel of interpreter work and
small-array numpy calls -- the mix the program itself spends its time
in -- that no change to the program can alter.  The benchmark runs it
between passes and scales each pass's times by
``REFERENCE_S / calibration``: every time it reports is the time the
work would take on a host where the kernel takes ``REFERENCE_S``.  A
slow period slows the pass and the calibrations around it alike, so the
scaled time stays put; a faster program lowers it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Roughly the kernel's wall on a quiet 2-vCPU Xeon host (Python 3.11,
# numpy 2.4); a fixed constant, so scaled times of two commits compare
# directly.
REFERENCE_S = 2.0e-3
REPEATS = 5

_VALUES = np.random.default_rng(0).random(4096)


def _kernel() -> float:
    total = 0.0
    for index in range(200):
        column = _VALUES[index % 64 :: 64]
        total += float(np.sum(np.sqrt(column * column + 1.0)))
        total += int(np.minimum(column, 0.5).argmax())
        table = {}
        for key in range(24):
            table[key] = key * 1.5 + total
        total += sum(table.values()) * 1e-9
    return total + float(np.cumsum(np.sort(_VALUES))[-1])


def calibrate() -> float:
    """Median wall of ``REPEATS`` runs of the kernel, in seconds."""
    walls = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        _kernel()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def scale(*calibrations: float) -> float:
    """Factor that turns a wall measured next to ``calibrations`` into
    a time at the reference host speed."""
    return REFERENCE_S / statistics.fmean(calibrations)
