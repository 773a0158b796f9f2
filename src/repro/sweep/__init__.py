"""Batched sweep engine: shared model context + columnar results.

This package is the caching/batching substrate of the design-space
exploration:

* :mod:`repro.sweep.context` -- :class:`ModelContext`, the per-
  configuration model cache (models built once, per-frequency operating
  points memoized and shared across workloads).
* :mod:`repro.sweep.result` -- :class:`SweepResult`, the NumPy-backed
  columnar table of operating points, with :class:`OperatingPointRecord`
  as its row view and :class:`DseSummary` as the per-workload reduction.
* :mod:`repro.sweep.runner` -- :class:`SweepRunner`, the single-pass
  sweep executor.

:class:`~repro.core.dse.DesignSpaceExplorer` is the high-level facade
over this package; import from here to drive sweeps directly.  The
:mod:`repro.core` analyzers, the governor and fleet simulators, the
batch replay runner and the policy tuner all take a
:class:`ModelContext`, so every consumer of one configuration shares a
single evaluation path and memo.
"""

from repro.sweep.context import ModelContext
from repro.sweep.result import DseSummary, OperatingPointRecord, SweepResult
from repro.sweep.runner import SweepRunner

__all__ = [
    "ModelContext",
    "SweepResult",
    "SweepRunner",
    "OperatingPointRecord",
    "DseSummary",
]
