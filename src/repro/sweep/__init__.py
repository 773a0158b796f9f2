"""Batched sweep engine: shared model context + columnar results.

This package is the caching/batching substrate of the design-space
exploration, and the one place its results are reduced:

* :mod:`repro.sweep.context` -- :class:`ModelContext`, the per-
  configuration model cache (models built once, per-frequency operating
  points memoized and shared across workloads).  It resolves each
  design point's record, QoS verdict included, once.
* :mod:`repro.sweep.result` -- :class:`SweepResult`, the NumPy-backed
  columnar table of operating points, with :class:`OperatingPointRecord`
  as its row view.  Its reductions answer the paper's two questions
  per workload: the lowest frequency that keeps QoS
  (:meth:`SweepResult.qos_floor`, for any degradation bound) and the
  frequency of peak UIPS/W at each scope
  (:meth:`SweepResult.scope_optima`).
* :mod:`repro.sweep.runner` -- :class:`SweepRunner`, the single-pass
  sweep executor, and :meth:`SweepRunner.summarize_workload`, the
  per-workload :class:`DseSummary`.

The :mod:`repro.core` analyzers, the governor and fleet simulators, the
batch replay runner and the policy tuner all take a
:class:`ModelContext`, so every consumer of one configuration shares a
single evaluation path and memo.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "context": ("ModelContext",),
        "result": ("DseSummary", "OperatingPointRecord", "SweepResult"),
        "runner": ("SweepRunner",),
    },
)

__all__ = [
    "ModelContext",
    "SweepResult",
    "SweepRunner",
    "OperatingPointRecord",
    "DseSummary",
]
