"""Request-latency and QoS substrate.

Provides the latency-side models of the study:

* :mod:`repro.latency.queueing` -- M/M/1 and M/G/1 queueing models used
  to reason about loaded servers and consolidation headroom.
* :mod:`repro.latency.tail` -- the paper's tail-latency scaling rule:
  the 99th-percentile latency measured at the nominal operating point is
  scaled by the inverse of the per-core throughput ratio (Section V-A).
* :mod:`repro.latency.degradation` -- batch execution-time degradation
  model for the virtualized workloads (2x / 4x bounds).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "queueing": ("MM1Queue", "MG1Queue"),
        "tail": ("TailLatencyModel", "LatencyPoint"),
        "degradation": ("BatchDegradationModel",),
    },
)

__all__ = [
    "MM1Queue",
    "MG1Queue",
    "TailLatencyModel",
    "LatencyPoint",
    "BatchDegradationModel",
]
