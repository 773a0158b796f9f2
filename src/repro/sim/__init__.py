"""Cluster / chip simulation harness (Flexus + SMARTS substitute).

The paper measures UIPC with the Flexus full-system simulator using the
SMARTS statistical sampling methodology.  This package provides the
equivalent machinery for the synthetic workloads:

* :mod:`repro.sim.statistics` -- sample statistics, confidence
  intervals and UIPC/UIPS measurement records.
* :mod:`repro.sim.sampling` -- SMARTS-style systematic sampling with a
  target confidence level and error bound.
* :mod:`repro.sim.cluster` -- trace-driven simulation of one 4-core
  cluster (cores + L1s + crossbar + LLC + DRAM).
* :mod:`repro.sim.chip` -- composes the per-cluster results into the
  9-cluster, 36-core chip.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "statistics": ("SampleStatistics", "UipsMeasurement", "confidence_interval"),
        "sampling": ("SmartsSampler", "SamplingResult"),
        "cluster": ("ClusterSimulator", "ClusterSimConfig", "ClusterSimResult"),
        "chip": ("ChipSimulator", "ChipSimResult"),
    },
)

__all__ = [
    "SampleStatistics",
    "UipsMeasurement",
    "confidence_interval",
    "SmartsSampler",
    "SamplingResult",
    "ClusterSimulator",
    "ClusterSimConfig",
    "ClusterSimResult",
    "ChipSimulator",
    "ChipSimResult",
]
