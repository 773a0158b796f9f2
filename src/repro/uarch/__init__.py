"""Microarchitecture models (Flexus timing-model substitute).

The paper's performance numbers come from Flexus timing models of
out-of-order cores, caches, on-chip protocol controllers, interconnects
and DRAM.  This package provides the equivalent building blocks:

* :mod:`repro.uarch.cache` -- set-associative write-back caches with LRU
  replacement and full statistics.
* :mod:`repro.uarch.hierarchy` -- the per-core L1I/L1D and per-cluster
  shared LLC arrangement of the paper's cluster (32KB 2-way L1s, 4MB
  16-way LLC).
* :mod:`repro.uarch.coherence` -- a MESI-style directory tracking sharers
  of LLC lines inside one cluster.
* :mod:`repro.uarch.interconnect` -- the cluster crossbar latency /
  contention model.
* :mod:`repro.uarch.branch` -- branch predictor accuracy / penalty model.
* :mod:`repro.uarch.rob` -- instruction-window (ROB) based memory-level
  parallelism model.
* :mod:`repro.uarch.core_model` -- the interval model of a 3-way OoO
  Cortex-A57-class core producing UIPC as a function of core frequency
  and memory-system latencies.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cache": ("CacheConfig", "CacheStats", "SetAssociativeCache"),
        "hierarchy": ("ClusterCacheHierarchy", "HierarchyConfig", "AccessResult"),
        "coherence": ("CoherenceDirectory", "CoherenceStats", "LineState"),
        "interconnect": ("CrossbarModel",),
        "branch": ("BranchPredictorModel",),
        "rob": ("ReorderBufferModel",),
        "core_model": ("CoreConfig", "CpiStack", "IntervalCoreModel", "UncoreLatencies"),
    },
)

__all__ = [
    "CacheConfig",
    "CacheStats",
    "SetAssociativeCache",
    "ClusterCacheHierarchy",
    "HierarchyConfig",
    "AccessResult",
    "CoherenceDirectory",
    "CoherenceStats",
    "LineState",
    "CrossbarModel",
    "BranchPredictorModel",
    "ReorderBufferModel",
    "CoreConfig",
    "CpiStack",
    "IntervalCoreModel",
    "UncoreLatencies",
]
