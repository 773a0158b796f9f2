"""Core contribution: near-threshold server design-space exploration.

This package composes the substrates (technology, power, uarch, dram,
workloads, latency) into the study the paper presents:

* :mod:`repro.core.config` -- the server configuration (chip
  organisation, technology flavour, memory subsystem) and its builders.
* :mod:`repro.core.performance` -- the server performance model mapping
  (workload, core frequency) to UIPC/UIPS and memory traffic.
* :mod:`repro.core.efficiency` -- UIPS/Watt at the cores / SoC / server
  scopes (Figures 3 and 4) and the optimum operating points.
* :mod:`repro.core.qos` -- tail-latency QoS floors for scale-out
  applications (Figure 2) and degradation floors for virtualized VMs.
* :mod:`repro.core.dse` -- the design-space exploration engine tying
  performance, power, efficiency and QoS together (a facade over the
  batched sweep engine in :mod:`repro.sweep`).
* :mod:`repro.core.energy_proportionality` -- energy-proportionality
  metrics and the DDR4 vs LPDDR4 memory ablation (Section V-C).
* :mod:`repro.core.consolidation` -- workload co-allocation analysis for
  the public-cloud scenario (Section V-C).
* :mod:`repro.core.report` -- plain-text reporting of DSE results.

The four analyzers are views over one
:class:`~repro.sweep.context.ModelContext`, their only field, so only
:mod:`repro.core.config` builds performance or power models.  Since
:mod:`repro.sweep.context` imports this package, the analyzers import
the context for annotations only (or inside a function).
"""

from repro.core.config import ServerConfiguration, default_server
from repro.core.performance import ServerPerformanceModel, PerformancePoint
from repro.core.efficiency import (
    EfficiencyAnalyzer,
    EfficiencyPoint,
    EfficiencyScope,
)
from repro.core.qos import QosAnalyzer, QosResult, DegradationResult
from repro.core.dse import (
    DesignSpaceExplorer,
    OperatingPointRecord,
    DseSummary,
    SweepResult,
)
from repro.core.energy_proportionality import (
    EnergyProportionalityAnalyzer,
    ProportionalityReport,
)
from repro.core.consolidation import ConsolidationAnalyzer, ConsolidationPlan
from repro.core.report import render_operating_points, render_summary

__all__ = [
    "ServerConfiguration",
    "default_server",
    "ServerPerformanceModel",
    "PerformancePoint",
    "EfficiencyAnalyzer",
    "EfficiencyPoint",
    "EfficiencyScope",
    "QosAnalyzer",
    "QosResult",
    "DegradationResult",
    "DesignSpaceExplorer",
    "OperatingPointRecord",
    "DseSummary",
    "SweepResult",
    "EnergyProportionalityAnalyzer",
    "ProportionalityReport",
    "ConsolidationAnalyzer",
    "ConsolidationPlan",
    "render_operating_points",
    "render_summary",
]
