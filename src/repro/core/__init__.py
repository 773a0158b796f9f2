"""Core contribution: the near-threshold server and its analyses.

This package composes the substrates (technology, power, uarch, dram,
workloads, latency) into the study the paper presents:

* :mod:`repro.core.config` -- the server configuration (chip
  organisation, technology flavour, memory subsystem) and its builders.
* :mod:`repro.core.performance` -- the server performance model mapping
  (workload, core frequency) to UIPC/UIPS and memory traffic.
* :mod:`repro.core.efficiency` -- the cores / SoC / server power scopes
  of UIPS/Watt (Figures 3 and 4).
* :mod:`repro.core.energy_proportionality` -- energy-proportionality
  metrics and the DDR4 vs LPDDR4 memory ablation (Section V-C).
* :mod:`repro.core.consolidation` -- workload co-allocation analysis for
  the public-cloud scenario (Section V-C).
* :mod:`repro.core.report` -- plain-text reporting of sweep results.

The QoS floors (Figure 2, the 2x/4x VM bounds) and the efficiency
optima (Figures 3-4) are reductions of a sweep in :mod:`repro.sweep`.
The two analyzers are views over one
:class:`~repro.sweep.context.ModelContext`, their only field, so only
:mod:`repro.core.config` builds performance or power models.  Since
:mod:`repro.sweep.context` imports this package, the analyzers import
the context for annotations only (or inside a function).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": ("ServerConfiguration", "default_server"),
        "performance": ("ServerPerformanceModel", "PerformancePoint"),
        "efficiency": ("EfficiencyScope",),
        "energy_proportionality": (
            "EnergyProportionalityAnalyzer",
            "ProportionalityReport",
        ),
        "consolidation": ("ConsolidationAnalyzer", "ConsolidationPlan"),
        "report": ("render_operating_points", "render_summary"),
    },
)

__all__ = [
    "ServerConfiguration",
    "default_server",
    "ServerPerformanceModel",
    "PerformancePoint",
    "EfficiencyScope",
    "EnergyProportionalityAnalyzer",
    "ProportionalityReport",
    "ConsolidationAnalyzer",
    "ConsolidationPlan",
    "render_operating_points",
    "render_summary",
]
