"""Design-space exploration engine.

Ties the performance, power, efficiency and QoS models together: for
every (workload, frequency) pair in a sweep it produces a fully resolved
:class:`OperatingPointRecord`, and summarises the sweep into the results
the paper reports -- the QoS-feasible frequency range, the efficiency
optima at each scope, and the best QoS-respecting operating point.

The heavy lifting lives in :mod:`repro.sweep`: a shared
:class:`~repro.sweep.context.ModelContext` builds every model once per
configuration, and a :class:`~repro.sweep.runner.SweepRunner` batches
all design points in one pass, returning a columnar
:class:`~repro.sweep.result.SweepResult`.  This module is the
backward-compatible facade: ``explore`` returns the columnar table
(which still iterates as a sequence of records), and ``evaluate``
resolves single points through the same cached context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Sequence

from repro.core.config import ServerConfiguration
from repro.core.efficiency import EfficiencyAnalyzer
from repro.core.performance import ServerPerformanceModel
from repro.core.qos import QosAnalyzer

# Only repro.sweep.result is imported eagerly: it depends on nothing in
# repro.core beyond the already-initialised efficiency module.  Pulling
# context/runner here would close an import cycle (repro.sweep ->
# repro.core.config -> repro.core.__init__ -> this module -> repro.sweep)
# and break `import repro.sweep` as a first import, so those are
# imported lazily where needed.
from repro.sweep.result import DseSummary, OperatingPointRecord, SweepResult
from repro.workloads.banking_vm import DEGRADATION_LIMIT_RELAXED
from repro.workloads.base import WorkloadCharacteristics

__all__ = [
    "DesignSpaceExplorer",
    "OperatingPointRecord",
    "DseSummary",
    "SweepResult",
]


@dataclass(frozen=True)
class DesignSpaceExplorer:
    """Sweeps workloads across the frequency grid of a configuration."""

    configuration: ServerConfiguration = field(default_factory=ServerConfiguration)
    degradation_bound: float = DEGRADATION_LIMIT_RELAXED

    @cached_property
    def context(self) -> "ModelContext":
        """Shared model cache for this explorer's configuration."""
        from repro.sweep.context import ModelContext

        return ModelContext(
            self.configuration, degradation_bound=self.degradation_bound
        )

    @cached_property
    def runner(self) -> "SweepRunner":
        """Batched sweep runner over the shared context."""
        from repro.sweep.runner import SweepRunner

        return SweepRunner(context=self.context)

    @property
    def performance_model(self) -> ServerPerformanceModel:
        """Analytical performance model for this configuration."""
        return self.context.performance_model

    @cached_property
    def efficiency_analyzer(self) -> EfficiencyAnalyzer:
        """Efficiency analyzer over the shared context."""
        return EfficiencyAnalyzer(self.context)

    @cached_property
    def qos_analyzer(self) -> QosAnalyzer:
        """QoS analyzer over the shared context."""
        return QosAnalyzer(self.context)

    # -- record construction ------------------------------------------------------------

    def evaluate(
        self, workload: WorkloadCharacteristics, frequency_hz: float
    ) -> OperatingPointRecord:
        """Fully resolve one (workload, frequency) design point."""
        return self.context.evaluate(workload, frequency_hz)

    def explore(
        self,
        workloads: Iterable[WorkloadCharacteristics],
        frequencies: Sequence[float] | None = None,
    ) -> SweepResult:
        """Evaluate every (workload, reachable frequency) pair.

        Returns the columnar :class:`SweepResult`; it iterates as a
        sequence of :class:`OperatingPointRecord`, so record-list
        consumers keep working unchanged.
        """
        return self.runner.run(workloads, frequencies)

    # -- summaries -----------------------------------------------------------------------

    def summarize(
        self,
        workload: WorkloadCharacteristics,
        frequencies: Sequence[float] | None = None,
    ) -> DseSummary:
        """Summarise the sweep of one workload."""
        return self.runner.summarize([workload], frequencies)[0]

    def summarize_all(
        self,
        workloads: Iterable[WorkloadCharacteristics],
        frequencies: Sequence[float] | None = None,
    ) -> List[DseSummary]:
        """Summaries for a set of workloads.

        The whole set is swept in one batched pass -- each (workload,
        frequency) point is evaluated exactly once.
        """
        return self.runner.summarize(workloads, frequencies)

    # -- technology comparison -------------------------------------------------------------

    def compare_technologies(
        self,
        workload: WorkloadCharacteristics,
        configurations: Dict[str, ServerConfiguration],
        frequency_hz: float,
    ) -> Dict[str, OperatingPointRecord]:
        """Evaluate the same operating point across technology flavours.

        Flavours that cannot reach ``frequency_hz`` are omitted from the
        result; reachability is checked before any other model of the
        flavour is built, so unreachable flavours cost nothing beyond
        the voltage-frequency lookup.
        """
        from repro.sweep.context import ModelContext

        results = {}
        for label, configuration in configurations.items():
            context = ModelContext(
                configuration, degradation_bound=self.degradation_bound
            )
            if not context.is_reachable(frequency_hz):
                continue
            results[label] = context.evaluate(workload, frequency_hz)
        return results
