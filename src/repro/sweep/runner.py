"""Batched design-space sweep execution.

:class:`SweepRunner` evaluates every (workload, reachable frequency)
pair of a sweep in one pass over a shared :class:`ModelContext` and
returns the points as a columnar :class:`SweepResult`;
:meth:`SweepRunner.summarize_workload` derives a workload's
:class:`DseSummary` from that one table -- each design point is
evaluated exactly once per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.config import ServerConfiguration
from repro.core.efficiency import EfficiencyScope
from repro.sweep.context import ModelContext
from repro.sweep.result import DseSummary, SweepResult
from repro.workloads.banking_vm import DEGRADATION_LIMIT_RELAXED
from repro.workloads.base import WorkloadCharacteristics


@dataclass(eq=False)
class SweepRunner:
    """Runs batched sweeps over a shared model context.

    Parameters
    ----------
    context:
        The shared :class:`ModelContext`; build one per configuration
        and reuse it across sweeps to amortise the model caches.
    """

    context: ModelContext = field(default_factory=ModelContext)

    @classmethod
    def for_configuration(
        cls,
        configuration: ServerConfiguration,
        degradation_bound: float = DEGRADATION_LIMIT_RELAXED,
    ) -> "SweepRunner":
        """Runner with a fresh context for ``configuration``."""
        return cls(
            context=ModelContext(configuration, degradation_bound=degradation_bound)
        )

    @property
    def configuration(self) -> ServerConfiguration:
        """The configuration being swept."""
        return self.context.configuration

    # -- sweep execution -----------------------------------------------------------------

    def run(
        self,
        workloads: Iterable[WorkloadCharacteristics],
        frequencies: Sequence[float] | None = None,
    ) -> SweepResult:
        """Evaluate every (workload, reachable frequency) pair.

        Rows are ordered workload-major in the iteration order of
        ``workloads``, then by grid order -- the same ordering as the
        legacy per-point exploration loop.
        """
        # Resolve the reachable grid once up front; the per-frequency
        # operating points it caches are shared by every workload.
        grid = self.context.reachable_frequencies(frequencies)
        records = [
            record
            for workload in workloads
            for record in self.context.evaluate_workload(workload, grid)
        ]
        return SweepResult.from_records(records)

    # -- summaries -----------------------------------------------------------------------

    @staticmethod
    def summarize_workload(result: SweepResult, workload_name: str) -> DseSummary:
        """Derive one workload's summary from an existing sweep table."""
        rows = result.filter(workload_name=workload_name)
        if len(rows) == 0:
            raise ValueError(f"sweep has no rows for workload {workload_name!r}")

        best_frequency = None
        best_efficiency = None
        meets = rows.column("meets_qos")
        if meets.any():
            qos_ok = rows[meets]
            server_efficiency = qos_ok.efficiency(EfficiencyScope.SERVER)
            index = qos_ok.argmax(server_efficiency)
            best_frequency = float(qos_ok.column("frequency_hz")[index])
            best_efficiency = float(server_efficiency[index])

        return DseSummary(
            workload_name=workload_name,
            qos_floor_hz=rows.qos_floor(),
            optimal_frequency_by_scope=rows.scope_optima(),
            best_qos_respecting_frequency=best_frequency,
            best_qos_respecting_efficiency=best_efficiency,
        )
