"""Batched design-space sweep execution.

:class:`SweepRunner` evaluates every (workload, reachable frequency)
pair of a sweep in one pass over a shared :class:`ModelContext`, returns
the points as a columnar :class:`SweepResult`, and derives the
per-workload :class:`DseSummary` rows from that single table -- each
design point is evaluated exactly once per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

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

    def summarize(
        self,
        workloads: Iterable[WorkloadCharacteristics],
        frequencies: Sequence[float] | None = None,
    ) -> List[DseSummary]:
        """One :class:`DseSummary` per workload from a single-pass sweep."""
        workload_list = list(workloads)
        result = self.run(workload_list, frequencies)
        # Rows are workload-major over a common grid, so each workload
        # owns one equal contiguous chunk (robust to duplicate names).
        chunk = len(result) // len(workload_list) if workload_list else 0
        return [
            self._summarize_rows(
                result[index * chunk : (index + 1) * chunk], workload.name
            )
            for index, workload in enumerate(workload_list)
        ]

    @staticmethod
    def summarize_workload(result: SweepResult, workload_name: str) -> DseSummary:
        """Derive one workload's summary from an existing sweep table."""
        return SweepRunner._summarize_rows(
            result.filter(workload_name=workload_name), workload_name
        )

    @staticmethod
    def _summarize_rows(rows: SweepResult, workload_name: str) -> DseSummary:
        if len(rows) == 0:
            raise ValueError(f"sweep has no rows for workload {workload_name!r}")

        optima: Dict[str, float] = {}
        for scope in EfficiencyScope:
            best = rows.argmax(rows.efficiency(scope))
            optima[scope.value] = float(rows.column("frequency_hz")[best])

        meets = rows.column("meets_qos")
        qos_floor = rows.qos_floor()

        best_frequency = None
        best_efficiency = None
        if meets.any():
            qos_ok = rows[meets]
            server_efficiency = qos_ok.efficiency(EfficiencyScope.SERVER)
            index = qos_ok.argmax(server_efficiency)
            best_frequency = float(qos_ok.column("frequency_hz")[index])
            best_efficiency = float(server_efficiency[index])

        return DseSummary(
            workload_name=workload_name,
            qos_floor_hz=qos_floor,
            optimal_frequency_by_scope=optima,
            best_qos_respecting_frequency=best_frequency,
            best_qos_respecting_efficiency=best_efficiency,
        )
