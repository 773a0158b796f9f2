"""Batch execution-time degradation model for virtualized workloads.

The virtualized banking VMs run batch tasks without user interaction,
so their QoS is expressed as the maximum tolerable increase in
execution time relative to the nominal 2GHz operating point
(Section III-B2): at least 2x is always tolerated in the partners'
production data centres, and up to 4x in the relaxed case.  Execution
time is inversely proportional to per-core throughput, so::

    degradation(f) = UIPS(f_nominal) / UIPS(f)

The bound is checked once per design point, by
:class:`~repro.sweep.context.ModelContext` against its own bound, and a
sweep's :meth:`~repro.sweep.result.SweepResult.qos_floor` reads the
floor for any other bound from the degradation column.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive
from repro.workloads.base import WorkloadCharacteristics


@dataclass(frozen=True)
class BatchDegradationModel:
    """Execution-time degradation of a batch (virtualized) workload."""

    workload: WorkloadCharacteristics

    def __post_init__(self) -> None:
        if not self.workload.is_virtualized:
            raise ValueError(
                f"{self.workload.name}: degradation modelling applies to "
                "virtualized workloads only"
            )

    def degradation(self, core_uips: float, core_uips_nominal: float) -> float:
        """Execution-time increase factor relative to the nominal point."""
        check_positive("core_uips", core_uips)
        check_positive("core_uips_nominal", core_uips_nominal)
        return core_uips_nominal / core_uips

