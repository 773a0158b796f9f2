"""Workload co-allocation analysis for the public-cloud scenario.

The paper's discussion notes that because the cores tolerate large
frequency reductions under the relaxed QoS of public clouds, servers can
be oversubscribed: "the optimal energy efficiency point could be
adjusted to accommodate more workloads on the same server".

This module provides that analysis for the virtualized VM classes:

* how many VMs fit on the server, limited by core count, memory
  capacity, and the degradation bound at a candidate frequency;
* the energy per unit of work (J per 10^9 user instructions) of each
  plan, so plans can be ranked;
* a search for the frequency that maximises work per joule while still
  honouring the degradation bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

from repro.core.qos import QosAnalyzer
from repro.workloads.base import WorkloadCharacteristics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.context import ModelContext


@dataclass(frozen=True)
class ConsolidationPlan:
    """One co-allocation plan at one operating point."""

    workload_name: str
    frequency_hz: float
    vm_count: int
    vms_per_core: int
    degradation: float
    server_power: float
    chip_uips: float
    memory_capacity_limited: bool

    @property
    def energy_per_giga_instructions(self) -> float:
        """Joules spent per 10^9 user instructions of VM work."""
        if self.chip_uips <= 0.0:
            return float("inf")
        return self.server_power / (self.chip_uips / 1.0e9)

    @property
    def throughput_per_vm(self) -> float:
        """UIPS available to each consolidated VM."""
        if self.vm_count == 0:
            return 0.0
        return self.chip_uips / self.vm_count


@dataclass(frozen=True)
class ConsolidationAnalyzer:
    """Sizes co-allocation plans under degradation and capacity limits.

    Plans read the context's memoized performance points and server
    power, and the degradation bound is the context's.
    """

    context: "ModelContext"

    def _memory_capacity_vms(self, workload: WorkloadCharacteristics) -> int:
        capacity = self.context.server_power_model.memory.total_capacity_bytes()
        # Reserve a slice of memory for the host OS images (one per cluster).
        reserved = 2 * 1024**3
        return int((capacity - reserved) // workload.memory_footprint_bytes)

    def plan(
        self,
        workload: WorkloadCharacteristics,
        frequency_hz: float,
        vms_per_core: int = 1,
    ) -> ConsolidationPlan:
        """Build the plan packing ``vms_per_core`` VMs onto every core."""
        if vms_per_core < 1:
            raise ValueError("vms_per_core must be >= 1")
        context = self.context
        point = context.performance(workload, frequency_hz)
        nominal = context.nominal_performance(workload)

        # Time multiplexing: each VM sees 1/vms_per_core of the core.
        degradation = (nominal.core_uips / point.core_uips) * vms_per_core

        requested_vms = context.configuration.core_count * vms_per_core
        capacity_vms = self._memory_capacity_vms(workload)
        vm_count = min(requested_vms, capacity_vms)

        return ConsolidationPlan(
            workload_name=workload.name,
            frequency_hz=frequency_hz,
            vm_count=vm_count,
            vms_per_core=vms_per_core,
            degradation=degradation,
            server_power=context.evaluate(workload, frequency_hz).server_power,
            chip_uips=point.chip_uips,
            memory_capacity_limited=capacity_vms < requested_vms,
        )

    def max_vms_per_core(
        self, workload: WorkloadCharacteristics, frequency_hz: float
    ) -> int:
        """Largest multiplexing degree honouring the degradation bound."""
        context = self.context
        point = context.performance(workload, frequency_hz)
        nominal = context.nominal_performance(workload)
        base_degradation = nominal.core_uips / point.core_uips
        bound = context.degradation_bound
        if base_degradation > bound:
            return 0
        return max(1, int(bound / base_degradation))

    def best_plan(
        self,
        workload: WorkloadCharacteristics,
        frequencies: Sequence[float] | None = None,
    ) -> ConsolidationPlan:
        """Plan with the lowest energy per unit of work that meets the bound."""
        candidates: List[ConsolidationPlan] = []
        for frequency in self.context.reachable_frequencies(frequencies):
            degree = self.max_vms_per_core(workload, frequency)
            if degree < 1:
                continue
            candidates.append(self.plan(workload, frequency, degree))
        if not candidates:
            raise ValueError(
                f"no operating point satisfies the {self.context.degradation_bound}x "
                f"degradation bound for {workload.name}"
            )
        return min(
            candidates, key=lambda plan: plan.energy_per_giga_instructions
        )

    def qos_floor(self, workload: WorkloadCharacteristics) -> float | None:
        """Frequency floor of the workload under the context's bound."""
        return QosAnalyzer(self.context).frequency_floor(
            workload, self.context.degradation_bound
        )
