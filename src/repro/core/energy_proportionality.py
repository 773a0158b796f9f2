"""Energy-proportionality analysis (Section V-C discussion).

The paper's discussion argues that once the cores run near threshold the
server is *energy bound* rather than power/thermal bound, and that the
next gains must come from making the uncore and the memory energy
proportional -- e.g. replacing DDR4 with mobile-DRAM-class (LPDDR4)
parts whose background power is far lower.

This module quantifies that argument:

* a proportionality metric for any power curve (how close power tracks
  delivered throughput, 1.0 = perfectly proportional);
* the share of server power that does not scale with the cores' DVFS
  point (uncore + memory background);
* a DDR4 vs LPDDR4 ablation showing how the server-level efficiency
  optimum moves when memory background power shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence

from repro.core.efficiency import EfficiencyAnalyzer, EfficiencyScope
from repro.power.dram_power import LPDDR4_4GBIT_X8, DramChipEnergyProfile
from repro.workloads.base import WorkloadCharacteristics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.context import ModelContext


@dataclass(frozen=True)
class ProportionalityReport:
    """Energy-proportionality characterisation of one configuration."""

    workload_name: str
    proportionality_index: float
    fixed_power_fraction_at_nominal: float
    fixed_power_fraction_at_floor: float
    server_optimum_hz: float

    @property
    def is_energy_proportional(self) -> bool:
        """True when power tracks throughput closely (index >= 0.8)."""
        return self.proportionality_index >= 0.8


@dataclass(frozen=True)
class EnergyProportionalityAnalyzer:
    """Energy-proportionality metrics and memory-technology ablations.

    Every power and throughput compared is the context's memoized
    operating-point record.
    """

    context: "ModelContext"

    # -- metrics ---------------------------------------------------------------------

    def proportionality_index(
        self,
        workload: WorkloadCharacteristics,
        frequencies: Sequence[float] | None = None,
    ) -> float:
        """Dynamic-range energy proportionality of the server.

        Defined as the relative power range divided by the relative
        throughput range over the DVFS sweep::

            index = (1 - P_min/P_peak) / (1 - T_min/T_peak)

        where the peak is the nominal operating point and the minimum is
        the lowest reachable frequency.  A perfectly proportional server
        (power tracks delivered throughput) scores 1.0; a server whose
        power barely drops when throughput collapses scores close to 0.
        This is the dynamic-range flavour of Barroso and Hoelzle's
        energy-proportionality argument the paper builds on.
        """
        context = self.context
        grid = context.reachable_frequencies(frequencies)
        if not grid:
            raise ValueError("no reachable frequencies to analyse")
        nominal = context.evaluate(
            workload, context.configuration.nominal_frequency_hz
        )
        floor = context.evaluate(workload, grid[0])
        power_range = 1.0 - floor.server_power / nominal.server_power
        throughput_range = 1.0 - floor.chip_uips / nominal.chip_uips
        if throughput_range <= 0.0:
            return 1.0
        return max(0.0, min(1.0, power_range / throughput_range))

    def fixed_power_fraction(
        self, workload: WorkloadCharacteristics, frequency_hz: float
    ) -> float:
        """Share of server power that does not scale with the cores."""
        record = self.context.evaluate(workload, frequency_hz)
        memory_dynamic = (
            record.memory_read_bandwidth
            * self.context.configuration.memory_chip.read_energy_per_byte
        )
        fixed = record.server_power - record.core_power - memory_dynamic
        return max(0.0, fixed / record.server_power)

    def report(
        self,
        workload: WorkloadCharacteristics,
        frequencies: Sequence[float] | None = None,
    ) -> ProportionalityReport:
        """Full proportionality report for one workload."""
        grid = self.context.reachable_frequencies(frequencies)
        optimum = EfficiencyAnalyzer(self.context).optimal_frequency(
            workload, EfficiencyScope.SERVER, grid
        ).frequency_hz
        return ProportionalityReport(
            workload_name=workload.name,
            proportionality_index=self.proportionality_index(workload, grid),
            fixed_power_fraction_at_nominal=self.fixed_power_fraction(
                workload, self.context.configuration.nominal_frequency_hz
            ),
            fixed_power_fraction_at_floor=self.fixed_power_fraction(workload, grid[0]),
            server_optimum_hz=optimum,
        )

    # -- memory technology ablation -------------------------------------------------------

    def memory_technology_comparison(
        self,
        workload: WorkloadCharacteristics,
        alternative_chip: DramChipEnergyProfile = LPDDR4_4GBIT_X8,
        frequencies: Sequence[float] | None = None,
    ) -> Dict[str, ProportionalityReport]:
        """Compare the baseline memory chip against ``alternative_chip``.

        Returns one report per memory technology; the paper's argument
        predicts the alternative (LPDDR4-like) chip raises the
        proportionality index and moves the server optimum to a lower
        core frequency.
        """
        # Function-local: repro.sweep.context imports repro.core, so a
        # module-level import would break `import repro.sweep` as a first
        # import (see repro.core.dse).
        from repro.sweep.context import ModelContext

        configuration = self.context.configuration
        baseline = self.report(workload, frequencies)
        alternative = EnergyProportionalityAnalyzer(
            ModelContext(
                configuration.with_memory_chip(alternative_chip),
                degradation_bound=self.context.degradation_bound,
            )
        ).report(workload, frequencies)
        return {
            configuration.memory_chip.name: baseline,
            alternative_chip.name: alternative,
        }
