"""Energy-efficiency analysis at the cores / SoC / server scopes.

Efficiency is the paper's central metric: UIPS divided by the power of
the scope under consideration (Figures 3 and 4).

* **cores** scope -- only the A57 cores' power; because dynamic power
  falls roughly cubically with frequency while throughput falls at most
  linearly, efficiency rises monotonically as frequency drops until the
  minimum functional voltage is reached.
* **SoC** scope -- adds the fixed-voltage-domain uncore (LLCs, crossbars,
  peripherals); the constant floor pushes the optimum to ~1GHz.
* **server** scope -- adds the DRAM subsystem, whose background power is
  constant; the optimum moves further up, to ~1-1.2GHz.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Sequence

from repro.workloads.base import WorkloadCharacteristics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.context import ModelContext


class EfficiencyScope(enum.Enum):
    """Power scope over which UIPS/Watt is computed."""

    CORES = "cores"
    SOC = "soc"
    SERVER = "server"


SCOPE_POWER_COLUMN = {
    EfficiencyScope.CORES: "core_power",
    EfficiencyScope.SOC: "soc_power",
    EfficiencyScope.SERVER: "server_power",
}
"""The operating-point record field (and sweep column) of each scope's power."""


@dataclass(frozen=True)
class EfficiencyPoint:
    """Efficiency of one workload at one operating point and scope."""

    workload_name: str
    frequency_hz: float
    scope: EfficiencyScope
    chip_uips: float
    power_watts: float

    @property
    def efficiency(self) -> float:
        """UIPS per watt."""
        if self.power_watts <= 0.0:
            return 0.0
        return self.chip_uips / self.power_watts

    @property
    def efficiency_guips_per_watt(self) -> float:
        """Efficiency in units of 10^9 user instructions per second per watt."""
        return self.efficiency / 1.0e9


@dataclass(frozen=True)
class EfficiencyAnalyzer:
    """UIPS/Watt curves and optima, read from one model context.

    Every point is the context's memoized
    :meth:`~repro.sweep.context.ModelContext.evaluate` record, so an
    analyzer over a swept context recomputes nothing.
    """

    context: "ModelContext"

    # -- single points ----------------------------------------------------------------

    def power(
        self,
        workload: WorkloadCharacteristics,
        frequency_hz: float,
        scope: EfficiencyScope,
    ) -> float:
        """Power in watts of ``scope`` at the given operating point."""
        record = self.context.evaluate(workload, frequency_hz)
        return getattr(record, SCOPE_POWER_COLUMN[scope])

    def efficiency(
        self,
        workload: WorkloadCharacteristics,
        frequency_hz: float,
        scope: EfficiencyScope,
    ) -> EfficiencyPoint:
        """Efficiency point of ``workload`` at ``frequency_hz`` and ``scope``."""
        record = self.context.evaluate(workload, frequency_hz)
        return EfficiencyPoint(
            workload_name=workload.name,
            frequency_hz=frequency_hz,
            scope=scope,
            chip_uips=record.chip_uips,
            power_watts=getattr(record, SCOPE_POWER_COLUMN[scope]),
        )

    # -- curves and optima --------------------------------------------------------------

    def curve(
        self,
        workload: WorkloadCharacteristics,
        scope: EfficiencyScope,
        frequencies: Sequence[float] | None = None,
    ) -> List[EfficiencyPoint]:
        """Efficiency versus frequency over the reachable grid."""
        return [
            self.efficiency(workload, frequency, scope)
            for frequency in self.context.reachable_frequencies(frequencies)
        ]

    def optimal_frequency(
        self,
        workload: WorkloadCharacteristics,
        scope: EfficiencyScope,
        frequencies: Sequence[float] | None = None,
    ) -> EfficiencyPoint:
        """Operating point with the highest UIPS/Watt for the scope."""
        points = self.curve(workload, scope, frequencies)
        if not points:
            raise ValueError("no reachable frequency in the sweep grid")
        return max(points, key=lambda point: point.efficiency)

    def optimal_frequencies_all_scopes(
        self,
        workload: WorkloadCharacteristics,
        frequencies: Sequence[float] | None = None,
    ) -> dict:
        """Optimum operating point per scope, keyed by scope value."""
        return {
            scope.value: self.optimal_frequency(workload, scope, frequencies)
            for scope in EfficiencyScope
        }

    def reachable_frequencies(
        self, frequencies: Iterable[float] | None = None
    ) -> List[float]:
        """The subset of the grid this technology flavour can reach."""
        return list(self.context.reachable_frequencies(frequencies))
