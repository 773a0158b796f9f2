"""QoS analysis: latency floors for scale-out apps, degradation for VMs.

Implements Section V-A of the paper:

* for each scale-out application, the 99th-percentile latency is scaled
  from its nominal-frequency baseline by the throughput ratio and
  normalised to the QoS limit (Figure 2); the *QoS frequency floor* is
  the lowest swept frequency that still meets the limit;
* for the virtualized VMs, the execution-time degradation relative to
  2GHz is bounded by 2x (strict) or 4x (relaxed), giving a frequency
  floor per bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

from repro.latency.tail import LatencyPoint
from repro.workloads.banking_vm import DEGRADATION_LIMIT_RELAXED
from repro.workloads.base import WorkloadCharacteristics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.context import ModelContext


@dataclass(frozen=True)
class QosResult:
    """Latency-vs-frequency curve and QoS floor of one scale-out workload."""

    workload_name: str
    points: tuple
    qos_floor_hz: float | None

    @property
    def meets_qos_at(self) -> List[float]:
        """Frequencies (Hz) at which the workload meets its QoS."""
        return [point.frequency_hz for point in self.points if point.meets_qos]


@dataclass(frozen=True)
class DegradationResult:
    """Degradation-vs-frequency curve and floors of one virtualized workload."""

    workload_name: str
    frequencies_hz: tuple
    degradations: tuple
    floor_strict_hz: float | None
    floor_relaxed_hz: float | None


@dataclass(frozen=True)
class QosAnalyzer:
    """Computes QoS floors over one model context's reachable grid.

    The performance points and the latency and degradation models are
    the context's memoized ones.
    """

    context: "ModelContext"

    def _grid(self, frequencies: Sequence[float] | None) -> List[float]:
        return sorted(self.context.reachable_frequencies(frequencies))

    # -- scale-out -------------------------------------------------------------------

    def latency_curve(
        self,
        workload: WorkloadCharacteristics,
        frequencies: Sequence[float] | None = None,
    ) -> QosResult:
        """Figure 2 data for one scale-out workload."""
        context = self.context
        model = context.latency_model(workload)
        nominal = context.nominal_performance(workload)
        points: List[LatencyPoint] = []
        for frequency in self._grid(frequencies):
            point = context.performance(workload, frequency)
            points.append(
                model.latency(frequency, point.core_uips, nominal.core_uips)
            )
        floor = next(
            (point.frequency_hz for point in points if point.meets_qos), None
        )
        return QosResult(
            workload_name=workload.name, points=tuple(points), qos_floor_hz=floor
        )

    def qos_frequency_floor(
        self,
        workload: WorkloadCharacteristics,
        frequencies: Sequence[float] | None = None,
    ) -> float | None:
        """Lowest frequency meeting the QoS, or None if none does."""
        return self.latency_curve(workload, frequencies).qos_floor_hz

    # -- virtualized ------------------------------------------------------------------

    def degradation_curve(
        self,
        workload: WorkloadCharacteristics,
        frequencies: Sequence[float] | None = None,
    ) -> DegradationResult:
        """Degradation data and frequency floors for one VM class."""
        context = self.context
        model = context.degradation_model(workload)
        nominal = context.nominal_performance(workload)
        grid = self._grid(frequencies)
        degradations = []
        for frequency in grid:
            point = context.performance(workload, frequency)
            degradations.append(
                model.degradation(point.core_uips, nominal.core_uips)
            )
        bounds = model.bounds()
        floor_strict = self._first_meeting(grid, degradations, bounds["strict"])
        floor_relaxed = self._first_meeting(grid, degradations, bounds["relaxed"])
        return DegradationResult(
            workload_name=workload.name,
            frequencies_hz=tuple(grid),
            degradations=tuple(degradations),
            floor_strict_hz=floor_strict,
            floor_relaxed_hz=floor_relaxed,
        )

    def degradation_frequency_floor(
        self,
        workload: WorkloadCharacteristics,
        bound: float = DEGRADATION_LIMIT_RELAXED,
        frequencies: Sequence[float] | None = None,
    ) -> float | None:
        """Lowest frequency keeping degradation within ``bound``."""
        context = self.context
        model = context.degradation_model(workload)
        nominal = context.nominal_performance(workload)
        for frequency in self._grid(frequencies):
            point = context.performance(workload, frequency)
            if model.meets_bound(point.core_uips, nominal.core_uips, bound):
                return frequency
        return None

    # -- combined ---------------------------------------------------------------------

    def frequency_floor(
        self,
        workload: WorkloadCharacteristics,
        degradation_bound: float = DEGRADATION_LIMIT_RELAXED,
        frequencies: Sequence[float] | None = None,
    ) -> float | None:
        """QoS floor appropriate for the workload's class."""
        if workload.is_scale_out:
            return self.qos_frequency_floor(workload, frequencies)
        return self.degradation_frequency_floor(
            workload, degradation_bound, frequencies
        )

    @staticmethod
    def _first_meeting(
        grid: Sequence[float], degradations: Sequence[float], bound: float
    ) -> float | None:
        for frequency, degradation in zip(grid, degradations):
            if degradation <= bound + 1e-9:
                return frequency
        return None
