"""Shared model state for a design-space sweep.

The seed implementation rebuilt every model object on each property
access and recomputed the CPI stack up to six times per design point.
:class:`ModelContext` constructs the performance, power and QoS models
exactly once per :class:`~repro.core.config.ServerConfiguration` and
memoizes the quantities that are shared across the sweep:

* per-(workload, frequency) performance points and fully-resolved
  operating-point records;
* the reachable subset of each frequency grid.

Two memos outlive a context.  Records are memoized per (configuration,
degradation bound) *value* for the whole process, in
:func:`record_memo`: every context on an equal configuration and bound
reads the records another context resolved, so each (workload,
frequency) point of a configuration is resolved once per process.
Core operating points (the body-bias scan behind vdd and the core power
breakdown) are memoized per core-model value, in
:func:`~repro.technology.a57_model.operating_point_memo`, so
configurations that build an equal core model share their solves.
Reachability is one comparison against the model's maximum frequency
and solves nothing.  Each context still keeps its own view of the
records it requested (:attr:`ModelContext.evaluated_points`, the
``context.memo_*`` counters) and its own frequency tables.

Every cached value is produced by the same frozen model objects the
per-point path uses, so the records are numerically identical to the
legacy evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, Iterable, Sequence, Tuple

from repro import obs
from repro.core.config import ServerConfiguration
from repro.core.performance import PerformancePoint, ServerPerformanceModel
from repro.latency.degradation import BatchDegradationModel
from repro.latency.tail import TailLatencyModel
from repro.power.server import ServerPowerModel
from repro.sweep.result import OperatingPointRecord
from repro.technology.a57_model import (
    CoreOperatingPoint,
    CortexA57PowerModel,
    operating_point_memo,
)
from repro.workloads.banking_vm import DEGRADATION_LIMIT_RELAXED
from repro.workloads.base import WorkloadCharacteristics


@lru_cache(maxsize=64)
def record_memo(
    configuration: ServerConfiguration, degradation_bound: float
) -> Dict[Tuple[WorkloadCharacteristics, float], OperatingPointRecord]:
    """The process-wide ``(workload, frequency_hz) -> record`` memo of
    one (configuration, degradation bound) value.

    A record is a pure function of the four: the performance, power and
    core models are built from the frozen configuration, the latency and
    degradation models from the frozen workload, and the bound sets only
    a virtualized workload's ``meets_qos``.  So every context on an
    equal pair shares one memo, and a point is resolved once per
    process, however many contexts ask for it.  The memo is filled by
    :meth:`ModelContext.evaluate` with an unlocked check-then-set, so
    two threads may both resolve a missing point, and both store equal
    values.  Bounded to the 64 most recently used pairs.
    """
    return {}


@dataclass(eq=False)
class ModelContext:
    """Caches every model of one server configuration for a sweep.

    The context is cheap to construct (all models are built lazily),
    and cache entries are immutable once computed.
    """

    configuration: ServerConfiguration = field(default_factory=ServerConfiguration)
    degradation_bound: float = DEGRADATION_LIMIT_RELAXED

    def __post_init__(self) -> None:
        self._performance_points: Dict[
            Tuple[WorkloadCharacteristics, float], PerformancePoint
        ] = {}
        self._nominal_points: Dict[WorkloadCharacteristics, PerformancePoint] = {}
        self._records: Dict[
            Tuple[WorkloadCharacteristics, float], OperatingPointRecord
        ] = {}
        self._shared_records = record_memo(
            self.configuration, self.degradation_bound
        )
        self._latency_models: Dict[WorkloadCharacteristics, TailLatencyModel] = {}
        self._degradation_models: Dict[
            WorkloadCharacteristics, BatchDegradationModel
        ] = {}
        self._grids: Dict[Tuple[float, ...] | None, Tuple[float, ...]] = {}
        self._tables: Dict[
            Tuple[WorkloadCharacteristics, Tuple[float, ...] | None], object
        ] = {}

    @property
    def evaluated_points(self) -> int:
        """Number of distinct design points this context requested.

        A point counts whether this context resolved it or read it from
        the process-wide :func:`record_memo`.  Derived from the
        context's own record cache, so it stays correct under the
        kernels' bulk table builds: :meth:`frequency_table` resolves
        every grid point through :meth:`evaluate` and memoizes the
        finished table, so each point is counted exactly once no matter
        how many tables, replays or fleets consume it.
        """
        return len(self._records)

    # -- shared model instances ---------------------------------------------------------

    @cached_property
    def performance_model(self) -> ServerPerformanceModel:
        """The analytical performance model, built once."""
        return ServerPerformanceModel(self.configuration)

    @cached_property
    def core_power_model(self) -> CortexA57PowerModel:
        """The per-core technology/power model, built once."""
        return self.configuration.core_power_model()

    @cached_property
    def server_power_model(self) -> ServerPowerModel:
        """The whole-server power model, built once."""
        return self.configuration.server_power_model()

    # -- memoized per-frequency state ----------------------------------------------------

    @cached_property
    def _operating_points(self) -> Dict[Tuple[float, float], CoreOperatingPoint]:
        return operating_point_memo(self.core_power_model)

    def operating_point(
        self, frequency_hz: float, activity: float = 1.0
    ) -> CoreOperatingPoint:
        """Core operating point (vdd, bias, power) at a frequency.

        Memoized per core-model value for the whole process: the first
        context to ask for a (frequency, activity) point of an equal
        core model solves it, and every later one reads it back.
        """
        key = (frequency_hz, activity)
        point = self._operating_points.get(key)
        if point is None:
            obs.count("context.operating_point_solves")
            point = self.core_power_model.operating_point(frequency_hz, activity)
            self._operating_points[key] = point
        else:
            obs.count("context.operating_point_hits")
        return point

    def is_reachable(self, frequency_hz: float) -> bool:
        """Whether this flavour reaches ``frequency_hz``.

        One comparison against the core model's maximum frequency (see
        :meth:`CortexA57PowerModel.is_reachable`); nothing is solved.
        """
        return self.core_power_model.is_reachable(frequency_hz)

    def reachable_frequencies(
        self, frequencies: Iterable[float] | None = None
    ) -> Tuple[float, ...]:
        """The subset of the grid this technology flavour can reach."""
        key = None if frequencies is None else tuple(frequencies)
        grid = self._grids.get(key)
        if grid is None:
            candidates = key if key is not None else self.configuration.frequency_grid
            grid = tuple(f for f in candidates if self.is_reachable(f))
            self._grids[key] = grid
        return grid

    # -- memoized per-workload state -----------------------------------------------------

    def performance(
        self, workload: WorkloadCharacteristics, frequency_hz: float
    ) -> PerformancePoint:
        """Cached performance point (one CPI-stack computation per pair)."""
        key = (workload, frequency_hz)
        point = self._performance_points.get(key)
        if point is None:
            point = self.performance_model.performance(workload, frequency_hz)
            self._performance_points[key] = point
        return point

    def nominal_performance(
        self, workload: WorkloadCharacteristics
    ) -> PerformancePoint:
        """Cached performance at the configuration's nominal frequency."""
        point = self._nominal_points.get(workload)
        if point is None:
            point = self.performance(
                workload, self.configuration.nominal_frequency_hz
            )
            self._nominal_points[workload] = point
        return point

    def latency_model(self, workload: WorkloadCharacteristics) -> TailLatencyModel:
        """Cached tail-latency model of a scale-out workload."""
        model = self._latency_models.get(workload)
        if model is None:
            model = TailLatencyModel(workload)
            self._latency_models[workload] = model
        return model

    def degradation_model(
        self, workload: WorkloadCharacteristics
    ) -> BatchDegradationModel:
        """Cached degradation model of a virtualized workload."""
        model = self._degradation_models.get(workload)
        if model is None:
            model = BatchDegradationModel(workload)
            self._degradation_models[workload] = model
        return model

    # -- point evaluation ----------------------------------------------------------------

    def evaluate(
        self, workload: WorkloadCharacteristics, frequency_hz: float
    ) -> OperatingPointRecord:
        """Fully resolve one (workload, frequency) design point.

        Identical in value to the legacy per-point path.  A point this
        context has not requested yet is read from the process-wide
        :func:`record_memo`; only a point no context on an equal
        configuration and bound has resolved runs the model stack
        (``context.record_solves``), and every shared intermediate of
        it (operating point, CPI stack, traffic) is computed at most
        once per context.
        """
        key = (workload, frequency_hz)
        record = self._records.get(key)
        if record is not None:
            obs.count("context.memo_hits")
            return record
        obs.count("context.memo_misses")
        record = self._shared_records.get(key)
        if record is None:
            obs.count("context.record_solves")
            record = self._resolve(workload, frequency_hz)
            self._shared_records[key] = record
        self._records[key] = record
        return record

    def _resolve(
        self, workload: WorkloadCharacteristics, frequency_hz: float
    ) -> OperatingPointRecord:
        """Run the model stack for one design point."""
        operating_point = self.operating_point(
            frequency_hz, workload.activity_factor
        )
        point = self.performance(workload, frequency_hz)
        nominal = self.nominal_performance(workload)
        traffic = self.performance_model.traffic(workload, point)

        core_power = operating_point.total_power * self.configuration.core_count
        power = self.server_power_model.breakdown(
            frequency_hz,
            workload.activity_factor,
            memory_read_bandwidth=traffic.read_bandwidth,
            memory_write_bandwidth=traffic.write_bandwidth,
            llc_accesses_per_second=traffic.llc_accesses_per_second_per_cluster,
            crossbar_bytes_per_second=traffic.crossbar_bytes_per_second_per_cluster,
            operating_point=operating_point,
        )

        latency_seconds = None
        latency_normalized = None
        degradation = None
        if workload.is_scale_out:
            latency_point = self.latency_model(workload).latency(
                frequency_hz, point.core_uips, nominal.core_uips
            )
            latency_seconds = latency_point.latency_seconds
            latency_normalized = latency_point.normalized_to_qos
            meets_qos = latency_point.meets_qos
        else:
            degradation = self.degradation_model(workload).degradation(
                point.core_uips, nominal.core_uips
            )
            meets_qos = degradation <= self.degradation_bound + 1e-9

        return OperatingPointRecord(
            workload_name=workload.name,
            workload_class=workload.workload_class.value,
            frequency_hz=frequency_hz,
            vdd=operating_point.vdd,
            uipc=point.uipc,
            chip_uips=point.chip_uips,
            core_power=core_power,
            soc_power=power.soc.total,
            server_power=power.total,
            memory_read_bandwidth=traffic.read_bandwidth,
            memory_write_bandwidth=traffic.write_bandwidth,
            latency_seconds=latency_seconds,
            latency_normalized_to_qos=latency_normalized,
            degradation=degradation,
            meets_qos=meets_qos,
        )

    def evaluate_workload(
        self,
        workload: WorkloadCharacteristics,
        frequencies: Sequence[float] | None = None,
    ) -> list:
        """Records of one workload over the reachable grid, in grid order."""
        return [
            self.evaluate(workload, frequency)
            for frequency in self.reachable_frequencies(frequencies)
        ]

    def frequency_table(
        self,
        workload: WorkloadCharacteristics,
        frequencies: Sequence[float] | None = None,
    ):
        """The workload's reachable grid as a frozen columnar table.

        The replay kernels' working set: one
        :class:`~repro.kernels.table.FrequencyTable` per (workload,
        grid), memoized on the context.  Built strictly from
        :meth:`evaluate`, so the bulk build shares the record cache
        with every other consumer and :attr:`evaluated_points` counts
        each grid point exactly once -- repeated builds (or replays on
        the finished table) add nothing.
        """
        from repro.kernels.table import FrequencyTable

        key = (workload, None if frequencies is None else tuple(frequencies))
        table = self._tables.get(key)
        if table is None:
            with obs.trace(
                "context.table_build", workload=workload.name
            ) as span:
                table = FrequencyTable.from_context(self, workload, frequencies)
                span.set(grid_points=len(table.frequencies_hz))
            obs.count("context.table_builds")
            self._tables[key] = table
        else:
            obs.count("context.table_cache_hits")
        return table
