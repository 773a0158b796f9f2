"""Governor replay over a shared model context.

:class:`GovernorSimulator` steps a :class:`~repro.dvfs.trace.LoadTrace`
through a :class:`~repro.sweep.context.ModelContext`: at every step the
governor picks a grid frequency, the step runs on the memoized
operating point of that (workload, frequency) pair, and the per-step
power/energy/throughput/violation row lands in a columnar
:class:`~repro.dvfs.replay.ReplayResult`.

The energy semantics follow the paper's premise that frequency (with
its voltage) is the knob: the server draws the operating point's full
power while it is up, so a step's power depends on the chosen
frequency, not on the instantaneous load.  That is exactly why a
governor that rides the V/f curve down to the QoS floor saves energy
over pinning the nominal point -- and it makes the replay arithmetic
exact: a constant-load replay is the single-point context evaluation
repeated, and the ``performance`` governor is a per-step upper bound on
every other policy's energy (server power is monotone in frequency).

Every (workload, frequency) operating point is resolved through the
context's memoized :meth:`~repro.sweep.context.ModelContext.evaluate`,
so replaying five governors over a 288-step trace costs one sweep's
worth of model evaluations, shared with any other consumer of the same
context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

import numpy as np

from repro import obs
from repro.dvfs.governors import (
    GOVERNORS,
    Governor,
    LoadObservation,
    PlatformView,
    governor_by_name,
)
from repro.dvfs.replay import ReplayResult
from repro.dvfs.trace import LoadTrace
from repro.sweep.context import ModelContext
from repro.sweep.result import OperatingPointRecord
from repro.workloads.base import WorkloadCharacteristics


@dataclass(eq=False)
class GovernorSimulator:
    """Replays load traces under DVFS governors for one workload.

    Parameters
    ----------
    context:
        The shared model context; its memoized operating points are
        reused across governors, traces and any concurrent sweep.
    workload:
        The workload serving the offered load.
    frequencies:
        Optional explicit grid; ``None`` uses the configuration's
        reachable grid.
    """

    context: ModelContext
    workload: WorkloadCharacteristics
    frequencies: Sequence[float] | None = None
    _platform: PlatformView | None = field(default=None, init=False, repr=False)
    _records: Dict[float, OperatingPointRecord] = field(
        default_factory=dict, init=False, repr=False
    )

    # -- platform -----------------------------------------------------------------------

    @property
    def platform(self) -> PlatformView:
        """The governor-visible platform (built once, memoized)."""
        if self._platform is None:
            grid = self.context.reachable_frequencies(self.frequencies)
            if not grid:
                raise ValueError(
                    f"no reachable frequency for workload "
                    f"{self.workload.name!r}; cannot replay"
                )
            records = {
                frequency: self.context.evaluate(self.workload, frequency)
                for frequency in grid
            }
            self._records = records
            self._platform = PlatformView(
                frequencies=tuple(sorted(grid)),
                capacity_uips={
                    frequency: record.chip_uips
                    for frequency, record in records.items()
                },
                qos_ok={
                    frequency: record.meets_qos
                    for frequency, record in records.items()
                },
            )
        return self._platform

    def record(self, frequency_hz: float) -> OperatingPointRecord:
        """The memoized operating point backing a platform frequency."""
        self.platform  # ensure built
        try:
            return self._records[frequency_hz]
        except KeyError:
            raise ValueError(
                f"{frequency_hz} Hz is not on the replay grid "
                f"{self.platform.frequencies}"
            ) from None

    @property
    def table(self):
        """The kernels' frozen frequency table (context-memoized)."""
        return self.context.frequency_table(
            self.workload, frequencies=self.frequencies
        )

    # -- replay -------------------------------------------------------------------------

    def replay(
        self,
        trace: LoadTrace,
        governor: Governor | str,
        reference: bool = False,
    ) -> ReplayResult:
        """Run one governor over one trace, one row per step.

        Dispatches to the vectorized :mod:`repro.kernels` path whenever
        the governor's exact type has a kernel; ``reference=True``
        forces the original object-based step loop (the two paths are
        bit-for-bit identical -- the kernel equivalence tests pin it).
        Governors without a kernel (custom subclasses) always take the
        reference path.
        """
        if isinstance(governor, str):
            governor = governor_by_name(governor)
        with obs.trace(
            "dvfs.replay",
            governor=governor.name,
            trace=trace.name,
            steps=len(trace),
        ) as span:
            if not reference:
                from repro.kernels.governors import has_kernel
                from repro.kernels.replay import governor_replay_columns

                if has_kernel(governor):
                    span.set(kernel=True)
                    obs.count("dvfs.kernel_replays")
                    return ReplayResult(
                        governor_name=governor.name,
                        workload_name=self.workload.name,
                        trace_name=trace.name,
                        step_seconds=trace.step_seconds,
                        instructions_per_request=(
                            self.workload.instructions_per_request
                        ),
                        columns=governor_replay_columns(
                            self.table, governor, trace
                        ),
                    )
            span.set(kernel=False)
            obs.count("dvfs.reference_replays")
            return self._reference_replay(trace, governor)

    def _reference_replay(
        self, trace: LoadTrace, governor: Governor
    ) -> ReplayResult:
        """The original object-based step loop (the bit-parity anchor)."""
        platform = self.platform
        nominal_capacity = platform.nominal_capacity_uips

        steps = len(trace)
        frequency = np.empty(steps, dtype=np.float64)
        power = np.empty(steps, dtype=np.float64)
        demand = np.empty(steps, dtype=np.float64)
        capacity = np.empty(steps, dtype=np.float64)
        served = np.empty(steps, dtype=np.float64)
        qos_metric = np.empty(steps, dtype=np.float64)
        qos_ok = np.empty(steps, dtype=bool)
        demand_met = np.empty(steps, dtype=bool)

        previous = platform.nominal_frequency_hz
        for index, utilization in enumerate(trace.utilization):
            step_demand = utilization * nominal_capacity
            choice = governor.select(
                LoadObservation(
                    utilization=utilization,
                    demand_uips=step_demand,
                    previous_frequency_hz=previous,
                ),
                platform,
            )
            record = self.record(choice)
            frequency[index] = choice
            power[index] = record.server_power
            demand[index] = step_demand
            capacity[index] = record.chip_uips
            served[index] = min(step_demand, record.chip_uips)
            if record.degradation is not None:
                qos_metric[index] = record.degradation
            elif record.latency_normalized_to_qos is not None:
                qos_metric[index] = record.latency_normalized_to_qos
            else:
                qos_metric[index] = np.nan
            qos_ok[index] = record.meets_qos
            # The same coverage test the governors use, so a policy
            # that believes a frequency covers the load is never
            # contradicted by the violation accounting.
            demand_met[index] = platform.covers(choice, step_demand)
            previous = choice

        return ReplayResult(
            governor_name=governor.name,
            workload_name=self.workload.name,
            trace_name=trace.name,
            step_seconds=trace.step_seconds,
            instructions_per_request=self.workload.instructions_per_request,
            columns={
                "step": np.arange(steps, dtype=np.int64),
                "time_s": trace.times(),
                "utilization": trace.utilization_array.copy(),
                "frequency_hz": frequency,
                "power_w": power,
                "energy_j": power * trace.step_seconds,
                "demand_uips": demand,
                "capacity_uips": capacity,
                "served_uips": served,
                "qos_metric": qos_metric,
                "qos_ok": qos_ok,
                "demand_met": demand_met,
                "violation": ~(qos_ok & demand_met),
            },
        )

    def compare(
        self,
        trace: LoadTrace,
        governors: Iterable[Governor | str] | None = None,
        reference: bool = False,
    ) -> Dict[str, ReplayResult]:
        """Replay several governors on the same trace, keyed by name.

        Defaults to every registered governor in canonical order; the
        platform's operating points are shared across all replays.
        """
        chosen = list(governors) if governors is not None else list(GOVERNORS)
        results: Dict[str, ReplayResult] = {}
        for governor in chosen:
            result = self.replay(trace, governor, reference=reference)
            if result.governor_name in results:
                raise ValueError(
                    f"duplicate governor {result.governor_name!r} in comparison"
                )
            results[result.governor_name] = result
        return results
