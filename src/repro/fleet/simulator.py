"""Multi-server fleet replay over a shared model context.

:class:`FleetSimulator` steps a fleet-level
:class:`~repro.dvfs.trace.LoadTrace` through ``N`` servers: per step
the :class:`~repro.fleet.autoscaler.Autoscaler` (when enabled) decides
how many machines are awake, a
:class:`~repro.fleet.routing.RoutingPolicy` splits the offered load
into per-server shares, and every serving node's own governor picks a
frequency on the shared single-server platform -- so an arbitrarily
large fleet still costs one frequency grid's worth of memoized
:class:`~repro.sweep.context.ModelContext` evaluations.

Fleet-level QoS rides on the classical queueing models: each loaded
server is an M/M/1 (service-time CV of 1) or M/G/1 queue at its chosen
frequency, and the step's tail latency is the worst node's base
99th-percentile latency plus the queueing-delay tail (Marchal-style
two-moment correction).  The fleet trace's utilisation is a fraction
of the *fleet's* nominal throughput (``N`` server-equivalents), so the
same named traces that drive single-server governor replays drive
fleet replays unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro import obs
from repro.dvfs.governors import Governor, governor_by_name
from repro.dvfs.simulator import GovernorSimulator
from repro.dvfs.trace import LoadTrace
from repro.fleet.autoscaler import Autoscaler
from repro.fleet.disturbance import (
    NODE_CRASH,
    NODE_RESTORE,
    THERMAL_CAP,
    DisturbanceSchedule,
)
from repro.fleet.node import NodeState, NodeStep, ServerNode
from repro.fleet.result import NODE_COLUMNS, FleetResult
from repro.fleet.routing import RoutingPolicy, router_by_name
from repro.latency.queueing import MG1Queue, MM1Queue
from repro.sweep.context import ModelContext
from repro.utils.validation import check_flag, check_fleet
from repro.workloads.base import WorkloadCharacteristics

_MASS_TOLERANCE = 1e-9
"""Relative slack allowed between routed shares and the offered mass."""

_STABILITY_EPSILON = 1e-9
"""Utilisations within this of 1.0 count as a saturated queue."""


@dataclass(eq=False)
class FleetSimulator:
    """Replays fleet-level load traces over ``N`` governed servers.

    Parameters
    ----------
    context:
        The shared model context; its memoized operating points are
        reused across nodes, routings and any concurrent sweep.
    workload:
        The workload every server runs (a homogeneous fleet).
    fleet_size:
        Number of owned servers.
    governor:
        Per-server DVFS policy: a registered name (each node gets its
        own instance) or an explicit :class:`Governor`.
    autoscaler:
        Optional on/off scaling; ``None`` keeps every server awake.
    frequencies:
        Optional explicit grid; ``None`` uses the configuration's.
    off_power_w:
        Wall draw of a parked server (0 = unplugged).
    queueing:
        Compute the per-step M/M/1 / M/G/1 tail columns (only
        meaningful for scale-out workloads with a request size).
    """

    context: ModelContext
    workload: WorkloadCharacteristics
    fleet_size: int
    governor: Governor | str = "qos_tracker"
    autoscaler: Autoscaler | None = None
    frequencies: Sequence[float] | None = None
    off_power_w: float = 0.0
    queueing: bool = True
    _sim: GovernorSimulator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_fleet(self.fleet_size, self.off_power_w, self.autoscaler)
        check_flag("queueing", self.queueing)
        self._sim = GovernorSimulator(
            self.context, self.workload, frequencies=self.frequencies
        )

    # -- construction ------------------------------------------------------------------

    def _make_governor(self) -> Governor:
        if isinstance(self.governor, str):
            return governor_by_name(self.governor)
        return self.governor

    @property
    def governor_name(self) -> str:
        """The per-server policy's registry name."""
        return self._make_governor().name

    def _make_nodes(self, first_mass: float) -> List[ServerNode]:
        """Fresh nodes for one run; the initial active set is sized to
        the first step's load when autoscaling, else everyone is up."""
        if self.autoscaler is None:
            initially_serving = self.fleet_size
        else:
            initially_serving = self.autoscaler.desired_active(
                first_mass, self.fleet_size
            )
        return [
            ServerNode(
                node_id=index,
                governor=self._make_governor(),
                simulator=self._sim,
                serving=index < initially_serving,
            )
            for index in range(self.fleet_size)
        ]

    # -- queueing tail -----------------------------------------------------------------

    def _node_tail_latency(self, step: NodeStep) -> float:
        """Base p99 plus the queueing-delay tail of one loaded node.

        The operating-point record already carries the workload's
        99th-percentile latency at near-zero contention; the M/M/1 /
        M/G/1 layer adds the contention the paper's measurement setup
        deliberately excluded.  Returns ``inf`` for a saturated queue.
        """
        ipr = self.workload.instructions_per_request
        record = self._sim.record(step.frequency_hz)
        base = record.latency_seconds
        if base is None:
            return math.nan
        capacity = step.capacity_uips
        if capacity <= 0.0:
            return math.inf
        utilization = step.demand_uips / capacity
        if utilization >= 1.0 - _STABILITY_EPSILON:
            return math.inf
        service_time = ipr / capacity
        arrival_rate = step.demand_uips / ipr
        cv = self.workload.service_time_cv
        if cv == 1.0:
            response_p99 = MM1Queue(
                arrival_rate=arrival_rate, service_rate=capacity / ipr
            ).response_time_percentile(99.0)
        else:
            response_p99 = MG1Queue(
                arrival_rate=arrival_rate,
                mean_service_time=service_time,
                service_time_cv=cv,
            ).response_time_percentile(99.0, corrected=True)
        waiting_tail = max(0.0, response_p99 - service_time)
        return base + waiting_tail

    # -- replay ------------------------------------------------------------------------

    def run(
        self,
        trace: LoadTrace,
        routing: RoutingPolicy | str,
        reference: bool = False,
        disturbances: DisturbanceSchedule | None = None,
    ) -> FleetResult:
        """Run one routing policy over one trace, one fleet row per step.

        Whenever the (routing, governor, autoscaler) trio's exact types
        have kernels, the replay is a one-row batch of
        :class:`repro.kernels.batch.FleetReplayBatch`, reached through
        :func:`repro.kernels.fleet.fleet_replay_columns`;
        ``reference=True`` forces the original per-node object loop
        (the two paths are bit-for-bit identical -- the kernel
        equivalence tests pin it).  Custom policy subclasses always
        take the reference path.

        ``disturbances`` injects timed failures mid-replay; crashes,
        restores and thermal caps replay on both paths bit-for-bit.  The
        schedule is validated before the first step: events must fit
        the fleet and trace, no step may find every node crashed, and
        no cap may fall below the platform grid's bottom frequency.
        """
        if isinstance(routing, str):
            routing = router_by_name(routing)
        with obs.trace(
            "fleet.replay",
            routing=routing.name,
            governor=self.governor_name,
            fleet_size=self.fleet_size,
            trace=trace.name,
            steps=len(trace),
            disturbed=disturbances is not None,
        ) as span:
            return self._run(trace, routing, reference, disturbances, span)

    def _run(
        self,
        trace: LoadTrace,
        routing: RoutingPolicy,
        reference: bool,
        disturbances: DisturbanceSchedule | None,
        span,
    ) -> FleetResult:
        steps = len(trace)
        if disturbances is not None:
            disturbances.validate_for(self.fleet_size, steps)
            disturbances.check_caps(self._sim.table.min_frequency_hz)
        use_queueing = (
            self.queueing
            and self.workload.is_scale_out
            and self.workload.instructions_per_request > 0
        )
        if not reference:
            from repro.kernels import fleet as fleet_kernel

            governor = self._make_governor()
            if fleet_kernel.supports(routing, governor, self.autoscaler):
                span.set(kernel=True)
                obs.count("fleet.kernel_replays")
                fleet_columns, node_columns = fleet_kernel.fleet_replay_columns(
                    table=self._sim.table,
                    workload=self.workload,
                    fleet_size=self.fleet_size,
                    governor=governor,
                    routing=routing,
                    autoscaler=self.autoscaler,
                    off_power_w=self.off_power_w,
                    trace=trace,
                    use_queueing=use_queueing,
                    disturbances=disturbances,
                )
                return FleetResult(
                    routing_name=routing.name,
                    governor_name=self.governor_name,
                    workload_name=self.workload.name,
                    trace_name=trace.name,
                    fleet_size=self.fleet_size,
                    step_seconds=trace.step_seconds,
                    instructions_per_request=(
                        self.workload.instructions_per_request
                    ),
                    autoscaled=self.autoscaler is not None,
                    columns=fleet_columns,
                    node_columns=node_columns,
                    disturbance_events=(
                        disturbances.events if disturbances else ()
                    ),
                )
        span.set(kernel=False)
        obs.count("fleet.reference_replays")
        qos_limit = self.workload.qos_limit_seconds

        nodes = self._make_nodes(
            first_mass=trace.utilization[0] * self.fleet_size
        )

        fleet: Dict[str, np.ndarray] = {
            "step": np.arange(steps, dtype=np.int64),
            "time_s": trace.times(),
            "utilization": trace.utilization_array.copy(),
            "offered_uips": np.empty(steps, dtype=np.float64),
            "served_uips": np.empty(steps, dtype=np.float64),
            "total_power_w": np.empty(steps, dtype=np.float64),
            "energy_j": np.empty(steps, dtype=np.float64),
            "tail_latency_s": np.empty(steps, dtype=np.float64),
            "active_servers": np.empty(steps, dtype=np.int64),
            "serving_servers": np.empty(steps, dtype=np.int64),
            "booting_servers": np.empty(steps, dtype=np.int64),
            "used_servers": np.empty(steps, dtype=np.int64),
            "wake_events": np.empty(steps, dtype=np.int64),
            "node_violations": np.empty(steps, dtype=np.int64),
            "queue_ok": np.empty(steps, dtype=bool),
            "demand_met": np.empty(steps, dtype=bool),
            "violation": np.empty(steps, dtype=bool),
        }
        per_node: Dict[str, np.ndarray] = {
            name: np.empty(
                (self.fleet_size, steps),
                dtype=(
                    np.int8
                    if name == "state"
                    else bool
                    if name in ("qos_ok", "demand_met", "violation")
                    else np.float64
                ),
            )
            for name in NODE_COLUMNS
        }

        for index, utilization in enumerate(trace.utilization):
            mass = utilization * self.fleet_size

            for node in nodes:
                node.advance_boot()
            if disturbances is not None:
                # Restores and caps take effect before the scaling
                # decision (capacity that exists again, grids that just
                # shrank); crashes are applied after routing below, so
                # the crash step's routed share is genuinely lost.
                for event in disturbances.events_at(index, NODE_RESTORE):
                    node = nodes[event.node_id]
                    node.recover()
                    if self.autoscaler is None:
                        # A static fleet has no scaler to re-admit the
                        # node, so restoration powers it straight back
                        # on (no wake penalty: nothing decided to wake
                        # it, the machine simply came back).
                        node.wake(0)
                for event in disturbances.events_at(index, THERMAL_CAP):
                    nodes[event.node_id].apply_thermal_cap(
                        event.max_frequency_hz
                    )
            if self.autoscaler is not None:
                decision = self.autoscaler.scale(mass, nodes)
                woken = set(decision.woken)
                wake_energy = self.autoscaler.wake_energy_j
            else:
                woken = set()
                wake_energy = 0.0

            views = [node.view() for node in nodes]
            shares = routing.assign(mass, views)
            if len(shares) != len(nodes):
                raise ValueError(
                    f"routing {routing.name!r} returned {len(shares)} "
                    f"shares for {len(nodes)} nodes"
                )
            drift = abs(sum(shares) - mass)
            if drift > _MASS_TOLERANCE * max(1.0, mass):
                raise ValueError(
                    f"routing {routing.name!r} does not conserve load: "
                    f"assigned {sum(shares)} of {mass} server-equivalents"
                )
            if disturbances is not None:
                # Crashes land after routing already committed this
                # step's shares: the crashed node's share is dropped on
                # the floor (a violation) and the survivors only pick
                # it up at the next step's re-spread.
                for event in disturbances.events_at(index, NODE_CRASH):
                    nodes[event.node_id].crash()

            total_power = 0.0
            total_energy = 0.0
            total_served = 0.0
            total_offered = mass * self._sim.platform.nominal_capacity_uips
            used = 0
            node_violations = 0
            demand_met = True
            worst_tail = math.nan
            for node, share in zip(nodes, shares):
                node_step = node.step(
                    utilization=share,
                    step_seconds=trace.step_seconds,
                    off_power_w=self.off_power_w,
                    extra_energy_j=(
                        wake_energy if node.node_id in woken else 0.0
                    ),
                )
                cell = (node.node_id, index)
                per_node["state"][cell] = int(node_step.state)
                per_node["frequency_hz"][cell] = node_step.frequency_hz
                per_node["power_w"][cell] = node_step.power_w
                per_node["energy_j"][cell] = node_step.energy_j
                per_node["demand_uips"][cell] = node_step.demand_uips
                per_node["capacity_uips"][cell] = node_step.capacity_uips
                per_node["served_uips"][cell] = node_step.served_uips
                per_node["qos_metric"][cell] = node_step.qos_metric
                per_node["qos_ok"][cell] = node_step.qos_ok
                per_node["demand_met"][cell] = node_step.demand_met
                per_node["violation"][cell] = node_step.violation

                total_power += node_step.power_w
                total_energy += node_step.energy_j
                total_served += node_step.served_uips
                node_violations += int(node_step.violation)
                demand_met = demand_met and node_step.demand_met
                if node_step.state is NodeState.SERVING and share > 0.0:
                    used += 1
                    if use_queueing:
                        tail = self._node_tail_latency(node_step)
                        if math.isnan(worst_tail) or tail > worst_tail:
                            worst_tail = tail

            serving = sum(1 for n in nodes if n.state is NodeState.SERVING)
            booting = sum(1 for n in nodes if n.state is NodeState.BOOTING)
            fleet["offered_uips"][index] = total_offered
            fleet["served_uips"][index] = total_served
            fleet["total_power_w"][index] = total_power
            fleet["energy_j"][index] = total_energy
            fleet["tail_latency_s"][index] = worst_tail
            fleet["active_servers"][index] = serving + booting
            fleet["serving_servers"][index] = serving
            fleet["booting_servers"][index] = booting
            fleet["used_servers"][index] = used
            fleet["wake_events"][index] = len(woken)
            fleet["node_violations"][index] = node_violations
            fleet["queue_ok"][index] = (
                math.isnan(worst_tail) or worst_tail <= qos_limit + 1e-12
            )
            fleet["demand_met"][index] = demand_met
            fleet["violation"][index] = node_violations > 0

        return FleetResult(
            routing_name=routing.name,
            governor_name=self.governor_name,
            workload_name=self.workload.name,
            trace_name=trace.name,
            fleet_size=self.fleet_size,
            step_seconds=trace.step_seconds,
            instructions_per_request=self.workload.instructions_per_request,
            autoscaled=self.autoscaler is not None,
            columns=fleet,
            node_columns=per_node,
            disturbance_events=disturbances.events if disturbances else (),
        )

    def compare(
        self,
        trace: LoadTrace,
        routings: Iterable[RoutingPolicy | str] | None = None,
        reference: bool = False,
        disturbances: DisturbanceSchedule | None = None,
    ) -> Dict[str, FleetResult]:
        """Run several routing policies on the same trace, keyed by name.

        Defaults to every registered policy in canonical order; the
        platform's operating points are shared across all runs.
        """
        from repro.fleet.routing import ROUTERS

        chosen = list(routings) if routings is not None else list(ROUTERS)
        results: Dict[str, FleetResult] = {}
        for routing in chosen:
            result = self.run(
                trace, routing, reference=reference, disturbances=disturbances
            )
            if result.routing_name in results:
                raise ValueError(
                    f"duplicate routing {result.routing_name!r} in comparison"
                )
            results[result.routing_name] = result
        return results
