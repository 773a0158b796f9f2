"""Per-server state and stepping inside a fleet simulation.

A :class:`ServerNode` owns one governor instance and the mutable state
a multi-server replay needs per machine: the power state (off, booting,
serving), the boot countdown, and the frequency it ran during the
previous step.  The actual model numbers come from the fleet's shared
:class:`~repro.dvfs.simulator.GovernorSimulator` platform, so a
thousand-node fleet still costs one grid's worth of memoized
:class:`~repro.sweep.context.ModelContext` evaluations.

The serving-step arithmetic is deliberately identical to
:meth:`GovernorSimulator.replay`: same observation, same record lookup,
same served/violation accounting.  That is what makes the fleet layer
testable -- a 1-server always-on fleet reproduces the single-server
replay bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from typing import Optional

from repro.dvfs.governors import Governor, LoadObservation, PlatformView
from repro.dvfs.simulator import GovernorSimulator
from repro.fleet.routing import NodeView


class NodeState(enum.IntEnum):
    """Power state of one server (ordered: off < booting < serving)."""

    OFF = 0
    BOOTING = 1
    SERVING = 2


@dataclass(frozen=True)
class NodeStep:
    """Everything one node did during one step (one per-node table row)."""

    state: NodeState
    frequency_hz: float
    power_w: float
    energy_j: float
    demand_uips: float
    capacity_uips: float
    served_uips: float
    qos_metric: float
    qos_ok: bool
    demand_met: bool
    violation: bool


@dataclass(eq=False)
class ServerNode:
    """One server of the fleet: a governor plus its power/boot state.

    Parameters
    ----------
    node_id:
        Stable index inside the fleet (routing and scaling order).
    governor:
        This node's own policy instance (stateless, but the *previous
        frequency* it feeds on is tracked per node).
    simulator:
        The fleet's shared single-server simulator; supplies the
        platform view and the memoized operating-point records.
    serving:
        Initial power state (the autoscaler's initial active set).
    """

    node_id: int
    governor: Governor
    simulator: GovernorSimulator
    serving: bool = True
    state: NodeState = field(init=False)
    boot_remaining: int = field(default=0, init=False)
    previous_frequency_hz: float = field(init=False)
    failed: bool = field(default=False, init=False)
    _capped_platform: Optional[PlatformView] = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.state = NodeState.SERVING if self.serving else NodeState.OFF
        # Matches GovernorSimulator.replay: the first observation sees
        # the nominal frequency as the previous one.
        self.previous_frequency_hz = (
            self.simulator.platform.nominal_frequency_hz
        )

    # -- views -----------------------------------------------------------------------

    @property
    def platform(self) -> PlatformView:
        """The grid this node's governor may pick from.

        The fleet's shared view normally; a shrunk view while a thermal
        cap is applied.  The *demand reference* is deliberately not
        this view: offered load is always expressed against the full
        platform's nominal throughput, so a capped node keeps receiving
        its true share and violates when it cannot serve it.
        """
        if self._capped_platform is not None:
            return self._capped_platform
        return self.simulator.platform

    @property
    def nominal_capacity_uips(self) -> float:
        """Throughput at the nominal frequency (the demand reference)."""
        return self.simulator.platform.nominal_capacity_uips

    @property
    def previous_capacity_uips(self) -> float:
        """Throughput at the frequency this node ran during the last step."""
        return self.platform.capacity_uips[self.previous_frequency_hz]

    def view(self) -> NodeView:
        """Frozen snapshot for the routing policies."""
        return NodeView(
            node_id=self.node_id,
            serving=self.state is NodeState.SERVING,
            booting=self.state is NodeState.BOOTING,
            nominal_capacity_uips=self.nominal_capacity_uips,
            previous_capacity_uips=self.previous_capacity_uips,
        )

    # -- power-state transitions -------------------------------------------------------

    def wake(self, boot_steps: int) -> None:
        """Power the node on; it serves after ``boot_steps`` full steps."""
        if self.state is not NodeState.OFF:
            raise ValueError(f"node {self.node_id} is not off; cannot wake")
        if self.failed:
            raise ValueError(
                f"node {self.node_id} has crashed; restore it before waking"
            )
        if boot_steps <= 0:
            self.state = NodeState.SERVING
        else:
            self.state = NodeState.BOOTING
            self.boot_remaining = boot_steps
        # A woken machine has no DVFS history; it restarts from the
        # nominal frequency like the first replay step (the capped top
        # while a thermal cap is in force).
        self.previous_frequency_hz = self.platform.nominal_frequency_hz

    def shut_down(self) -> None:
        """Power the node off immediately."""
        if self.state is NodeState.OFF:
            raise ValueError(f"node {self.node_id} is already off")
        self.state = NodeState.OFF
        self.boot_remaining = 0

    def advance_boot(self) -> None:
        """Progress a booting node by one step (may start serving)."""
        if self.state is NodeState.BOOTING:
            self.boot_remaining -= 1
            if self.boot_remaining <= 0:
                self.state = NodeState.SERVING
                self.boot_remaining = 0

    # -- disturbances ----------------------------------------------------------------

    def crash(self) -> None:
        """Fail the node hard: immediately OFF and ineligible to wake.

        Idempotent within a step (crashing a crashed node is a no-op)
        so the simulator can apply the event unconditionally after
        routing has already assigned this node its doomed share.
        """
        self.failed = True
        self.state = NodeState.OFF
        self.boot_remaining = 0

    def recover(self) -> None:
        """Clear a crash so the node may be woken (or serve) again."""
        if not self.failed:
            raise ValueError(
                f"node {self.node_id} has not crashed; nothing to recover"
            )
        self.failed = False

    def apply_thermal_cap(self, max_frequency_hz: float) -> None:
        """Shrink this node's reachable grid to ``<= max_frequency_hz``.

        The capped view keeps the shared platform's capacity and QoS
        maps (every capped frequency is on the full grid, so record
        lookups still hit the memoized context).  The previous
        frequency is clamped onto the capped grid so stateful governors
        keep a valid anchor.
        """
        full = self.simulator.platform
        capped_frequencies = tuple(
            frequency
            for frequency in full.frequencies
            if frequency <= max_frequency_hz
        )
        if not capped_frequencies:
            raise ValueError(
                f"thermal cap at {max_frequency_hz} Hz leaves node "
                f"{self.node_id} no reachable frequency (grid bottom is "
                f"{full.min_frequency_hz} Hz)"
            )
        self._capped_platform = PlatformView(
            frequencies=capped_frequencies,
            capacity_uips=full.capacity_uips,
            qos_ok=full.qos_ok,
        )
        if self.previous_frequency_hz > capped_frequencies[-1]:
            self.previous_frequency_hz = capped_frequencies[-1]

    # -- stepping --------------------------------------------------------------------

    def step(
        self,
        utilization: float,
        step_seconds: float,
        off_power_w: float,
        extra_energy_j: float = 0.0,
    ) -> NodeStep:
        """Run one trace step at this node's assigned utilisation share.

        A serving node replicates the single-server replay arithmetic
        exactly.  A booting node draws the platform's lowest-V/f power
        but serves nothing; an off node draws ``off_power_w``.  Load
        routed to a node that cannot serve it is dropped and recorded
        as a violation.  ``extra_energy_j`` folds one-shot penalties
        (the wake energy) into this node's energy so the fleet total is
        always the exact sum of its nodes.
        """
        platform = self.platform
        demand = utilization * self.nominal_capacity_uips

        if self.state is NodeState.SERVING:
            choice = self.governor.select(
                LoadObservation(
                    utilization=utilization,
                    demand_uips=demand,
                    previous_frequency_hz=self.previous_frequency_hz,
                ),
                platform,
            )
            record = self.simulator.record(choice)
            self.previous_frequency_hz = choice
            if record.degradation is not None:
                qos_metric = record.degradation
            elif record.latency_normalized_to_qos is not None:
                qos_metric = record.latency_normalized_to_qos
            else:
                qos_metric = math.nan
            qos_ok = record.meets_qos
            demand_met = platform.covers(choice, demand)
            power = record.server_power
            return NodeStep(
                state=self.state,
                frequency_hz=choice,
                power_w=power,
                energy_j=power * step_seconds + extra_energy_j,
                demand_uips=demand,
                capacity_uips=record.chip_uips,
                served_uips=min(demand, record.chip_uips),
                qos_metric=qos_metric,
                qos_ok=qos_ok,
                demand_met=demand_met,
                violation=not (qos_ok and demand_met),
            )

        if self.state is NodeState.BOOTING:
            # Boots at the lowest reachable V/f point; serves nothing.
            power = self.simulator.record(
                platform.min_frequency_hz
            ).server_power
        else:
            power = off_power_w
        return NodeStep(
            state=self.state,
            frequency_hz=math.nan,
            power_w=power,
            energy_j=power * step_seconds + extra_energy_j,
            demand_uips=demand,
            capacity_uips=0.0,
            served_uips=0.0,
            qos_metric=math.nan,
            qos_ok=True,
            demand_met=demand <= 0.0,
            violation=demand > 0.0,
        )
