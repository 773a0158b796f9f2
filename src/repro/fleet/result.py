"""Columnar fleet-replay results.

One fleet replay produces a fleet-level row per trace step plus one
per-node table; :class:`FleetResult` stores both as NumPy columns (the
:class:`~repro.sweep.result.SweepResult` shape) so energy totals,
server residencies and violation counts are vectorised reductions.
:meth:`summary` exposes the per-routing scalars the ``fleet_replay``
analysis and the golden fixtures pin; the bulky fleet-level step table
rides under the analysis' private ``_steps`` key by convention, as the
plain lists of :meth:`~FleetResult.to_columns` (one per column).

Two ledger invariants the property tests lock down:

* the fleet ``energy_j`` column is, step by step, exactly the sum of
  the per-node ``energy_j`` columns (wake penalties and idle draws are
  charged to nodes, never to a fleet-level slush fund);
* a 1-server always-on fleet's node table is bit-identical to the
  single-server :class:`~repro.dvfs.replay.ReplayResult` columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.fleet.disturbance import DisturbanceEvent

_FLEET_FLOAT_COLUMNS = (
    "time_s",
    "utilization",
    "offered_uips",
    "served_uips",
    "total_power_w",
    "energy_j",
)
# Tail latency: NaN when no loaded serving node (or a VM workload with
# no request model); +inf when some loaded node's queue is saturated.
_FLEET_OPTIONAL_COLUMNS = ("tail_latency_s",)
_FLEET_INT_COLUMNS = (
    "active_servers",
    "serving_servers",
    "booting_servers",
    "used_servers",
    "wake_events",
    "node_violations",
)
_FLEET_BOOL_COLUMNS = ("queue_ok", "demand_met", "violation")

FLEET_COLUMNS = (
    ("step",)
    + _FLEET_FLOAT_COLUMNS
    + _FLEET_OPTIONAL_COLUMNS
    + _FLEET_INT_COLUMNS
    + _FLEET_BOOL_COLUMNS
)

NODE_COLUMNS = (
    "state",
    "frequency_hz",
    "power_w",
    "energy_j",
    "demand_uips",
    "capacity_uips",
    "served_uips",
    "qos_metric",
    "qos_ok",
    "demand_met",
    "violation",
)
"""Per-node columns; the float/bool subset mirrors the replay columns."""


class FleetResult:
    """Per-step tables of one routing policy over one fleet replay."""

    def __init__(
        self,
        routing_name: str,
        governor_name: str,
        workload_name: str,
        trace_name: str,
        fleet_size: int,
        step_seconds: float,
        instructions_per_request: float,
        autoscaled: bool,
        columns: Dict[str, np.ndarray],
        node_columns: Dict[int, Dict[str, np.ndarray]],
        disturbance_events: Tuple["DisturbanceEvent", ...] = (),
    ):
        missing = [name for name in FLEET_COLUMNS if name not in columns]
        if missing:
            raise ValueError(f"missing fleet columns: {missing}")
        lengths = {name: len(columns[name]) for name in FLEET_COLUMNS}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"fleet columns have unequal lengths: {lengths}")
        if len(node_columns) != fleet_size:
            raise ValueError(
                f"expected node tables for {fleet_size} nodes, "
                f"got {sorted(node_columns)}"
            )
        steps = len(columns["step"])
        for node_id, table in node_columns.items():
            node_missing = [name for name in NODE_COLUMNS if name not in table]
            if node_missing:
                raise ValueError(
                    f"node {node_id}: missing columns {node_missing}"
                )
            bad = [
                name for name in NODE_COLUMNS if len(table[name]) != steps
            ]
            if bad:
                raise ValueError(
                    f"node {node_id}: columns {bad} do not match "
                    f"{steps} fleet steps"
                )
        self.routing_name = routing_name
        self.governor_name = governor_name
        self.workload_name = workload_name
        self.trace_name = trace_name
        self.fleet_size = fleet_size
        self.step_seconds = step_seconds
        self.instructions_per_request = instructions_per_request
        self.autoscaled = autoscaled
        self.disturbance_events = tuple(disturbance_events)
        self._columns = {name: columns[name] for name in FLEET_COLUMNS}
        self._node_columns = {
            node_id: {name: table[name] for name in NODE_COLUMNS}
            for node_id, table in sorted(node_columns.items())
        }

    # -- access -----------------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """The backing fleet-level array of ``name`` (zero-copy)."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"unknown fleet column {name!r}; available: {FLEET_COLUMNS}"
            ) from None

    def node_column(self, node_id: int, name: str) -> np.ndarray:
        """The backing array of one node's column (zero-copy)."""
        try:
            table = self._node_columns[node_id]
        except KeyError:
            raise KeyError(
                f"unknown node {node_id}; fleet has nodes "
                f"{sorted(self._node_columns)}"
            ) from None
        try:
            return table[name]
        except KeyError:
            raise KeyError(
                f"unknown node column {name!r}; available: {NODE_COLUMNS}"
            ) from None

    @property
    def node_ids(self) -> List[int]:
        """Node identifiers, ascending."""
        return list(self._node_columns)

    def __len__(self) -> int:
        return len(self._columns["step"])

    @property
    def duration_seconds(self) -> float:
        """Total replay duration."""
        return self.step_seconds * len(self)

    def to_columns(self) -> Dict[str, list]:
        """Fleet-level steps as plain JSON-able lists, one per ``FLEET_COLUMNS``.

        Each column is one ``ndarray.tolist()``: the same Python ints,
        floats and bools the backing arrays hold.  Non-finite tail
        latencies become ``None`` (undefined) or the string
        ``"saturated"`` (an overloaded queue), keeping the columns
        strict JSON.
        """
        columns = {name: self._columns[name].tolist() for name in FLEET_COLUMNS}
        tails = self._columns["tail_latency_s"]
        for index in np.flatnonzero(np.isnan(tails)).tolist():
            columns["tail_latency_s"][index] = None
        for index in np.flatnonzero(np.isinf(tails)).tolist():
            columns["tail_latency_s"][index] = "saturated"
        return columns

    # -- reductions -------------------------------------------------------------------

    @property
    def total_energy_j(self) -> float:
        """Fleet energy over the whole replay (wake/idle draws included)."""
        return float(self._columns["energy_j"].sum())

    def node_energy_j(self, node_id: int) -> float:
        """One node's energy over the whole replay."""
        return float(self.node_column(node_id, "energy_j").sum())

    @property
    def mean_power_w(self) -> float:
        """Average fleet power (steps are equal-length)."""
        return float(self._columns["total_power_w"].mean())

    @property
    def mean_active_servers(self) -> float:
        """Average powered-on server count."""
        return float(self._columns["active_servers"].mean())

    @property
    def mean_serving_servers(self) -> float:
        """Average count of servers actually accepting load."""
        return float(self._columns["serving_servers"].mean())

    @property
    def mean_used_servers(self) -> float:
        """Average count of serving servers with a nonzero share."""
        return float(self._columns["used_servers"].mean())

    @property
    def peak_serving_servers(self) -> int:
        """Largest serving count over the replay."""
        return int(self._columns["serving_servers"].max())

    @property
    def wake_count(self) -> int:
        """Total server boots initiated over the replay."""
        return int(self._columns["wake_events"].sum())

    @property
    def total_giga_instructions(self) -> float:
        """User work actually served, in 10^9 instructions."""
        served = self._columns["served_uips"].sum() * self.step_seconds
        return float(served / 1.0e9)

    @property
    def served_fraction(self) -> float:
        """Served over offered work (1.0 when nothing was dropped)."""
        offered = float(self._columns["offered_uips"].sum())
        if offered <= 0.0:
            return 1.0
        return float(self._columns["served_uips"].sum()) / offered

    @property
    def energy_per_giga_instruction_j(self) -> float | None:
        """Fleet energy per 10^9 served instructions (None when idle)."""
        work = self.total_giga_instructions
        return self.total_energy_j / work if work > 0 else None

    @property
    def total_requests(self) -> float | None:
        """Requests served (None for workloads without a request size)."""
        if self.instructions_per_request <= 0:
            return None
        served = self._columns["served_uips"].sum() * self.step_seconds
        return float(served / self.instructions_per_request)

    @property
    def mean_qps(self) -> float | None:
        """Sustained served request rate (None when undefined)."""
        requests = self.total_requests
        if requests is None or self.duration_seconds <= 0:
            return None
        return requests / self.duration_seconds

    @property
    def energy_per_request_j(self) -> float | None:
        """Fleet energy per served request (None when undefined)."""
        requests = self.total_requests
        if requests is None or requests <= 0:
            return None
        return self.total_energy_j / requests

    @property
    def violation_count(self) -> int:
        """Steps where some node missed its QoS or dropped load."""
        return int(self._columns["violation"].sum())

    @property
    def violation_fraction(self) -> float:
        """Fraction of steps in violation."""
        return self.violation_count / len(self) if len(self) else 0.0

    @property
    def queue_violation_count(self) -> int:
        """Steps whose queueing-model tail breached the QoS limit."""
        return int((~self._columns["queue_ok"]).sum())

    @property
    def max_tail_latency_s(self) -> float | None:
        """Worst finite queueing-tail latency seen (None if undefined)."""
        tails = self._columns["tail_latency_s"]
        finite = tails[np.isfinite(tails)]
        return float(finite.max()) if finite.size else None

    @property
    def saturated_step_count(self) -> int:
        """Steps where some loaded node's queue was saturated."""
        return int(np.isinf(self._columns["tail_latency_s"]).sum())

    # -- resilience -------------------------------------------------------------------

    @property
    def surge_peak_energy_j(self) -> float:
        """The most expensive single step of the replay.

        Under a flash crowd this is the surge's energy high-water mark
        (extra wakes plus every survivor running hot); on a smooth
        replay it is simply the busiest step.
        """
        return float(self._columns["energy_j"].max()) if len(self) else 0.0

    def recovery_after(self, step: int) -> Optional[int]:
        """Steps from ``step`` until the fleet is violation-free again.

        ``0`` means the fleet never violated at ``step`` itself; ``None``
        means it never recovered before the trace ended.
        """
        violations = self._columns["violation"][step:]
        clean = np.flatnonzero(~violations)
        return int(clean[0]) if clean.size else None

    def resilience(self) -> Dict[str, object]:
        """Per-event recovery metrics (what the stress goldens pin).

        Each scheduled disturbance gets a row: how many steps until the
        first violation-free step at or after the event
        (``recovery_time_steps``, ``None`` if the trace ends first) and
        how many violating steps the fleet logged while re-spreading
        the event's load (``violations_during_respread``).
        """
        violations = self._columns["violation"]
        events: List[Dict[str, object]] = []
        recoveries: List[int] = []
        unrecovered = 0
        for event in self.disturbance_events:
            recovery = self.recovery_after(event.step)
            if recovery is None:
                respread_end = len(self)
                unrecovered += 1
            else:
                respread_end = event.step + recovery
                recoveries.append(recovery)
            events.append(
                {
                    "kind": event.kind,
                    "step": event.step,
                    "node_id": event.node_id,
                    "recovery_time_steps": recovery,
                    "violations_during_respread": int(
                        violations[event.step : respread_end].sum()
                    ),
                }
            )
        return {
            "events": events,
            "max_recovery_time_steps": max(recoveries, default=0),
            "unrecovered_events": unrecovered,
            "surge_peak_energy_j": self.surge_peak_energy_j,
        }

    def summary(self) -> Dict[str, object]:
        """The replay's scalar outcomes (what the golden fixtures pin)."""
        return {
            "routing": self.routing_name,
            "governor": self.governor_name,
            "workload": self.workload_name,
            "trace": self.trace_name,
            "fleet_size": self.fleet_size,
            "autoscaled": self.autoscaled,
            "steps": len(self),
            "step_seconds": self.step_seconds,
            "total_energy_j": self.total_energy_j,
            "mean_power_w": self.mean_power_w,
            "mean_active_servers": self.mean_active_servers,
            "mean_serving_servers": self.mean_serving_servers,
            "mean_used_servers": self.mean_used_servers,
            "peak_serving_servers": self.peak_serving_servers,
            "wake_count": self.wake_count,
            "served_fraction": self.served_fraction,
            "total_giga_instructions": self.total_giga_instructions,
            "energy_per_giga_instruction_j": self.energy_per_giga_instruction_j,
            "total_requests": self.total_requests,
            "mean_qps": self.mean_qps,
            "energy_per_request_j": self.energy_per_request_j,
            "violation_count": self.violation_count,
            "violation_fraction": self.violation_fraction,
            "queue_violation_count": self.queue_violation_count,
            "saturated_step_count": self.saturated_step_count,
            "max_tail_latency_s": self.max_tail_latency_s,
        }

    def __repr__(self) -> str:
        return (
            f"FleetResult({self.routing_name!r} x {self.workload_name!r} "
            f"on {self.trace_name!r}, {self.fleet_size} servers, "
            f"{len(self)} steps, {self.total_energy_j:.0f} J, "
            f"{self.violation_count} violations)"
        )
