"""Columnar fleet-replay results.

One fleet replay produces a fleet-level row per trace step plus one
per-node table; :class:`FleetResult` stores both as NumPy columns (the
:class:`~repro.sweep.result.SweepResult` shape), the node tables as one
``(N, T)`` array per node column.  Its scalar outcomes
-- the per-routing summary the ``fleet_replay`` analysis and the golden
fixtures pin -- come from :func:`fleet_summaries`, which reduces
``(B, L)`` column blocks: :meth:`FleetResult.summary` calls it on one
row and the batch engine once per trace-length group, so each summary
key has one arithmetic, and the reduction properties
(:attr:`~FleetResult.total_energy_j`, ...) read their key of that
summary.  The bulky fleet-level step table rides under the analysis'
private ``_steps`` key by convention, as the plain lists of
:meth:`~FleetResult.to_columns` (one per column).

Two ledger invariants the property tests lock down:

* the fleet ``energy_j`` column is, step by step, exactly the sum of
  the per-node ``energy_j`` columns (wake penalties and idle draws are
  charged to nodes, never to a fleet-level slush fund);
* a 1-server always-on fleet's node table is bit-identical to the
  single-server :class:`~repro.dvfs.replay.ReplayResult` columns.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.dvfs.replay import row_means

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

FLEET_SUMMARY_COLUMNS = (
    "energy_j",
    "total_power_w",
    "active_servers",
    "serving_servers",
    "used_servers",
    "wake_events",
    "served_uips",
    "offered_uips",
    "violation",
    "queue_ok",
    "tail_latency_s",
)
"""The fleet columns :func:`fleet_summaries` reads."""


def fleet_summaries(
    blocks: Mapping[str, np.ndarray],
    traces: Sequence[str],
    step_seconds: Sequence[float],
    *,
    routing: str,
    governor: str,
    workload: str,
    fleet_size: int,
    autoscaled: bool,
    instructions_per_request: float,
) -> List[Dict[str, object]]:
    """Reduce B fleet replays of L steps each to B summary dicts.

    ``blocks`` maps every :data:`FLEET_SUMMARY_COLUMNS` name to a
    ``(B, L)`` array whose rows are whole replays: a zero-padded row
    would change the pairwise summation order, and with it the bits.
    Row ``b`` replays trace ``traces[b]``, stepped every
    ``step_seconds[b]`` seconds; the other labels are shared by every
    row.  This is the one arithmetic, and the one key layout, behind
    :meth:`FleetResult.summary` (one row) and the batch engine's
    summaries (one call per trace-length group).
    """
    length = blocks["energy_j"].shape[1]
    energy_sum = blocks["energy_j"].sum(axis=1).tolist()
    power_mean = row_means(blocks["total_power_w"]).tolist()
    active_mean = row_means(blocks["active_servers"]).tolist()
    serving = blocks["serving_servers"]
    serving_mean = row_means(serving).tolist()
    peak_serving = serving.max(axis=1).tolist()
    used_mean = row_means(blocks["used_servers"]).tolist()
    wake_sum = blocks["wake_events"].sum(axis=1).tolist()
    served_sum = blocks["served_uips"].sum(axis=1).tolist()
    offered_sum = blocks["offered_uips"].sum(axis=1).tolist()
    violations = blocks["violation"].sum(axis=1).tolist()
    queue_violations = (~blocks["queue_ok"]).sum(axis=1).tolist()
    tails = blocks["tail_latency_s"]
    finite = np.isfinite(tails)
    has_finite = finite.any(axis=1).tolist()
    finite_max = np.where(finite, tails, -np.inf).max(axis=1).tolist()
    saturated = np.isinf(tails).sum(axis=1).tolist()
    instructions = instructions_per_request
    out: List[Dict[str, object]] = []
    for row, trace in enumerate(traces):
        seconds = step_seconds[row]
        total_energy = energy_sum[row]
        offered = offered_sum[row]
        served = served_sum[row] * seconds
        work = served / 1.0e9
        requests = None if instructions <= 0 else served / instructions
        duration = seconds * length
        violation_count = violations[row]
        out.append(
            {
                "routing": routing,
                "governor": governor,
                "workload": workload,
                "trace": trace,
                "fleet_size": fleet_size,
                "autoscaled": autoscaled,
                "steps": length,
                "step_seconds": seconds,
                "total_energy_j": total_energy,
                "mean_power_w": power_mean[row],
                "mean_active_servers": active_mean[row],
                "mean_serving_servers": serving_mean[row],
                "mean_used_servers": used_mean[row],
                "peak_serving_servers": peak_serving[row],
                "wake_count": wake_sum[row],
                "served_fraction": (
                    1.0 if offered <= 0.0 else served_sum[row] / offered
                ),
                "total_giga_instructions": work,
                "energy_per_giga_instruction_j": (
                    total_energy / work if work > 0 else None
                ),
                "total_requests": requests,
                "mean_qps": (
                    None
                    if requests is None or duration <= 0
                    else requests / duration
                ),
                "energy_per_request_j": (
                    None
                    if requests is None or requests <= 0
                    else total_energy / requests
                ),
                "violation_count": violation_count,
                "violation_fraction": (
                    violation_count / length if length else 0.0
                ),
                "queue_violation_count": queue_violations[row],
                "saturated_step_count": saturated[row],
                "max_tail_latency_s": (
                    finite_max[row] if has_finite[row] else None
                ),
            }
        )
    return out


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
        node_columns: Mapping[str, np.ndarray],
        disturbance_events: Tuple["DisturbanceEvent", ...] = (),
    ):
        """``node_columns`` maps every :data:`NODE_COLUMNS` name to a
        ``(fleet_size, steps)`` array whose row ``i`` is node ``i``."""
        missing = [name for name in FLEET_COLUMNS if name not in columns]
        if missing:
            raise ValueError(f"missing fleet columns: {missing}")
        lengths = {name: len(columns[name]) for name in FLEET_COLUMNS}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"fleet columns have unequal lengths: {lengths}")
        node_missing = [name for name in NODE_COLUMNS if name not in node_columns]
        if node_missing:
            raise ValueError(f"missing node columns: {node_missing}")
        shape = (fleet_size, len(columns["step"]))
        for name in NODE_COLUMNS:
            if node_columns[name].shape != shape:
                raise ValueError(
                    f"node column {name!r} has shape "
                    f"{node_columns[name].shape}, expected {shape} "
                    f"({fleet_size} nodes x {shape[1]} fleet steps)"
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
        self._node_columns = {name: node_columns[name] for name in NODE_COLUMNS}
        self._summary: Optional[Dict[str, object]] = None

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
        """One node's row of a node column (a zero-copy view)."""
        if node_id not in range(self.fleet_size):
            raise KeyError(
                f"unknown node {node_id}; fleet has nodes {self.node_ids}"
            )
        try:
            return self._node_columns[name][node_id]
        except KeyError:
            raise KeyError(
                f"unknown node column {name!r}; available: {NODE_COLUMNS}"
            ) from None

    @property
    def node_ids(self) -> List[int]:
        """Node identifiers, ascending."""
        return list(range(self.fleet_size))

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

    # -- reductions: keys of the one-row summary --------------------------------------

    def _scalars(self) -> Dict[str, object]:
        """This replay's :func:`fleet_summaries` row, reduced once."""
        if self._summary is None:
            blocks = {
                name: self._columns[name][np.newaxis]
                for name in FLEET_SUMMARY_COLUMNS
            }
            self._summary = fleet_summaries(
                blocks,
                [self.trace_name],
                [self.step_seconds],
                routing=self.routing_name,
                governor=self.governor_name,
                workload=self.workload_name,
                fleet_size=self.fleet_size,
                autoscaled=self.autoscaled,
                instructions_per_request=self.instructions_per_request,
            )[0]
        return self._summary

    @property
    def total_energy_j(self) -> float:
        """Fleet energy over the whole replay (wake/idle draws included)."""
        return self._scalars()["total_energy_j"]

    def node_energy_j(self, node_id: int) -> float:
        """One node's energy over the whole replay."""
        return float(self.node_column(node_id, "energy_j").sum())

    @property
    def mean_power_w(self) -> float:
        """Average fleet power (steps are equal-length)."""
        return self._scalars()["mean_power_w"]

    @property
    def mean_active_servers(self) -> float:
        """Average powered-on server count."""
        return self._scalars()["mean_active_servers"]

    @property
    def mean_serving_servers(self) -> float:
        """Average count of servers actually accepting load."""
        return self._scalars()["mean_serving_servers"]

    @property
    def mean_used_servers(self) -> float:
        """Average count of serving servers with a nonzero share."""
        return self._scalars()["mean_used_servers"]

    @property
    def peak_serving_servers(self) -> int:
        """Largest serving count over the replay."""
        return self._scalars()["peak_serving_servers"]

    @property
    def wake_count(self) -> int:
        """Total server boots initiated over the replay."""
        return self._scalars()["wake_count"]

    @property
    def total_giga_instructions(self) -> float:
        """User work actually served, in 10^9 instructions."""
        return self._scalars()["total_giga_instructions"]

    @property
    def served_fraction(self) -> float:
        """Served over offered work (1.0 when nothing was dropped)."""
        return self._scalars()["served_fraction"]

    @property
    def energy_per_giga_instruction_j(self) -> float | None:
        """Fleet energy per 10^9 served instructions (None when idle)."""
        return self._scalars()["energy_per_giga_instruction_j"]

    @property
    def total_requests(self) -> float | None:
        """Requests served (None for workloads without a request size)."""
        return self._scalars()["total_requests"]

    @property
    def mean_qps(self) -> float | None:
        """Sustained served request rate (None when undefined)."""
        return self._scalars()["mean_qps"]

    @property
    def energy_per_request_j(self) -> float | None:
        """Fleet energy per served request (None when undefined)."""
        return self._scalars()["energy_per_request_j"]

    @property
    def violation_count(self) -> int:
        """Steps where some node missed its QoS or dropped load."""
        return self._scalars()["violation_count"]

    @property
    def violation_fraction(self) -> float:
        """Fraction of steps in violation."""
        return self._scalars()["violation_fraction"]

    @property
    def queue_violation_count(self) -> int:
        """Steps whose queueing-model tail breached the QoS limit."""
        return self._scalars()["queue_violation_count"]

    @property
    def max_tail_latency_s(self) -> float | None:
        """Worst finite queueing-tail latency seen (None if undefined)."""
        return self._scalars()["max_tail_latency_s"]

    @property
    def saturated_step_count(self) -> int:
        """Steps where some loaded node's queue was saturated."""
        return self._scalars()["saturated_step_count"]

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
        return dict(self._scalars())

    def __repr__(self) -> str:
        return (
            f"FleetResult({self.routing_name!r} x {self.workload_name!r} "
            f"on {self.trace_name!r}, {self.fleet_size} servers, "
            f"{len(self)} steps, {self.total_energy_j:.0f} J, "
            f"{self.violation_count} violations)"
        )
