"""Timed failure injection for fleet replays.

A :class:`DisturbanceSchedule` is a frozen, validated list of timed
events applied to a fleet mid-replay:

* :func:`node_crash` -- the node drops to OFF at its step *after* the
  routing has assigned it load, so its routed mass is dropped and
  recorded as violations until the next step re-spreads it;
* :func:`node_restore` -- a crashed node comes back (immediately
  serving on a static fleet; wake-eligible again under an autoscaler,
  which re-admits it through the normal wake path);
* :func:`thermal_cap` -- the node's reachable frequency grid is capped
  at ``max_frequency_hz`` from its step onward (a shrunk
  :class:`~repro.dvfs.governors.PlatformView`), so its governor can no
  longer buy capacity above the cap;
* :func:`load_surge` -- a pure marker carrying no fleet mutation: the
  ``fleet_stress`` analysis tags the first surged trace step with it so
  the resilience metrics report the surge's recovery like any other
  event.

Schedules are plain frozen data (hashable, JSON-able via
:meth:`DisturbanceSchedule.summary`), validated at construction: event
kinds, crash/restore pairing per node and same-step conflicts are all
rejected with precise errors.  Bounds against a concrete fleet and
trace, and total outages (a step with every node crashed), are checked
by :meth:`DisturbanceSchedule.validate_for` before a replay's first
step, and caps below the grid's bottom frequency by
:meth:`DisturbanceSchedule.check_caps`.

Every schedule replays through the columnar kernels bit-for-bit with
the object path -- one replay in :mod:`repro.kernels.fleet`, whole
batches in :mod:`repro.kernels.batch`: crashes and restores move power
states on the state timeline, and a thermal cap becomes a per-(node,
step) top grid index that bounds the node's governor choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

NODE_CRASH = "node_crash"
NODE_RESTORE = "node_restore"
THERMAL_CAP = "thermal_cap"
LOAD_SURGE = "load_surge"

EVENT_KINDS = (NODE_CRASH, NODE_RESTORE, THERMAL_CAP, LOAD_SURGE)
"""Event kinds a schedule may carry, in canonical order."""


@dataclass(frozen=True)
class DisturbanceEvent:
    """One timed event of a schedule (build via the factory functions)."""

    kind: str
    step: int
    node_id: Optional[int] = None
    max_frequency_hz: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            known = ", ".join(EVENT_KINDS)
            raise ValueError(
                f"unknown disturbance kind {self.kind!r}; known kinds: {known}"
            )
        if self.step < 0:
            raise ValueError(
                f"{self.kind} event: step must be >= 0, got {self.step}"
            )
        if self.kind == LOAD_SURGE:
            if self.node_id is not None:
                raise ValueError(
                    "load_surge is a fleet-wide marker; it takes no node_id"
                )
        else:
            if self.node_id is None or self.node_id < 0:
                raise ValueError(
                    f"{self.kind} event at step {self.step}: needs a "
                    f"node_id >= 0, got {self.node_id}"
                )
        if self.kind == THERMAL_CAP:
            if (
                self.max_frequency_hz is None
                or not math.isfinite(self.max_frequency_hz)
                or self.max_frequency_hz <= 0.0
            ):
                raise ValueError(
                    f"thermal_cap event at step {self.step}: "
                    f"max_frequency_hz must be positive and finite, "
                    f"got {self.max_frequency_hz}"
                )
        elif self.max_frequency_hz is not None:
            raise ValueError(
                f"{self.kind} event at step {self.step}: only thermal_cap "
                "events take max_frequency_hz"
            )

    def summary(self) -> Dict[str, object]:
        """JSON-able description (pinned by the golden fixtures)."""
        return {
            "kind": self.kind,
            "step": self.step,
            "node_id": self.node_id,
            "max_frequency_hz": self.max_frequency_hz,
        }


def node_crash(node_id: int, step: int) -> DisturbanceEvent:
    """Node ``node_id`` fails at ``step`` (after routing, before serving)."""
    return DisturbanceEvent(kind=NODE_CRASH, step=step, node_id=node_id)


def node_restore(node_id: int, step: int) -> DisturbanceEvent:
    """A previously crashed node becomes available again at ``step``."""
    return DisturbanceEvent(kind=NODE_RESTORE, step=step, node_id=node_id)


def thermal_cap(
    node_id: int, step: int, max_frequency_hz: float
) -> DisturbanceEvent:
    """Cap the node's reachable grid at ``max_frequency_hz`` from ``step``."""
    return DisturbanceEvent(
        kind=THERMAL_CAP,
        step=step,
        node_id=node_id,
        max_frequency_hz=max_frequency_hz,
    )


def load_surge(step: int) -> DisturbanceEvent:
    """A fleet-wide marker: the surge front lands at ``step`` (no mutation)."""
    return DisturbanceEvent(kind=LOAD_SURGE, step=step)


_EVENT_FACTORIES = {
    NODE_CRASH: node_crash,
    NODE_RESTORE: node_restore,
    THERMAL_CAP: thermal_cap,
    LOAD_SURGE: load_surge,
}


def event_from_tuple(data: Tuple) -> DisturbanceEvent:
    """Build an event from plain spec data.

    Accepts ``("node_crash", node_id, step)``,
    ``("node_restore", node_id, step)``,
    ``("thermal_cap", node_id, step, max_frequency_hz)`` and
    ``("load_surge", step)`` -- the serialisable shape
    :class:`~repro.scenarios.spec.ScenarioSpec` carries.
    """
    if not data:
        raise ValueError("empty disturbance tuple")
    kind = data[0]
    if kind not in _EVENT_FACTORIES:
        known = ", ".join(EVENT_KINDS)
        raise ValueError(
            f"unknown disturbance kind {kind!r}; known kinds: {known}"
        )
    try:
        return _EVENT_FACTORIES[kind](*data[1:])
    except TypeError:
        raise ValueError(
            f"malformed {kind} disturbance tuple {data!r}; expected "
            "(kind, node_id, step) for node events, (kind, node_id, step, "
            "max_frequency_hz) for thermal_cap, (kind, step) for load_surge"
        ) from None


@dataclass(frozen=True)
class DisturbanceSchedule:
    """A frozen, validated list of timed fleet disturbances."""

    events: Tuple[DisturbanceEvent, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        per_node_step: Dict[Tuple[int, int], str] = {}
        for event in self.events:
            if not isinstance(event, DisturbanceEvent):
                raise TypeError(
                    f"DisturbanceSchedule needs DisturbanceEvent items, "
                    f"got {type(event).__name__}"
                )
            key = (event.kind, event.node_id, event.step, event.max_frequency_hz)
            if key in seen:
                raise ValueError(
                    f"duplicate {event.kind} event for node {event.node_id} "
                    f"at step {event.step}"
                )
            seen.add(key)
            if event.node_id is not None:
                node_step = (event.node_id, event.step)
                other = per_node_step.get(node_step)
                if other is not None:
                    raise ValueError(
                        f"conflicting events for node {event.node_id} at "
                        f"step {event.step}: {other} and {event.kind}"
                    )
                per_node_step[node_step] = event.kind
        # Crash/restore pairing per node, in step order: a restore needs
        # an earlier unresolved crash, and a crashed node cannot crash
        # again before it is restored.
        by_node: Dict[int, List[DisturbanceEvent]] = {}
        for event in self.events:
            if event.kind in (NODE_CRASH, NODE_RESTORE):
                by_node.setdefault(event.node_id, []).append(event)
        for node_id, node_events in by_node.items():
            down = False
            for event in sorted(node_events, key=lambda e: e.step):
                if event.kind == NODE_CRASH:
                    if down:
                        raise ValueError(
                            f"node {node_id} crashes again at step "
                            f"{event.step} without being restored first"
                        )
                    down = True
                else:
                    if not down:
                        raise ValueError(
                            f"node {node_id} is restored at step "
                            f"{event.step} without a preceding crash"
                        )
                    down = False

    # -- views -----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def kinds(self) -> Tuple[str, ...]:
        """Distinct event kinds present, in canonical order."""
        present = {event.kind for event in self.events}
        return tuple(kind for kind in EVENT_KINDS if kind in present)

    @property
    def max_step(self) -> int:
        """The latest event step (-1 for an empty schedule)."""
        return max((event.step for event in self.events), default=-1)

    def events_at(self, step: int, kind: str | None = None) -> Tuple[
        DisturbanceEvent, ...
    ]:
        """Events firing at ``step``, optionally filtered by kind."""
        return tuple(
            event
            for event in self.events
            if event.step == step and (kind is None or event.kind == kind)
        )

    def with_events(self, *events: DisturbanceEvent) -> "DisturbanceSchedule":
        """A new schedule with ``events`` appended (revalidated)."""
        return DisturbanceSchedule(events=self.events + tuple(events))

    def validate_for(self, fleet_size: int, steps: int) -> None:
        """Reject events that miss the concrete fleet or trace.

        A crash of node 12 on an 8-node fleet, or an event scheduled
        beyond the trace's last step, is a silent no-op bug waiting to
        happen; both fail here with precise errors before the replay
        starts.  So does a total outage: a step whose routing would
        find every node crashed, naming the crash events behind it.
        """
        for event in self.events:
            if event.node_id is not None and event.node_id >= fleet_size:
                raise ValueError(
                    f"{event.kind} event targets node {event.node_id}, but "
                    f"the fleet only has nodes 0..{fleet_size - 1}"
                )
            if event.step >= steps:
                raise ValueError(
                    f"{event.kind} event at step {event.step} is beyond the "
                    f"trace's {steps} steps"
                )
        # A node is down for step t's routing when it crashed before t
        # and is not restored by t; down sets only grow the step after a
        # crash, so those are the only steps to check.  (Crash/restore
        # pairing makes each node's down windows disjoint.)
        windows = self._down_windows()
        for step in sorted({crash.step + 1 for crash, _ in windows}):
            if step >= steps:
                break
            down = [
                crash
                for crash, back in windows
                if crash.step < step and (back is None or back > step)
            ]
            if len(down) == fleet_size:
                crashes = ", ".join(
                    f"node_crash({crash.node_id}, {crash.step})"
                    for crash in sorted(down, key=lambda e: (e.step, e.node_id))
                )
                raise ValueError(
                    f"total outage at step {step}: every node of the "
                    f"{fleet_size}-node fleet is down after {crashes}, "
                    "leaving no node to route load to"
                )

    def check_caps(self, min_frequency_hz: float) -> None:
        """Reject a thermal cap that leaves its node no reachable frequency.

        ``min_frequency_hz`` is the grid bottom
        (:attr:`~repro.kernels.table.FrequencyTable.min_frequency_hz`).
        ``FleetSimulator.run`` and the batch runner both call this with
        :meth:`validate_for` before step 0, so every path fails with the
        same error, not when the replay reaches the cap's step.
        """
        for event in self.events:
            if (
                event.kind == THERMAL_CAP
                and event.max_frequency_hz < min_frequency_hz
            ):
                raise ValueError(
                    f"thermal_cap event at step {event.step} caps node "
                    f"{event.node_id} at {event.max_frequency_hz} Hz, below "
                    f"the grid bottom of {min_frequency_hz} Hz: the node "
                    "would have no reachable frequency"
                )

    def _down_windows(self) -> List[Tuple[DisturbanceEvent, Optional[int]]]:
        """Each crash with the step its node is restored (None: never)."""
        windows: List[Tuple[DisturbanceEvent, Optional[int]]] = []
        open_crashes: Dict[int, DisturbanceEvent] = {}
        for event in sorted(self.events, key=lambda e: e.step):
            if event.kind == NODE_CRASH:
                open_crashes[event.node_id] = event
            elif event.kind == NODE_RESTORE:
                windows.append((open_crashes.pop(event.node_id), event.step))
        windows.extend((crash, None) for crash in open_crashes.values())
        return windows

    def summary(self) -> List[Dict[str, object]]:
        """JSON-able event list (pinned by the golden fixtures)."""
        return [event.summary() for event in self.events]
