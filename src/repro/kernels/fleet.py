"""Columnar fleet stepper: per-node state arrays instead of objects.

The object-based :class:`~repro.fleet.simulator.FleetSimulator` loop
creates one :class:`~repro.fleet.node.NodeStep` per (node, step) and
writes eleven column scalars each -- the hot path the ISSUE's profile
blames.  This kernel replaces it with per-node state *arrays* updated
in bulk:

1. **State timeline** -- the autoscaler's power-state machine (off /
   booting / serving, boot countdowns, wake events) depends only on the
   offered-mass sequence, never on routing or governor choices, so it
   is resolved once per replay in a tight scalar pass.
2. **Routing** -- ``round_robin`` and ``spread`` become whole-trace
   mask-and-divide expressions; ``pack``'s order-dependent spill is one
   ``np.subtract.accumulate`` along the node axis (:func:`_pack_shares`,
   shared with the batch engine); ``least_loaded`` couples to the
   previous step's frequencies, so it is routed during selection.
3. **Governor selection** -- memoryless policies select every
   (serving node, step) pair in one batched kernel call.  A
   *synchronized* ``least_loaded`` replay (memoryless governor, no wake,
   no static-fleet restore, no cap below nominal) keeps all its routing
   targets on one previous grid index, so a step's shares and choice
   depend only on (step, that index): :func:`_least_loaded_chain`,
   shared with the batch engine, settles the whole replay with one
   kernel call over each step's few distinct candidate shares.  The
   stateful ``conservative`` and any other ``least_loaded`` replay
   advance all nodes one step at a time, vectorized across the fleet.
   Thermal caps become a per-(node, step) top grid index that bounds
   every choice.
4. **Columns** -- every per-node and fleet-level column is a gather or
   reduction over the ``(fleet_size, steps)`` arrays; fleet sums
   accumulate node-by-node in ascending id order, reproducing the
   reference loop's float-addition order bit for bit.

Queueing tails are evaluated by :func:`tail_latencies`, a closed-form
vectorized twin of the scalar
:class:`~repro.latency.queueing.MM1Queue` / :class:`MG1Queue` math:
the (grid index, demand) pairs of every loaded node-step are
deduplicated by two real-valued ``np.unique`` passes (demand rank,
then ``rank * grid_size + index``) and each unique pair is solved once
with the exact float expressions the scalar queue models use (the one
``math.log`` per unique pair included, because ``np.log`` is not
bit-identical to ``math.log`` on every platform).

Dispatch is by exact type (routing, governor, autoscaler): any subclass
with overridden behaviour falls back to the object-based reference
path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.dvfs.governors import Governor
from repro.dvfs.trace import LoadTrace
from repro.fleet.autoscaler import Autoscaler
from repro.fleet.disturbance import (
    NODE_CRASH,
    NODE_RESTORE,
    THERMAL_CAP,
    DisturbanceSchedule,
)
from repro.fleet.node import NodeState
from repro.fleet.routing import (
    LeastLoadedRouting,
    PackRouting,
    RoundRobinRouting,
    RoutingPolicy,
    SpreadRouting,
)
from repro.kernels.governors import (
    has_kernel,
    is_memoryless_kernel,
    select_step_indices,
)
from repro.kernels.table import FrequencyTable
from repro.workloads.base import WorkloadCharacteristics

_OFF = int(NodeState.OFF)
_BOOTING = int(NodeState.BOOTING)
_SERVING = int(NodeState.SERVING)

_STABILITY_EPSILON = 1e-9
"""Utilisations within this of 1.0 count as a saturated queue
(mirrors :data:`repro.fleet.simulator._STABILITY_EPSILON`)."""

ROUTING_KERNEL_TYPES = frozenset(
    (RoundRobinRouting, LeastLoadedRouting, PackRouting, SpreadRouting)
)
"""Routing policies with a columnar kernel, by exact type."""

_NO_ACTIVE_NODE = "cannot route load on a fleet with no active node"


def supports(
    routing: RoutingPolicy,
    governor: Governor,
    autoscaler: Autoscaler | None,
) -> bool:
    """True when this (routing, governor, autoscaler) trio has a kernel.

    Every disturbance schedule replays on the kernel: crashes and
    restores move power states on the state timeline, and thermal caps
    become a per-(node, step) top grid index clamping selection.
    """
    return (
        type(routing) in ROUTING_KERNEL_TYPES
        and has_kernel(governor)
        and (autoscaler is None or type(autoscaler) is Autoscaler)
    )


def _cap_tops(
    disturbances: DisturbanceSchedule | None,
    table: FrequencyTable,
    fleet_size: int,
    steps: int,
) -> np.ndarray | None:
    """Per (node, step): the top grid index a thermal cap leaves.

    A cap holds from its step onward until a later cap on the same node
    replaces it (even a higher one).  ``None`` when the schedule caps
    nothing, so uncapped replays keep the scalar nominal index.  The
    caller has checked every cap against the grid bottom.
    """
    caps = [
        event
        for event in (disturbances.events if disturbances else ())
        if event.kind == THERMAL_CAP
    ]
    if not caps:
        return None
    top2d = np.full((fleet_size, steps), table.nominal_index, dtype=np.int64)
    for event in sorted(caps, key=lambda event: event.step):
        top2d[event.node_id, event.step:] = (
            np.searchsorted(
                table.frequencies_hz, event.max_frequency_hz, side="right"
            )
            - 1
        )
    return top2d


@dataclass(eq=False)
class _StateTimeline:
    """The fleet's power states resolved over the whole trace.

    ``route_state2d`` is what the routing sees (post-scaling, *before*
    the step's crashes land) and ``state2d`` what the nodes actually do
    (post-crash); without node disturbances the two are the same array.
    ``serving_ids``/``active_ids`` are routing targets,
    ``select_ids`` the governor-selection domain (final serving set).
    """

    state2d: np.ndarray  # (fleet_size, steps) int8, post-crash
    route_state2d: np.ndarray  # (fleet_size, steps) int8, post-scaling
    wake_counts: np.ndarray  # (steps,) int64
    woken: List[List[int]]  # node ids whose boot began at each step
    restarted: List[List[int]]  # static-fleet restores (reset previous)
    serving_ids: List[List[int]]  # ascending, per step, routing view
    active_ids: List[List[int]]  # ascending, per step, routing view
    select_ids: List[List[int]]  # ascending, per step, post-crash serving


def _resolve_states(
    mass_list: List[float],
    fleet_size: int,
    autoscaler: Autoscaler | None,
    disturbances: DisturbanceSchedule | None = None,
) -> _StateTimeline:
    """Replay the autoscaler's state machine over the mass sequence.

    Mirrors ``FleetSimulator.run``'s per-step ordering exactly: boots
    advance first, restores land, then one scaling decision mutates the
    states the routing sees, and crashes land last (after routing has
    committed the step's shares).  Node ids are list indices, so the
    reference's lowest-id-wakes / highest-id-parks ordering is the
    natural slice.
    """
    steps = len(mass_list)
    crashes_at: Dict[int, List[int]] = {}
    restores_at: Dict[int, List[int]] = {}
    if disturbances is not None:
        for event in disturbances.events:
            if event.kind == NODE_CRASH:
                crashes_at.setdefault(event.step, []).append(event.node_id)
            elif event.kind == NODE_RESTORE:
                restores_at.setdefault(event.step, []).append(event.node_id)
    has_node_events = bool(crashes_at or restores_at)

    if autoscaler is None:
        initially_serving = fleet_size
    else:
        initially_serving = autoscaler.desired_active(mass_list[0], fleet_size)
    states = [
        _SERVING if node < initially_serving else _OFF
        for node in range(fleet_size)
    ]
    boot = [0] * fleet_size
    failed = [False] * fleet_size

    state2d = np.empty((fleet_size, steps), dtype=np.int8)
    route_state2d = (
        np.empty((fleet_size, steps), dtype=np.int8)
        if has_node_events
        else state2d
    )
    wake_counts = np.zeros(steps, dtype=np.int64)
    woken_steps: List[List[int]] = []
    restarted_steps: List[List[int]] = []
    serving_steps: List[List[int]] = []
    active_steps: List[List[int]] = []
    select_steps: List[List[int]] = []

    for index in range(steps):
        mass = mass_list[index]
        for node in range(fleet_size):
            if states[node] == _BOOTING:
                boot[node] -= 1
                if boot[node] <= 0:
                    states[node] = _SERVING
                    boot[node] = 0
        restarted: List[int] = []
        for node in restores_at.get(index, ()):
            failed[node] = False
            if autoscaler is None:
                # Matches the reference's restore-on-a-static-fleet:
                # wake(0) -- immediately serving, DVFS history reset,
                # no wake event and no wake energy.
                states[node] = _SERVING
                restarted.append(node)
        woken: List[int] = []
        if autoscaler is not None:
            serving = [n for n in range(fleet_size) if states[n] == _SERVING]
            booting = [n for n in range(fleet_size) if states[n] == _BOOTING]
            off = [
                n
                for n in range(fleet_size)
                if states[n] == _OFF and not failed[n]
            ]
            active = len(serving) + len(booting)
            capacity = len(serving) if serving else len(booting)
            utilization = mass / capacity if capacity else math.inf
            if utilization > autoscaler.high or utilization < autoscaler.low:
                desired = autoscaler.desired_active(mass, fleet_size)
            else:
                desired = active
            if desired > active:
                for node in off[: desired - active]:
                    if autoscaler.wake_steps <= 0:
                        states[node] = _SERVING
                    else:
                        states[node] = _BOOTING
                        boot[node] = autoscaler.wake_steps
                    woken.append(node)
            elif desired < active and desired < len(serving):
                candidates = booting[::-1] + serving[::-1]
                for node in candidates[: active - desired]:
                    states[node] = _OFF
                    boot[node] = 0
        route_state2d[:, index] = states
        serving_steps.append(
            [n for n in range(fleet_size) if states[n] == _SERVING]
        )
        active_steps.append(
            [n for n in range(fleet_size) if states[n] != _OFF]
        )
        for node in crashes_at.get(index, ()):
            states[node] = _OFF
            boot[node] = 0
            failed[node] = True
        if has_node_events:
            state2d[:, index] = states
            select_steps.append(
                [n for n in range(fleet_size) if states[n] == _SERVING]
            )
        else:
            select_steps.append(serving_steps[-1])
        wake_counts[index] = len(woken)
        woken_steps.append(woken)
        restarted_steps.append(restarted)
    return _StateTimeline(
        state2d=state2d,
        route_state2d=route_state2d,
        wake_counts=wake_counts,
        woken=woken_steps,
        restarted=restarted_steps,
        serving_ids=serving_steps,
        active_ids=active_steps,
        select_ids=select_steps,
    )


# -- routing ----------------------------------------------------------------------------


def _route_targets(serving: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Serving nodes, or every active node at a step where none serves.

    The target rule of :meth:`RoutingPolicy._targets` over the node
    axis of ``(N, T)`` or ``(B, N, T)`` state masks.
    """
    return np.where(serving.any(axis=-2, keepdims=True), serving, active)


def _target_counts(
    targets: np.ndarray, valid: np.ndarray | None = None
) -> np.ndarray:
    """Routing targets per step of an ``(N, T)`` or ``(B, N, T)`` mask.

    Raises when a step has none; ``valid`` marks the unpadded steps of a
    ragged batch (default: every step), the only steps that must.
    """
    counts = targets.sum(axis=-2)
    empty = counts == 0
    if np.any(empty if valid is None else empty & valid):
        raise ValueError(_NO_ACTIVE_NODE)
    return counts


def _even_split_shares(
    mass: np.ndarray, targets: np.ndarray, valid: np.ndarray | None = None
) -> np.ndarray:
    """``mass / |targets|`` on the target mask, zero elsewhere."""
    counts = _target_counts(targets, valid)
    return np.where(
        targets, (mass / np.maximum(counts, 1))[..., np.newaxis, :], 0.0
    )


def _pack_shares(
    fill_fraction: float,
    mass: np.ndarray,
    targets: np.ndarray,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """Pack's fill in id order, spilling at ``fill_fraction``, closed form.

    ``targets`` is an ``(N, T)`` or ``(B, N, T)`` routing mask and
    ``mass`` the matching ``(T,)`` or ``(B, T)`` offered mass (``valid``
    as for :func:`_target_counts`).  The reference walks the targets
    subtracting each take from a running remainder;
    ``np.subtract.accumulate`` along the node axis repeats that
    subtraction in the same order: a non-target subtracts an exact 0.0,
    and up to the draining take every take is ``fill_fraction`` itself.
    After it the reference's remainder is exactly 0.0 and the
    accumulated one is <= 0, so both take nothing from there on -- the
    reference loop's ``break``.  A final remainder > 0 spreads evenly
    over the targets.
    """
    counts = _target_counts(targets, valid)
    before = np.subtract.accumulate(
        np.concatenate(
            [mass[..., np.newaxis, :], np.where(targets, fill_fraction, 0.0)],
            axis=-2,
        ),
        axis=-2,
    )
    remaining = before[..., :-1, :]
    shares = np.where(
        targets & (remaining > 0.0),
        np.minimum(fill_fraction, remaining),
        0.0,
    )
    left = before[..., -1, :]
    overflowing = left > 0.0
    if overflowing.any():
        extra = np.where(overflowing, left / np.maximum(counts, 1), 0.0)
        shares += np.where(targets, extra[..., np.newaxis, :], 0.0)
    return shares


def _synchronized(
    table: FrequencyTable,
    governor: Governor,
    resets: bool,
    top: np.ndarray | None,
) -> bool:
    """True when a ``least_loaded`` replay can take the index chain.

    Every node starts at the nominal index.  Without a wake or a
    static-fleet restore (``resets``) the serving set only shrinks, so
    under a memoryless governor and no cap below nominal (``top``, the
    replay's cap tops or ``None``) all of a step's routing targets hold
    one previous index: the last step's common choice.
    """
    return (
        is_memoryless_kernel(governor)
        and not resets
        and (top is None or int(top.min()) >= table.nominal_index)
    )


@functools.lru_cache(maxsize=32)
def _least_loaded_ratios(
    table: FrequencyTable, fleet_size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each target's share of the mass when k targets sit at index p.

    Returns ``(ratio, candidates, column)`` with row ``k - 1`` for k
    targets: ``ratio[k - 1, p]`` is ``w_p / S_k`` for the weight
    ``w_p = capacity[p] / nominal`` and ``S_k`` its k-fold running sum,
    added in the scalar loop's order (``1.0 / k`` where ``S_k <= 0``,
    the even-split fallback); ``candidates[k - 1]`` holds a row's
    distinct ratios (padded with its first) and ``column[k - 1, p]``
    the position of ``ratio[k - 1, p]`` among them.
    """
    nominal = table.nominal_capacity_uips
    weights = np.array(
        [capacity / nominal for capacity in table.capacity_uips.tolist()]
    )
    # Accumulate is sequential along the k axis: the loops' running sum.
    totals = np.add.accumulate(
        np.broadcast_to(weights, (fleet_size, len(weights))), axis=0
    )
    even = 1.0 / np.arange(1, fleet_size + 1, dtype=np.float64)
    positive = totals > 0.0
    ratio = np.where(
        positive,
        weights / np.where(positive, totals, 1.0),
        even[:, np.newaxis],
    )
    distinct = [np.unique(row, return_inverse=True) for row in ratio]
    width = max(len(values) for values, _ in distinct)
    candidates = np.empty((fleet_size, width), dtype=np.float64)
    column = np.empty(ratio.shape, dtype=np.int64)
    for k, (values, inverse) in enumerate(distinct):
        candidates[k] = values[0]
        candidates[k, : len(values)] = values
        column[k] = inverse
    for array in (ratio, candidates, column):
        array.setflags(write=False)
    return ratio, candidates, column


def _least_loaded_chain(
    table: FrequencyTable,
    governor: Governor,
    mass: np.ndarray,
    targets: np.ndarray,
    valid: np.ndarray | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``least_loaded`` selection for synchronized replays, no step loop.

    ``targets`` is an ``(N, T)`` or ``(B, N, T)`` routing mask and
    ``mass`` the matching offered mass (``valid`` as for
    :func:`_target_counts`); every row must satisfy
    :func:`_synchronized`.  Then a step's k targets all hold the
    previous index p and each gets ``mass * ratio[k - 1, p]``, so the
    step's choice depends only on (step, p).  One governor call
    evaluates every step on each distinct ratio for its k; where those
    candidate choices agree, the step's choice is known whatever p was,
    and only the steps where they differ walk the chain
    ``p(t + 1) = choice(t, p(t))`` in plain Python.  A step with no
    serving node is followed by one with no target, which raises, so
    every routed step's p is the previous step's choice.

    Returns ``(shares, idx)`` shaped like ``targets``: bit for bit the
    step loops' shares, and the common choice at every node (only the
    serving nodes' indices are read).
    """
    single = targets.ndim == 2
    if single:
        mass = mass[np.newaxis]
        targets = targets[np.newaxis]
    fleet_size = targets.shape[1]
    obs.count("fleet.selection_chain_rows", targets.shape[0])
    nominal_index = table.nominal_index
    counts = np.maximum(_target_counts(targets, valid), 1)
    ratio, candidates, column = _least_loaded_ratios(table, fleet_size)
    candidate_shares = mass[..., np.newaxis] * candidates[counts - 1]
    # Memoryless kernels never read the previous index.
    choices = select_step_indices(
        governor,
        table,
        candidate_shares,
        candidate_shares * table.nominal_capacity_uips,
        np.broadcast_to(np.int64(nominal_index), candidate_shares.shape),
        nominal_index,
    )
    path = choices[..., 0].copy()
    unsettled = (choices != path[..., np.newaxis]).any(axis=-1)
    if unsettled.any():
        rows, steps = np.nonzero(unsettled)
        count_rows = counts.tolist()
        column_rows = column.tolist()
        path_rows = path.tolist()
        # Row-major order: each row's steps ascend, so the previous
        # step's choice is final by the time a step reads it.
        for row, step in zip(rows.tolist(), steps.tolist()):
            previous = path_rows[row][step - 1] if step else nominal_index
            k = count_rows[row][step]
            path_rows[row][step] = int(
                choices[row, step, column_rows[k - 1][previous]]
            )
        path = np.array(path_rows, dtype=np.int64)
    previous = np.empty_like(path)
    previous[:, 0] = nominal_index
    previous[:, 1:] = path[:, :-1]
    shares = np.where(
        targets, (mass * ratio[counts - 1, previous])[:, np.newaxis, :], 0.0
    )
    idx = np.repeat(path[:, np.newaxis, :], fleet_size, axis=1)
    if single:
        return shares[0], idx[0]
    return shares, idx


# -- governor selection -----------------------------------------------------------------


def _sequential_selection(
    table: FrequencyTable,
    governor: Governor,
    routing: RoutingPolicy,
    mass_list: List[float],
    timeline: _StateTimeline,
    shares2d: np.ndarray,
    idx2d: np.ndarray,
    fleet_size: int,
    top2d: np.ndarray | None,
) -> None:
    """Step-at-a-time selection for state-coupled policies.

    Handles the two cross-step couplings the vectorized path cannot:
    ``least_loaded`` routing (shares depend on the previous step's
    frequencies) and the ``conservative`` governor (one notch off the
    node's own previous choice).  Vectorized across the fleet at each
    step; woken nodes restart from the top of their grid exactly like
    :meth:`ServerNode.wake`, and a thermal cap clamps a node's previous
    index from its step on, whatever the node's power state, like
    :meth:`ServerNode.apply_thermal_cap`.  A synchronized
    ``least_loaded`` replay takes :func:`_least_loaded_chain` instead.
    """
    obs.count("fleet.selection_step_rows")
    least_loaded = type(routing) is LeastLoadedRouting
    nominal_capacity = table.nominal_capacity_uips
    capacities = table.capacity_uips.tolist()
    tops = np.full(fleet_size, table.nominal_index, dtype=np.int64)
    previous = tops.copy()
    for index, mass in enumerate(mass_list):
        if top2d is not None:
            tops = top2d[:, index]
            # The previous index never exceeds the cap in force, so
            # clamping every step only bites at a cap's own step.
            np.minimum(previous, tops, out=previous)
        for node in timeline.woken[index]:
            previous[node] = tops[node]
        for node in timeline.restarted[index]:
            # Static-fleet restores wake(0): DVFS history resets.
            previous[node] = tops[node]
        if least_loaded:
            targets = (
                timeline.serving_ids[index] or timeline.active_ids[index]
            )
            if not targets:
                raise ValueError(_NO_ACTIVE_NODE)
            weights = [
                capacities[previous[node]] / nominal_capacity
                for node in targets
            ]
            total = 0.0
            for weight in weights:
                total += weight
            if total <= 0.0:
                weights = [1.0] * len(targets)
                total = float(len(targets))
            for node, weight in zip(targets, weights):
                shares2d[node, index] = mass * (weight / total)
        serving = timeline.select_ids[index]
        if serving:
            selector = np.asarray(serving, dtype=np.int64)
            utilization = shares2d[selector, index]
            demand = utilization * nominal_capacity
            chosen = select_step_indices(
                governor,
                table,
                utilization,
                demand,
                previous[selector],
                table.nominal_index if top2d is None else tops[selector],
            )
            idx2d[selector, index] = chosen
            previous[selector] = chosen


# -- queueing tails ---------------------------------------------------------------------

# The p99 constants, spelled exactly as the scalar queue models compute
# them: MG1Queue's ``1.0 - percentile / 100.0`` and MM1Queue's
# ``-math.log(1.0 - percentile / 100.0)`` for percentile = 99.0.
_P99_TAIL_PROBABILITY = 1.0 - 99.0 / 100.0
_P99_MM1_FACTOR = -math.log(1.0 - 99.0 / 100.0)


def tail_latencies(
    table: FrequencyTable,
    workload: WorkloadCharacteristics,
    indices: np.ndarray,
    demand_uips: np.ndarray,
) -> np.ndarray:
    """Closed-form p99 tails for a batch of (grid index, demand) pairs.

    Exact float twin of ``FleetSimulator._node_tail_latency``: the same
    guards in the same order (NaN base latency, non-positive capacity,
    saturation at ``1 - _STABILITY_EPSILON``), then the M/M/1 or
    Marchal-corrected M/G/1 percentile with the scalar models'
    expressions term for term.  The pairs are deduplicated so each
    distinct operating point is solved once.  The one transcendental
    term, ``log(rho / tail_probability)``, is evaluated with
    ``math.log`` per *unique* pair because ``np.log`` is not
    bit-identical to ``math.log`` everywhere.
    """
    indices = np.asarray(indices, dtype=np.int64)
    demand = np.asarray(demand_uips, dtype=np.float64)
    if indices.size == 0:
        return np.empty(0, dtype=np.float64)
    # Two real-valued dedups instead of one over (index, demand) rows:
    # rank the distinct demands, then dedup the injective integer key
    # rank * grid_size + index.  A float and an int sort are far cheaper
    # than a complex or void-dtype one, and the distinct keys are
    # exactly the distinct pairs.  (+0.0/-0.0 demands share a rank, but
    # both produce bit-identical tails through every branch below.)
    grid_size = len(table)
    demand_values, demand_rank = np.unique(demand, return_inverse=True)
    keys, inverse = np.unique(
        demand_rank * grid_size + indices, return_inverse=True
    )
    obs.count("fleet.tail_pairs", int(indices.size))
    obs.count("fleet.tail_unique_pairs", int(keys.size))
    grid = keys % grid_size
    unique_demand = demand_values[keys // grid_size]

    base = table.latency_seconds[grid]
    capacity = table.capacity_uips[grid]
    positive = capacity > 0.0
    utilization = np.where(
        positive, unique_demand / np.where(positive, capacity, 1.0), np.inf
    )
    nan_base = np.isnan(base)
    stable = positive & (utilization < 1.0 - _STABILITY_EPSILON) & ~nan_base

    out = np.full(len(keys), np.inf, dtype=np.float64)
    if np.any(stable):
        s_capacity = capacity[stable]
        s_demand = unique_demand[stable]
        instructions = workload.instructions_per_request
        service_time = instructions / s_capacity
        arrival_rate = s_demand / instructions
        cv = workload.service_time_cv
        if cv == 1.0:
            # MM1Queue: -log(tail) * 1 / (service_rate - arrival_rate).
            service_rate = s_capacity / instructions
            response_p99 = _P99_MM1_FACTOR * (
                1.0 / (service_rate - arrival_rate)
            )
        else:
            # MG1Queue, corrected percentile: P-K mean waiting time,
            # idle atom below the tail probability, exponential tail
            # above it.
            rho = arrival_rate * service_time
            cv_squared = cv * cv
            mean_waiting = (rho * service_time * (1.0 + cv_squared)) / (
                2.0 * (1.0 - rho)
            )
            waits = rho > _P99_TAIL_PROBABILITY
            waiting_tail = np.zeros(len(rho), dtype=np.float64)
            if np.any(waits):
                ratios = rho[waits] / _P99_TAIL_PROBABILITY
                logs = np.fromiter(
                    map(math.log, ratios.tolist()),
                    dtype=np.float64,
                    count=len(ratios),
                )
                waiting_tail[waits] = (
                    mean_waiting[waits] / rho[waits]
                ) * logs
            response_p99 = service_time + waiting_tail
        out[stable] = base[stable] + np.maximum(
            0.0, response_p99 - service_time
        )
    out[nan_base] = np.nan
    return out[inverse]


def _worst_tails(
    table: FrequencyTable,
    workload: WorkloadCharacteristics,
    serving: np.ndarray,
    shares: np.ndarray,
    idx: np.ndarray,
) -> np.ndarray:
    """Per step: the worst loaded node's tail, NaN when none is loaded.

    Reduces the node axis of ``(N, T)`` or ``(B, N, T)`` inputs.
    Matches the reference loop's running-max semantics: NaN tails never
    displace a finite worst, and a step with no loaded serving node (or
    only NaN tails) stays NaN.
    """
    loaded = serving & (shares > 0.0)
    tails = np.full(shares.shape, np.nan, dtype=np.float64)
    tails[loaded] = tail_latencies(
        table,
        workload,
        idx[loaded],
        shares[loaded] * table.nominal_capacity_uips,
    )
    defined = ~np.isnan(tails)
    candidates = np.where(defined, tails, -np.inf)
    return np.where(
        defined.any(axis=-2), candidates.max(axis=-2), np.nan
    )


# -- exact reductions -------------------------------------------------------------------


def _rowsum(array: np.ndarray) -> np.ndarray:
    """Node-axis totals of ``(N, T)`` or ``(B, N, T)``, node by node.

    NumPy's ``sum`` uses pairwise/unrolled accumulation whose float
    rounding differs from the reference loop's sequential ``+=`` per
    node; this explicit walk in ascending id order reproduces it.
    """
    total = np.zeros(array.shape[:-2] + array.shape[-1:], dtype=np.float64)
    for node in range(array.shape[-2]):
        total += array[..., node, :]
    return total


# -- the kernel -------------------------------------------------------------------------


def fleet_replay_columns(
    table: FrequencyTable,
    workload: WorkloadCharacteristics,
    fleet_size: int,
    governor: Governor,
    routing: RoutingPolicy,
    autoscaler: Autoscaler | None,
    off_power_w: float,
    trace: LoadTrace,
    use_queueing: bool,
    disturbances: DisturbanceSchedule | None = None,
) -> Tuple[Dict[str, np.ndarray], Dict[int, Dict[str, np.ndarray]]]:
    """One routing policy's fleet replay as (fleet, per-node) columns.

    Caller guarantees :func:`supports` holds for the trio and has
    validated ``disturbances`` against the fleet, trace and grid; the
    result is bit-for-bit identical to ``FleetSimulator.run``'s object
    path.  Routing targets come from the pre-crash states (a node
    crashing this step was still routed its share -- now dropped as
    violations) while every per-node column reflects the post-crash
    states.  Thermal caps clamp every governor choice to the node's
    per-step top index; demand stays relative to the full platform's
    nominal capacity, so a capped node keeps its true share.
    """
    steps = len(trace)
    utilization = np.asarray(trace.utilization, dtype=np.float64)
    mass = utilization * fleet_size
    mass_list = mass.tolist()
    nominal_capacity = table.nominal_capacity_uips

    timeline = _resolve_states(mass_list, fleet_size, autoscaler, disturbances)
    top2d = _cap_tops(disturbances, table, fleet_size, steps)
    serving2d = timeline.state2d == _SERVING
    booting2d = timeline.state2d == _BOOTING
    if timeline.route_state2d is timeline.state2d:
        route_serving2d = serving2d
        route_booting2d = booting2d
    else:
        route_serving2d = timeline.route_state2d == _SERVING
        route_booting2d = timeline.route_state2d == _BOOTING

    idx2d = np.full((fleet_size, steps), table.nominal_index, dtype=np.int64)
    route_active2d = route_serving2d | route_booting2d
    routing_type = type(routing)
    if routing_type is LeastLoadedRouting:
        resets = bool(timeline.wake_counts.any()) or any(timeline.restarted)
        if _synchronized(table, governor, resets, top2d):
            shares2d, idx2d = _least_loaded_chain(
                table,
                governor,
                mass,
                _route_targets(route_serving2d, route_active2d),
            )
        else:
            shares2d = np.zeros((fleet_size, steps), dtype=np.float64)
            _sequential_selection(
                table, governor, routing, mass_list, timeline, shares2d,
                idx2d, fleet_size, top2d,
            )
    else:
        if routing_type is RoundRobinRouting:
            shares2d = _even_split_shares(mass, route_active2d)
        else:
            target2d = _route_targets(route_serving2d, route_active2d)
            if routing_type is SpreadRouting:
                shares2d = _even_split_shares(mass, target2d)
            else:  # PackRouting
                shares2d = _pack_shares(routing.fill_fraction, mass, target2d)
        if is_memoryless_kernel(governor):
            chosen = select_step_indices(
                governor,
                table,
                shares2d[serving2d],
                shares2d[serving2d] * nominal_capacity,
                idx2d[serving2d],
                table.nominal_index if top2d is None else top2d[serving2d],
            )
            idx2d[serving2d] = chosen
        else:
            _sequential_selection(
                table, governor, routing, mass_list, timeline, shares2d,
                idx2d, fleet_size, top2d,
            )

    demand2d = shares2d * nominal_capacity

    # Per-node columns: gathers over the selected indices, with the
    # booting/off branches exactly as ServerNode.step writes them.
    frequency2d = np.where(serving2d, table.frequencies_hz[idx2d], math.nan)
    power2d = np.where(
        serving2d,
        table.power_w[idx2d],
        np.where(booting2d, table.power_w[0], off_power_w),
    )
    wake_extra2d = np.zeros((fleet_size, steps), dtype=np.float64)
    wake_energy = autoscaler.wake_energy_j if autoscaler is not None else 0.0
    for index, woken in enumerate(timeline.woken):
        for node in woken:
            wake_extra2d[node, index] = wake_energy
    energy2d = power2d * trace.step_seconds + wake_extra2d
    capacity2d = np.where(serving2d, table.capacity_uips[idx2d], 0.0)
    served2d = np.where(serving2d, np.minimum(demand2d, capacity2d), 0.0)
    qos_metric2d = np.where(serving2d, table.qos_metric[idx2d], math.nan)
    qos_ok2d = np.where(serving2d, table.qos_ok[idx2d], True)
    demand_met2d = np.where(
        serving2d,
        table.covers_capacity_uips[idx2d] >= demand2d,
        demand2d <= 0.0,
    )
    violation2d = ~(qos_ok2d & demand_met2d)

    serving_counts = serving2d.sum(axis=0)
    booting_counts = booting2d.sum(axis=0)
    node_violations = violation2d.sum(axis=0)

    if use_queueing:
        tails = _worst_tails(table, workload, serving2d, shares2d, idx2d)
        qos_limit = workload.qos_limit_seconds
        queue_ok = np.isnan(tails) | (tails <= qos_limit + 1e-12)
    else:
        tails = np.full(steps, math.nan)
        queue_ok = np.ones(steps, dtype=bool)

    fleet_columns: Dict[str, np.ndarray] = {
        "step": np.arange(steps, dtype=np.int64),
        "time_s": trace.times(),
        "utilization": utilization,
        "offered_uips": mass * nominal_capacity,
        "served_uips": _rowsum(served2d),
        "total_power_w": _rowsum(power2d),
        "energy_j": _rowsum(energy2d),
        "tail_latency_s": tails,
        "active_servers": (serving_counts + booting_counts).astype(np.int64),
        "serving_servers": serving_counts.astype(np.int64),
        "booting_servers": booting_counts.astype(np.int64),
        "used_servers": (serving2d & (shares2d > 0.0)).sum(axis=0).astype(np.int64),
        "wake_events": timeline.wake_counts,
        "node_violations": node_violations.astype(np.int64),
        "queue_ok": queue_ok,
        "demand_met": demand_met2d.all(axis=0),
        "violation": node_violations > 0,
    }
    node_columns: Dict[int, Dict[str, np.ndarray]] = {
        node: {
            "state": timeline.state2d[node],
            "frequency_hz": frequency2d[node],
            "power_w": power2d[node],
            "energy_j": energy2d[node],
            "demand_uips": demand2d[node],
            "capacity_uips": capacity2d[node],
            "served_uips": served2d[node],
            "qos_metric": qos_metric2d[node],
            "qos_ok": qos_ok2d[node],
            "demand_met": demand_met2d[node],
            "violation": violation2d[node],
        }
        for node in range(fleet_size)
    }
    return fleet_columns, node_columns
