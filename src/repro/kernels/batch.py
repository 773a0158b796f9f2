"""Batched multi-replay tensor engine: one NumPy pass over B replays.

The design-space questions the paper asks (which governor, what fleet
size, which autoscaler band) are answered by sweeping *populations* of
replays.  The single-server replay kernel is already vectorized along
the trace axis; this module adds the batch axis:

* **Single-server stacks** -- B (governor, trace) replays become one
  ``(B, T)`` utilisation tensor (rows padded to the longest trace).
  Memoryless governors select the whole tensor in one covering search
  (a ``searchsorted`` per demand); ``conservative`` walks the T axis
  once with all B rows advancing a notch per step in parallel
  (:func:`~repro.kernels.governors.select_batch_trace_indices`).
* **Fleet stacks** -- B fleet replays sharing one (workload, governor,
  routing kind, queueing) group become ``(B, N, T)`` tensors; fleet
  size, autoscaler, pack fill fraction, off-power and disturbances are
  per-row inputs, and the node axis pads to the largest fleet with
  nodes that are off at every step and add an exact 0.0 to every
  node-axis sum.  The tensors are evaluated in five stages (each one
  ``batch.*`` span per batch): the power-state ``timeline``, one
  plain-int state machine per distinct row (autoscaler decisions plus
  the row's own crash/restore events) stacked into the tensor beside
  the row's thermal-cap tops; ``routing`` on the states before each
  step's crashes land, where ``pack``'s spill is one node-axis
  accumulate over the whole tensor; ``selection``, where synchronized
  ``least_loaded`` rows (memoryless governor, no wake or static
  restore, no cap below nominal) take the grid-index chain of
  :mod:`repro.kernels.fleet` in one pass, while the other
  ``least_loaded`` rows and ``conservative`` stay step-sequential
  *within* a replay but run on whole ``(B, N)`` step slices *across*
  the batch; queueing ``tails`` through the closed-form
  :func:`~repro.kernels.fleet.tail_latencies` kernel once for the
  whole batch; and the node tables and fleet sums (``reduce``).
  Disturbed and undisturbed replays share one batch, and a single
  fleet replay -- ``FleetSimulator.run`` through
  :func:`~repro.kernels.fleet.fleet_replay_columns` -- is a batch of
  one row.
* **What a fleet batch keeps** -- its ``(B, T)`` fleet columns and its
  per-node decisions (power state, wake flag, grid index in the
  smallest integer dtype that holds the grid, routed share): 11 bytes
  per node-step, where the 11 node tables took 60.
  :func:`_node_tables` builds the tables from the decisions:
  ``reduce`` over the whole batch, transiently, for the fleet sums;
  ``columns_for`` / ``result`` for one row, on request; and
  ``results()`` over the whole batch, once for all its rows.  A one-row
  batch -- every single replay -- keeps the tables its reduce built,
  so it builds them once.
* **Summaries** -- one :func:`~repro.dvfs.replay.replay_summaries` call
  per trace length, or one :func:`~repro.fleet.result.fleet_summaries`
  call per (trace length, routing, fleet size, autoscaled) group, over
  exact-length row blocks of just the columns it reads (reducing a
  zero-padded row would change pairwise-summation order).
  The result objects' ``summary()`` runs the same function on one
  row, so each summary key has one arithmetic.

Every fleet row is bit-for-bit identical to the object-based
reference path, ``FleetSimulator.run(..., reference=True)`` -- same
floats, same ints, same NaN/inf placement -- and every single-server
row to a ``governor_replay_columns`` call, itself pinned against
``GovernorSimulator.replay``'s reference path, so the batch engine
inherits the golden fixtures' guarantees.

:class:`BatchReplayRunner` is the user-facing entry point: a list of
:class:`ReplaySpec` in, columnar per-replay summaries (and lazily
materialized :class:`ReplayResult` / :class:`FleetResult` objects)
out.  Only specs whose exact (governor, routing, autoscaler) types have
no kernel -- custom subclasses -- fall back to the per-replay simulator
path, exactly like the single-replay dispatch.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.resilience import check_on_error
from repro.resilience.errors import SpecError, classify
from repro.dvfs.governors import Governor, governor_by_name
from repro.dvfs.replay import (
    REPLAY_SUMMARY_COLUMNS,
    ReplayResult,
    replay_summaries,
)
from repro.dvfs.trace import LoadTrace
from repro.fleet.autoscaler import Autoscaler
from repro.fleet.disturbance import (
    NODE_CRASH,
    NODE_RESTORE,
    DisturbanceSchedule,
)
from repro.fleet.node import NodeState
from repro.fleet.result import (
    FLEET_SUMMARY_COLUMNS,
    FleetResult,
    fleet_summaries,
)
from repro.fleet.routing import (
    LeastLoadedRouting,
    PackRouting,
    RoundRobinRouting,
    RoutingPolicy,
    router_by_name,
)
from repro.kernels import fleet as fleet_kernel
from repro.kernels.governors import (
    has_kernel,
    is_memoryless_kernel,
    select_batch_trace_indices,
    select_step_indices,
)
from repro.kernels.table import FrequencyTable
from repro.utils.validation import check_flag, check_fleet
from repro.workloads.base import WorkloadCharacteristics

if TYPE_CHECKING:
    from repro.resilience.quarantine import FailedSummary

_OFF = int(NodeState.OFF)
_BOOTING = int(NodeState.BOOTING)
_SERVING = int(NodeState.SERVING)


# -- the spec ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplaySpec:
    """One replay of a batch: what to run, on what, with which policies.

    ``fleet_size=None`` is a single-server governor replay (routing,
    autoscaler and off-power must stay unset); a fleet replay needs an
    explicit routing.  Governors and routings accept registry names or
    policy instances, exactly like the simulators; a name is resolved
    to its policy instance here, so an unknown one fails at
    construction with the registry's message.  ``queueing`` must be a
    ``bool``.
    """

    workload: WorkloadCharacteristics
    trace: LoadTrace
    governor: Union[Governor, str] = "qos_tracker"
    fleet_size: Optional[int] = None
    routing: Union[RoutingPolicy, str, None] = None
    autoscaler: Optional[Autoscaler] = None
    off_power_w: float = 0.0
    queueing: bool = True
    disturbances: Optional[DisturbanceSchedule] = None

    def __post_init__(self) -> None:
        try:
            check_flag("queueing", self.queueing)
            if isinstance(self.governor, str):
                object.__setattr__(
                    self, "governor", governor_by_name(self.governor)
                )
            if isinstance(self.routing, str):
                object.__setattr__(
                    self, "routing", router_by_name(self.routing)
                )
        except ValueError as error:
            raise SpecError(f"replay spec: {error}") from None
        if self.fleet_size is None:
            if self.routing is not None:
                raise SpecError(
                    "a routing policy needs a fleet_size; single-server "
                    "replays have no routing"
                )
            if self.autoscaler is not None:
                raise SpecError(
                    "an autoscaler needs a fleet_size; single-server "
                    "replays have no autoscaler"
                )
            if self.off_power_w != 0.0:
                raise SpecError(
                    "off_power_w needs a fleet_size; single-server "
                    "replays have no parked servers"
                )
            if self.disturbances is not None:
                raise SpecError(
                    "a disturbance schedule needs a fleet_size; "
                    "single-server replays have no fleet to disturb"
                )
            return
        try:
            check_fleet(self.fleet_size, self.off_power_w, self.autoscaler)
        except ValueError as error:
            raise SpecError(f"replay spec: {error}") from None
        if self.routing is None:
            raise SpecError("a fleet replay needs a routing policy")

    @property
    def is_fleet(self) -> bool:
        """True when this spec replays a multi-server fleet."""
        return self.fleet_size is not None


def unique_specs(
    specs: Sequence[ReplaySpec],
) -> Tuple[List[ReplaySpec], List[int]]:
    """Deduplicate a spec list, preserving first-seen order.

    Distinct parameter combinations can materialise into identical
    replays -- a pack fill fraction under a non-pack routing, a wake
    latency on a fleet that never autoscales -- and evaluating the
    duplicates would only repeat work.  Returns ``(unique, index_map)``
    where ``unique`` keeps the first occurrence of each spec and
    ``index_map[i]`` is the row in ``unique`` that position ``i`` of
    the input maps to, so callers can scatter batched summaries back to
    their original positions.  Specs compare by value
    (:class:`ReplaySpec` is a frozen dataclass), so two equal specs are
    guaranteed to replay identically.
    """
    unique: List[ReplaySpec] = []
    index_map: List[int] = []
    rows: Dict[ReplaySpec, int] = {}
    for spec in specs:
        row = rows.get(spec)
        if row is None:
            row = len(unique)
            rows[spec] = row
            unique.append(spec)
        index_map.append(row)
    return unique, index_map


# -- shared padding helpers -------------------------------------------------------------


def _padded_utilization(
    traces: Sequence[LoadTrace],
) -> Tuple[np.ndarray, np.ndarray]:
    """Stack trace utilisations into (B, T_max), zero-padded rows."""
    lengths = np.array([len(trace) for trace in traces], dtype=np.int64)
    util2d = np.zeros((len(traces), int(lengths.max())), dtype=np.float64)
    for row, trace in enumerate(traces):
        util2d[row, : lengths[row]] = trace.utilization_array
    return util2d, lengths


def _summaries_by_length(
    reduce, names, columns, lengths, traces, step_seconds, row_labels=None,
    **labels,
) -> List[Dict[str, object]]:
    """Summaries of padded ``(B, T)`` columns, one ``reduce`` per group.

    Rows group by trace length and, when ``row_labels`` is given, by
    ``row_labels[b]``: the ``(label, value)`` pairs row ``b`` does not
    share with the whole batch.  ``reduce`` (:func:`replay_summaries`
    or :func:`fleet_summaries`) sees only the ``names`` columns, cut to
    the group's exact length (a zero-padded row would change the
    pairwise summation order), with the group's trace names, step
    lengths and row labels and the shared ``labels``.
    """
    groups: Dict[tuple, List[int]] = {}
    for row, key in enumerate(
        zip(lengths.tolist(), row_labels or itertools.repeat(()))
    ):
        groups.setdefault(key, []).append(row)
    out: List[Optional[Dict[str, object]]] = [None] * len(traces)
    for (length, row_label), rows in groups.items():
        blocks = {name: columns[name][rows, :length] for name in names}
        group = reduce(
            blocks,
            [traces[row] for row in rows],
            [step_seconds[row] for row in rows],
            **labels,
            **dict(row_label),
        )
        for row, summary in zip(rows, group):
            out[row] = summary
    return out  # type: ignore[return-value]


# -- single-server batches --------------------------------------------------------------


class GovernorReplayBatch:
    """B single-server replays of one governor stacked into (B, T).

    Row ``b`` of every column tensor, sliced to its trace length, is
    bit-identical to ``governor_replay_columns(table, governor,
    traces[b])``.
    """

    def __init__(
        self,
        table: FrequencyTable,
        governor: Governor,
        traces: Sequence[LoadTrace],
        workload: WorkloadCharacteristics,
    ):
        self.table = table
        self.governor = governor
        self.traces = list(traces)
        self.workload = workload
        util2d, self.lengths = _padded_utilization(self.traces)
        demand2d = util2d * table.nominal_capacity_uips
        idx2d = select_batch_trace_indices(governor, table, util2d)
        power2d = table.power_w[idx2d]
        capacity2d = table.capacity_uips[idx2d]
        qos_ok2d = table.qos_ok[idx2d]
        demand_met2d = table.covers_capacity_uips[idx2d] >= demand2d
        step_seconds = np.array(
            [trace.step_seconds for trace in self.traces], dtype=np.float64
        )
        self.columns: Dict[str, np.ndarray] = {
            "utilization": util2d,
            "frequency_hz": table.frequencies_hz[idx2d],
            "power_w": power2d,
            "energy_j": power2d * step_seconds[:, np.newaxis],
            "demand_uips": demand2d,
            "capacity_uips": capacity2d,
            "served_uips": np.minimum(demand2d, capacity2d),
            "qos_metric": table.qos_metric[idx2d],
            "qos_ok": qos_ok2d,
            "demand_met": demand_met2d,
            "violation": ~(qos_ok2d & demand_met2d),
        }

    def __len__(self) -> int:
        return len(self.traces)

    def columns_for(self, row: int) -> Dict[str, np.ndarray]:
        """One replay's column dict (rows sliced to the trace length)."""
        trace = self.traces[row]
        length = len(trace)
        out: Dict[str, np.ndarray] = {
            "step": np.arange(length, dtype=np.int64),
            "time_s": trace.times(),
        }
        for name, tensor in self.columns.items():
            out[name] = tensor[row, :length]
        return out

    def result(self, row: int) -> ReplayResult:
        """Materialize one replay as a full :class:`ReplayResult`."""
        trace = self.traces[row]
        return ReplayResult(
            governor_name=self.governor.name,
            workload_name=self.workload.name,
            trace_name=trace.name,
            step_seconds=trace.step_seconds,
            instructions_per_request=self.workload.instructions_per_request,
            columns=self.columns_for(row),
        )

    def results(self) -> List[ReplayResult]:
        """Every row's :meth:`result`, in row order."""
        return [self.result(row) for row in range(len(self))]

    def summaries(self) -> List[Dict[str, object]]:
        """Per-replay scalar summaries, one :func:`replay_summaries` call
        per trace-length group."""
        return _summaries_by_length(
            replay_summaries,
            REPLAY_SUMMARY_COLUMNS,
            self.columns,
            self.lengths,
            [trace.name for trace in self.traces],
            [trace.step_seconds for trace in self.traces],
            governor=self.governor.name,
            workload=self.workload.name,
            instructions_per_request=self.workload.instructions_per_request,
        )


# -- fleet batches ----------------------------------------------------------------------


@dataclass(frozen=True)
class _RowTimeline:
    """One fleet replay's power states over its own trace length.

    ``route_state`` is what routing sees (after the step's scaling
    decision, before its crashes land) and ``state`` what the nodes do
    (post-crash); without crashes they are one array.  ``wake`` marks
    the (node, step) pairs whose boot began and ``restart`` a static
    fleet's restores -- both restart the node's DVFS history -- and
    each is ``None`` when the replay has none.
    """

    route_state: np.ndarray  # (N, L) int8
    state: np.ndarray  # (N, L) int8
    wake: Optional[np.ndarray]  # (N, L) bool
    restart: Optional[np.ndarray]  # (N, L) bool


def _row_timeline(
    mass: np.ndarray,
    fleet_size: int,
    autoscaler: Optional[Autoscaler],
    disturbances: Optional[DisturbanceSchedule],
) -> _RowTimeline:
    """One replay's power-state machine, over plain Python ints.

    Follows the reference loop of ``FleetSimulator.run`` step for step:
    boots advance, restores land, one scaling decision (lowest-id off
    nodes wake, booting nodes park before the highest-id serving nodes)
    sets what routing sees, and crashes land after routing.  It counts the
    serving and booting nodes instead of rebuilding id lists, and
    snapshots the states only at steps where they change.  A static
    fleet without crashes never changes: one constant fill, no loop, and
    ``mass`` (the row's float64 routed mass) is read only for its
    length; the loop walks it as Python floats.
    """
    steps = len(mass)
    crashes: Dict[int, List[int]] = {}
    restores: Dict[int, List[int]] = {}
    for event in disturbances.events if disturbances is not None else ():
        if event.kind == NODE_CRASH:
            crashes.setdefault(event.step, []).append(event.node_id)
        elif event.kind == NODE_RESTORE:
            restores.setdefault(event.step, []).append(event.node_id)
    if autoscaler is None and not crashes:
        # Restores need an earlier crash, so no node ever changes state.
        state = np.full((fleet_size, steps), _SERVING, dtype=np.int8)
        return _RowTimeline(state, state, None, None)

    loads = mass.tolist()
    if autoscaler is None:
        serving = fleet_size
    else:
        serving = autoscaler.desired_active(loads[0], fleet_size)
        low, high = autoscaler.low, autoscaler.high
    booting = 0
    states = bytearray([_SERVING] * serving + [_OFF] * (fleet_size - serving))
    boot = [0] * fleet_size
    failed = [False] * fleet_size
    starts: List[int] = []
    snapshots: List[bytes] = []
    wakes: Tuple[List[int], List[int]] = ([], [])
    restarts: Tuple[List[int], List[int]] = ([], [])
    changed = True
    for step, load in enumerate(loads):
        if booting:
            for node in range(fleet_size):
                if states[node] == _BOOTING:
                    boot[node] -= 1
                    if boot[node] <= 0:
                        states[node] = _SERVING
                        boot[node] = 0
                        booting -= 1
                        serving += 1
                        changed = True
        for node in restores.get(step, ()):
            failed[node] = False
            if autoscaler is None:
                # The reference's restore on a static fleet: wake(0),
                # serving at once with its DVFS history reset, but no
                # wake event and no wake energy.
                states[node] = _SERVING
                serving += 1
                restarts[0].append(node)
                restarts[1].append(step)
                changed = True
        if autoscaler is not None:
            active = serving + booting
            capacity = serving if serving else booting
            utilization = load / capacity if capacity else math.inf
            if utilization > high or utilization < low:
                desired = autoscaler.desired_active(load, fleet_size)
                if desired > active:
                    off = [
                        node
                        for node in range(fleet_size)
                        if states[node] == _OFF and not failed[node]
                    ]
                    for node in off[: desired - active]:
                        if autoscaler.wake_steps <= 0:
                            states[node] = _SERVING
                            serving += 1
                        else:
                            states[node] = _BOOTING
                            boot[node] = autoscaler.wake_steps
                            booting += 1
                        wakes[0].append(node)
                        wakes[1].append(step)
                        changed = True
                elif desired < active and desired < serving:
                    # Booting nodes park first, then serving ones, each
                    # highest id first.
                    candidates = [
                        node
                        for parked in (_BOOTING, _SERVING)
                        for node in range(fleet_size - 1, -1, -1)
                        if states[node] == parked
                    ]
                    for node in candidates[: active - desired]:
                        if states[node] == _BOOTING:
                            booting -= 1
                        else:
                            serving -= 1
                        states[node] = _OFF
                        boot[node] = 0
                    changed = True
        if changed:
            starts.append(step)
            snapshots.append(bytes(states))
            changed = False
        for node in crashes.get(step, ()):
            if states[node] == _SERVING:
                serving -= 1
            elif states[node] == _BOOTING:
                booting -= 1
            states[node] = _OFF
            boot[node] = 0
            failed[node] = True
            changed = True

    # Each snapshot holds from its step until the next one.
    held = np.frombuffer(b"".join(snapshots), dtype=np.int8)
    route_state = np.repeat(
        held.reshape(len(snapshots), fleet_size).T,
        [end - start for start, end in zip(starts, starts[1:] + [steps])],
        axis=1,
    )
    state = route_state
    if crashes:
        state = route_state.copy()
        for step, nodes in crashes.items():
            state[nodes, step] = _OFF
    return _RowTimeline(
        route_state,
        state,
        _mask(wakes, fleet_size, steps),
        _mask(restarts, fleet_size, steps),
    )


def _mask(
    pairs: Tuple[List[int], List[int]], fleet_size: int, steps: int
) -> Optional[np.ndarray]:
    """An (N, L) mask of (nodes, steps) pairs; ``None`` when empty."""
    if not pairs[0]:
        return None
    mask = np.zeros((fleet_size, steps), dtype=bool)
    mask[pairs] = True
    return mask


def _stack_rows(
    out: np.ndarray,
    blocks: Sequence[Optional[np.ndarray]],
    lengths: Sequence[int],
) -> np.ndarray:
    """Write row ``b``'s ``(n, L)`` block over ``out[b, :n, :L]``, in place.

    Stacks per-row blocks into a ``(B, N, T)`` tensor; a ``None`` block
    leaves its row as it was, and so does a block of ``n < N`` nodes
    for the pad nodes past it.  Returns ``out``.
    """
    for row, (block, length) in enumerate(zip(blocks, lengths)):
        if block is not None:
            out[row, : len(block), :length] = block
    return out


def _batched_sequential_selection(
    table: FrequencyTable,
    governor: Governor,
    mass2d: np.ndarray,
    serving3d: np.ndarray,
    reset3d: np.ndarray,
    target3d: np.ndarray,
    shares3d: Optional[np.ndarray],
    top3d: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Step-at-a-time selection, vectorized across batch and fleet.

    The weights of unsynchronized ``least_loaded`` rows
    (``shares3d=None``, routed here) couple to the previous step's
    frequencies and the ``conservative`` governor to each node's own
    previous choice, so the T axis stays a loop.  The inputs are
    transposed step-major once, and each step is a few whole-``(B, N)``
    array ops: the governor runs on every node and ``np.where`` keeps
    the serving nodes' choices.  ``reset3d`` marks woken and
    static-restored nodes, which restart from their top like
    :meth:`~repro.fleet.node.ServerNode.wake`; ``top3d``
    (``None`` when no row is capped) clamps every node's previous index
    from a cap's step on and bounds every choice.  Returns
    ``(shares3d, idx3d)``; the index of a non-serving node is its last
    choice, which no column reads.
    """
    batch, fleet_size, steps = serving3d.shape
    obs.count("fleet.selection_step_rows", batch)
    nominal_index = table.nominal_index
    nominal_capacity = table.nominal_capacity_uips
    least_loaded = shares3d is None
    serving_t = np.ascontiguousarray(serving3d.transpose(2, 0, 1))
    serving_steps = serving_t.any(axis=(1, 2)).tolist()
    reset_t = reset3d.transpose(2, 0, 1)
    reset_steps = reset3d.any(axis=(0, 1)).tolist()
    top_t = (
        None
        if top3d is None
        else np.ascontiguousarray(top3d.transpose(2, 0, 1))
    )
    if least_loaded:
        target_t = np.ascontiguousarray(target3d.transpose(2, 0, 1))
        count_t = np.maximum(target_t.sum(axis=2), 1).astype(np.float64)
        mass_t = np.ascontiguousarray(mass2d.T)[:, :, np.newaxis]
        weight_of = table.capacity_uips / nominal_capacity
        shares_t = np.empty((steps, batch, fleet_size), dtype=np.float64)
    else:
        shares_t = np.ascontiguousarray(shares3d.transpose(2, 0, 1))
    idx_t = np.empty((steps, batch, fleet_size), dtype=np.int64)
    tops = nominal_index
    previous = np.full((batch, fleet_size), nominal_index, dtype=np.int64)
    for step in range(steps):
        if top_t is not None:
            tops = top_t[step]
            # The previous index never exceeds the cap in force, so
            # clamping every step only bites at a cap's own step.
            previous = np.minimum(previous, tops)
        if reset_steps[step]:
            previous = np.where(reset_t[step], tops, previous)
        if least_loaded:
            targets = target_t[step]
            weights = np.where(targets, weight_of[previous], 0.0)
            # Accumulate is strictly sequential in ascending node order
            # (adding the zero weight of a non-target is float-exact),
            # mirroring the scalar loop's running sum.
            total = np.add.accumulate(weights, axis=1)[:, -1]
            if total.min() <= 0.0:
                fallback = total <= 0.0
                weights = np.where(
                    fallback[:, np.newaxis] & targets, 1.0, weights
                )
                total = np.where(fallback, count_t[step], total)
            # A non-target's weight is 0.0 and every total is > 0, so its
            # share is already the exact 0.0 the scalar loop leaves.
            shares_t[step] = mass_t[step] * (weights / total[:, np.newaxis])
        if serving_steps[step]:
            shares = shares_t[step]
            chosen = select_step_indices(
                governor,
                table,
                shares,
                shares * nominal_capacity,
                previous,
                tops,
            )
            previous = np.where(serving_t[step], chosen, previous)
        idx_t[step] = previous
    return (
        np.ascontiguousarray(shares_t.transpose(1, 2, 0)),
        np.ascontiguousarray(idx_t.transpose(1, 2, 0)),
    )


def _least_loaded_or_sequential(
    table: FrequencyTable,
    governor: Governor,
    mass2d: np.ndarray,
    valid2d: np.ndarray,
    serving3d: np.ndarray,
    reset3d: np.ndarray,
    target3d: np.ndarray,
    shares3d: Optional[np.ndarray],
    top3d: Optional[np.ndarray],
    chain: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The state-coupled selection, synchronized rows off the step loop.

    ``chain`` marks the synchronized ``least_loaded`` rows
    (``kernels.fleet._synchronized``): they take the closed-form
    ``_least_loaded_chain``, only the other rows step through
    :func:`_batched_sequential_selection`, and the two merge row by
    row.  Returns ``(shares3d, idx3d)``.
    """
    if not chain.any():
        return _batched_sequential_selection(
            table, governor, mass2d, serving3d, reset3d, target3d, shares3d,
            top3d,
        )
    shares3d = np.empty(serving3d.shape, dtype=np.float64)
    idx3d = np.empty(serving3d.shape, dtype=np.int64)
    shares3d[chain], idx3d[chain] = fleet_kernel._least_loaded_chain(
        table, governor, mass2d[chain], target3d[chain], valid2d[chain]
    )
    stepped = ~chain
    if stepped.any():
        shares3d[stepped], idx3d[stepped] = _batched_sequential_selection(
            table,
            governor,
            mass2d[stepped],
            serving3d[stepped],
            reset3d[stepped],
            target3d[stepped],
            None,
            None if top3d is None else top3d[stepped],
        )
    return shares3d, idx3d


def _per_row(values: Sequence, trailing: int):
    """Per-row values as a ``(B, 1, ...)`` float column with ``trailing``
    unit axes; in a one-row batch, the plain value itself, so a single
    replay keeps the scalar arithmetic and does no per-row work."""
    if len(values) == 1:
        return values[0]
    return np.array(values, dtype=np.float64).reshape((-1,) + (1,) * trailing)


def _wake_energy_j(autoscaler: Optional[Autoscaler]) -> float:
    """The energy a wake adds to its node-step; 0.0 without an autoscaler."""
    return 0.0 if autoscaler is None else autoscaler.wake_energy_j


def _node_tables(
    table: FrequencyTable,
    decisions: Dict[str, np.ndarray],
    off_power,
    wake_energy,
    step_seconds: np.ndarray,
    sums_only: bool = False,
) -> Dict[str, np.ndarray]:
    """The node tables of ``(B, N, T)`` decisions, one per node column.

    ``decisions`` maps ``state``, ``wake``, ``index`` and ``share`` to
    each (node, step)'s power state, wake flag, grid index and routed
    share of the offered mass.  Every table is an element-wise gather
    or select on them, so the tables of a slice of rows are those rows'
    tables of the whole batch, bit for bit.  ``off_power`` and
    ``wake_energy`` are per-row values (see :func:`_per_row`) and
    ``step_seconds`` holds one step length per row.  ``sums_only``
    skips the ``frequency_hz`` and ``qos_metric`` gathers, which no
    fleet sum reads; otherwise the rows count as
    ``batch.node_table_rows``.
    """
    state3d = decisions["state"]
    serving3d = state3d == _SERVING
    # One intp key per node-step, the grid index while serving, else
    # len(table): a gather converts a narrow index on every call.
    key3d = np.where(serving3d, decisions["index"], np.intp(len(table)))
    columns = _not_serving_columns(table)
    demand3d = decisions["share"] * table.nominal_capacity_uips
    power3d = np.where(state3d == _OFF, off_power, columns["power_w"][key3d])
    capacity3d = columns["capacity_uips"][key3d]
    qos_ok3d = columns["qos_ok"][key3d]
    # Not serving, this reads demand <= 0.0.
    demand_met3d = columns["covers_capacity_uips"][key3d] >= demand3d
    tables = {
        "state": state3d,
        "power_w": power3d,
        "energy_j": (
            power3d * step_seconds[:, np.newaxis, np.newaxis]
            + np.where(decisions["wake"], wake_energy, 0.0)
        ),
        "demand_uips": demand3d,
        "capacity_uips": capacity3d,
        "served_uips": np.where(
            serving3d, np.minimum(demand3d, capacity3d), 0.0
        ),
        "qos_ok": qos_ok3d,
        "demand_met": demand_met3d,
        "violation": ~(qos_ok3d & demand_met3d),
    }
    if not sums_only:
        obs.count("batch.node_table_rows", len(state3d))
        tables["frequency_hz"] = columns["frequencies_hz"][key3d]
        tables["qos_metric"] = columns["qos_metric"][key3d]
    return tables


@functools.lru_cache(maxsize=32)
def _not_serving_columns(table: FrequencyTable) -> Dict[str, np.ndarray]:
    """The node tables' lookup columns, each extended at ``len(table)``
    by what a node that is not serving reads: a booting node's power,
    0.0 capacity and coverage, QoS met, NaN frequency and QoS metric."""
    return {
        name: np.append(getattr(table, name), extra)
        for name, extra in (
            ("power_w", table.power_w[0]),
            ("capacity_uips", 0.0),
            ("qos_ok", True),
            ("covers_capacity_uips", 0.0),
            ("frequencies_hz", np.nan),
            ("qos_metric", np.nan),
        )
    }


class FleetReplayBatch:
    """B fleet replays of one (governor, routing kind) stacked into (B, N, T).

    All replays share (table, workload, governor, queueing flag) and the
    routing policy's type; each row brings its own trace, fleet size,
    routing instance (pack's fill fraction), autoscaler (or none),
    off-power and disturbance schedule -- the natural shape of a policy
    search over fleet sizes and autoscaler bands.  The node axis pads
    to the largest fleet: a pad node is off at every step, is never a
    routing target, draws no off-power or wake energy, and adds an
    exact 0.0 to every node-axis sum.  Row ``b``, sliced to its trace
    length and its own nodes, is bit-identical to the columns of
    ``FleetSimulator.run(traces[b], routings[b], reference=True,
    disturbances=disturbances[b])`` on a fleet of ``fleet_sizes[b]``
    servers with ``autoscalers[b]`` and ``off_powers_w[b]``, which the
    caller has validated against the fleet, trace and grid.  A one-row
    batch is the single-replay kernel,
    :func:`~repro.kernels.fleet.fleet_replay_columns`.

    After construction the batch holds ``fleet_columns`` and
    ``decisions`` -- the ``(B, N, T)`` arrays ``state``, ``wake``,
    ``index`` and ``share`` that every node column derives from -- but
    never a multi-row batch's node tables: :meth:`columns_for` builds
    one row's on each call.  A one-row batch also keeps the node tables
    its reduce stage built.
    """

    def __init__(
        self,
        table: FrequencyTable,
        workload: WorkloadCharacteristics,
        governor: Governor,
        use_queueing: bool,
        traces: Sequence[LoadTrace],
        fleet_sizes: Sequence[int],
        routings: Sequence[RoutingPolicy],
        autoscalers: Sequence[Optional[Autoscaler]],
        off_powers_w: Sequence[float],
        disturbances: Sequence[Optional[DisturbanceSchedule]],
        timeline_cache: Optional[dict] = None,
    ):
        self.table = table
        self.workload = workload
        self.governor = governor
        self.traces = list(traces)
        self.fleet_sizes = list(fleet_sizes)
        self.routings = list(routings)
        self.autoscalers = list(autoscalers)
        self.off_powers_w = list(off_powers_w)
        self.disturbances = list(disturbances)
        for count, what in (
            (len(self.fleet_sizes), "fleet sizes"),
            (len(self.routings), "routings"),
            (len(self.autoscalers), "autoscalers"),
            (len(self.off_powers_w), "off-powers"),
            (len(self.disturbances), "disturbance schedules"),
        ):
            if count != len(self.traces):
                raise ValueError(
                    f"{count} {what} for {len(self.traces)} traces"
                )
        routing_type = type(self.routings[0])
        if any(type(routing) is not routing_type for routing in self.routings):
            raise ValueError("a fleet batch replays one routing kind")
        util2d, self.lengths = _padded_utilization(self.traces)
        batch, steps = util2d.shape
        fleet_size = max(self.fleet_sizes)
        mass2d = util2d * _per_row(self.fleet_sizes, 1)
        off_power = _per_row(self.off_powers_w, 2)
        if min(self.fleet_sizes) < fleet_size:
            # Pad nodes are off at every step and draw nothing.
            off_power = np.where(
                np.arange(fleet_size)[:, np.newaxis]
                < _per_row(self.fleet_sizes, 2),
                off_power,
                0.0,
            )
        valid2d = (
            np.arange(steps, dtype=np.int64)[np.newaxis, :]
            < self.lengths[:, np.newaxis]
        )
        nominal_capacity = table.nominal_capacity_uips

        # One span per stage and batch (never per step), so a captured
        # run splits the engine's wall without taxing the off path.
        with obs.trace("batch.timeline"):
            timelines = self._row_timelines(
                mass2d, {} if timeline_cache is None else timeline_cache
            )
            lengths = self.lengths.tolist()
            # A padded step keeps node 0 serving and the rest off, the
            # cheapest state that still gives routing a target, so no
            # padded step takes least_loaded's even-split fallback.  No
            # column reads a padded step.
            state3d = np.zeros((batch, fleet_size, steps), dtype=np.int8)
            state3d[:, 0, :] = _SERVING
            _stack_rows(
                state3d, [timeline.state for timeline in timelines], lengths
            )
            # Routing sees the states before each step's crashes land.
            route_state3d = state3d
            if any(row.route_state is not row.state for row in timelines):
                route_state3d = _stack_rows(
                    state3d.copy(),
                    [timeline.route_state for timeline in timelines],
                    lengths,
                )
            wake3d = _stack_rows(
                np.zeros((batch, fleet_size, steps), dtype=bool),
                [timeline.wake for timeline in timelines],
                lengths,
            )
            # Woken and static-restored nodes restart their DVFS history.
            # Only a static row restores, and a static row never wakes a
            # node, so its restarts can overwrite its (all-False) wakes.
            reset3d = wake3d
            if any(row.restart is not None for row in timelines):
                reset3d = _stack_rows(
                    wake3d.copy(),
                    [timeline.restart for timeline in timelines],
                    lengths,
                )
            tops = [
                fleet_kernel._cap_tops(schedule, table, size, length)
                if schedule is not None
                else None
                for schedule, size, length in zip(
                    self.disturbances, self.fleet_sizes, lengths
                )
            ]
            top3d = None
            if any(block is not None for block in tops):
                top3d = _stack_rows(
                    np.full(
                        (batch, fleet_size, steps),
                        table.nominal_index,
                        dtype=np.int64,
                    ),
                    tops,
                    lengths,
                )
        serving3d = state3d == _SERVING
        booting3d = state3d == _BOOTING
        route_serving3d = (
            serving3d
            if route_state3d is state3d
            else route_state3d == _SERVING
        )
        route_active3d = route_state3d != _OFF

        with obs.trace("batch.routing"):
            if routing_type is RoundRobinRouting:
                target3d = route_active3d
            else:
                target3d = fleet_kernel._route_targets(
                    route_serving3d, route_active3d
                )
            if routing_type is PackRouting:
                shares3d = fleet_kernel._pack_shares(
                    _per_row(
                        [routing.fill_fraction for routing in self.routings],
                        2,
                    ),
                    mass2d,
                    target3d,
                    valid2d,
                )
            elif routing_type is LeastLoadedRouting:
                # Frequency-coupled: routed step by step during selection.
                fleet_kernel._target_counts(target3d, valid2d)
                shares3d = None
            else:
                shares3d = fleet_kernel._even_split_shares(
                    mass2d, target3d, valid2d
                )

        with obs.trace("batch.selection"):
            if shares3d is not None and is_memoryless_kernel(governor):
                idx3d = np.full(
                    (batch, fleet_size, steps),
                    table.nominal_index,
                    dtype=np.int64,
                )
                served = shares3d[serving3d]
                idx3d[serving3d] = select_step_indices(
                    governor,
                    table,
                    served,
                    served * nominal_capacity,
                    idx3d[serving3d],
                    table.nominal_index if top3d is None else top3d[serving3d],
                )
            else:
                chain = np.array(
                    [
                        shares3d is None
                        and fleet_kernel._synchronized(
                            table,
                            governor,
                            row.wake is not None or row.restart is not None,
                            top,
                        )
                        for row, top in zip(timelines, tops)
                    ]
                )
                shares3d, idx3d = _least_loaded_or_sequential(
                    table, governor, mass2d, valid2d, serving3d, reset3d,
                    target3d, shares3d, top3d, chain,
                )

        with obs.trace("batch.tails"):
            if use_queueing:
                tails2d = fleet_kernel._worst_tails(
                    table, workload, serving3d, shares3d, idx3d
                )
                qos_limit = workload.qos_limit_seconds
                queue_ok2d = np.isnan(tails2d) | (
                    tails2d <= qos_limit + 1e-12
                )
            else:
                tails2d = np.full((batch, steps), np.nan)
                queue_ok2d = np.ones((batch, steps), dtype=bool)

        with obs.trace("batch.reduce"):
            decisions = {
                "state": state3d,
                "wake": wake3d,
                "index": idx3d,
                "share": shares3d,
            }
            nodes = self._batch_tables(
                decisions, off_power, sums_only=batch > 1
            )
            serving_counts2d = serving3d.sum(axis=1)
            booting_counts2d = booting3d.sum(axis=1)
            node_violations2d = nodes["violation"].sum(axis=1)

            self.fleet_columns: Dict[str, np.ndarray] = {
                "utilization": util2d,
                "offered_uips": mass2d * nominal_capacity,
                "served_uips": fleet_kernel._rowsum(nodes["served_uips"]),
                "total_power_w": fleet_kernel._rowsum(nodes["power_w"]),
                "energy_j": fleet_kernel._rowsum(nodes["energy_j"]),
                "tail_latency_s": tails2d,
                "active_servers": (
                    serving_counts2d + booting_counts2d
                ).astype(np.int64),
                "serving_servers": serving_counts2d.astype(np.int64),
                "booting_servers": booting_counts2d.astype(np.int64),
                "used_servers": (serving3d & (shares3d > 0.0))
                .sum(axis=1)
                .astype(np.int64),
                "wake_events": wake3d.sum(axis=1).astype(np.int64),
                "node_violations": node_violations2d.astype(np.int64),
                "queue_ok": queue_ok2d,
                "demand_met": nodes["demand_met"].all(axis=1),
                "violation": node_violations2d > 0,
            }
            # The batch's record: its decisions, with the grid index in
            # the smallest integer dtype that holds the grid.  A one-row
            # batch also keeps the node tables just built -- they are
            # its only row's -- so a single replay builds them once.
            decisions["index"] = idx3d.astype(
                np.min_scalar_type(len(table) - 1)
            )
            self.decisions: Dict[str, np.ndarray] = decisions
            self._tables = nodes if batch == 1 else None

    def _row_timelines(
        self, mass2d: np.ndarray, cache: dict
    ) -> List[_RowTimeline]:
        """Every row's power-state timeline, memoized in ``cache``.

        A timeline depends only on the row's (fleet size, autoscaler,
        trace, disturbances) -- never on governor or routing -- so a
        runner sweeping governors and routings over one trace set
        computes each distinct row once, and each entry is keyed by one
        row's four.  Traces key by identity, which is far cheaper
        than hashing a long trace by value; each entry holds its trace,
        so the id cannot be reused while the cache lives.  The
        ``batch.timeline_cache_hits`` / ``_misses`` counters count rows.
        """
        timelines: List[_RowTimeline] = []
        hits = 0
        for row, (trace, fleet_size, autoscaler, schedule) in enumerate(
            zip(
                self.traces,
                self.fleet_sizes,
                self.autoscalers,
                self.disturbances,
            )
        ):
            key = (fleet_size, autoscaler, id(trace), schedule)
            cached = cache.get(key)
            if cached is None:
                timeline = _row_timeline(
                    mass2d[row, : len(trace)],
                    fleet_size,
                    autoscaler,
                    schedule,
                )
                cache[key] = (trace, timeline)
            else:
                hits += 1
                timeline = cached[1]
            timelines.append(timeline)
        obs.count("batch.timeline_cache_hits", hits)
        obs.count("batch.timeline_cache_misses", len(timelines) - hits)
        return timelines

    def __len__(self) -> int:
        return len(self.traces)

    def _batch_tables(
        self,
        decisions: Dict[str, np.ndarray],
        off_power,
        sums_only: bool = False,
    ) -> Dict[str, np.ndarray]:
        """:func:`_node_tables` of every row, with ``off_power`` as given."""
        return _node_tables(
            self.table,
            decisions,
            off_power,
            _per_row([_wake_energy_j(a) for a in self.autoscalers], 2),
            np.array(
                [trace.step_seconds for trace in self.traces],
                dtype=np.float64,
            ),
            sums_only,
        )

    def columns_for(
        self, row: int, tables: Optional[Dict[str, np.ndarray]] = None
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """One replay's fleet ``(T,)`` and node ``(N, T)`` columns,
        sliced to its trace length and its own nodes.

        A one-row batch returns views of the node tables its reduce
        stage kept.  A multi-row batch slices the row from ``tables``,
        the whole batch's node tables that :meth:`results` builds, or
        without them builds the row's tables from its decisions on
        every call.
        """
        trace = self.traces[row]
        length = len(trace)
        fleet: Dict[str, np.ndarray] = {
            "step": np.arange(length, dtype=np.int64),
            "time_s": trace.times(),
        }
        for name, tensor in self.fleet_columns.items():
            fleet[name] = tensor[row, :length]
        nodes = self.fleet_sizes[row]
        if tables is None:
            tables = self._tables
        if tables is None:
            tables = _node_tables(
                self.table,
                {
                    name: array[row : row + 1, :nodes, :length]
                    for name, array in self.decisions.items()
                },
                self.off_powers_w[row],
                _wake_energy_j(self.autoscalers[row]),
                np.array([trace.step_seconds], dtype=np.float64),
            )
            row = 0  # the tables hold this row alone
        return fleet, {
            name: tensor[row, :nodes, :length]
            for name, tensor in tables.items()
        }

    def result(
        self, row: int, tables: Optional[Dict[str, np.ndarray]] = None
    ) -> FleetResult:
        """Materialize one replay as a full :class:`FleetResult`; see
        :meth:`columns_for` for ``tables``."""
        trace = self.traces[row]
        schedule = self.disturbances[row]
        fleet, nodes = self.columns_for(row, tables)
        return FleetResult(
            routing_name=self.routings[row].name,
            governor_name=self.governor.name,
            workload_name=self.workload.name,
            trace_name=trace.name,
            fleet_size=self.fleet_sizes[row],
            step_seconds=trace.step_seconds,
            instructions_per_request=self.workload.instructions_per_request,
            autoscaled=self.autoscalers[row] is not None,
            columns=fleet,
            node_columns=nodes,
            disturbance_events=(
                schedule.events if schedule is not None else ()
            ),
        )

    def results(self) -> List[FleetResult]:
        """Every row's :meth:`result`, in row order.

        A multi-row batch builds the node tables of all its rows in one
        :func:`_node_tables` call, not once per row, and does not keep
        them: only the results' column views do.  A row's slice equals
        its own build bit for bit.
        """
        tables = self._tables
        if tables is None:
            # Pad nodes' off-power is never read: each row is sliced to
            # its own nodes.
            tables = self._batch_tables(
                self.decisions, _per_row(self.off_powers_w, 2)
            )
        return [self.result(row, tables) for row in range(len(self))]

    def summaries(self) -> List[Dict[str, object]]:
        """Per-replay scalar summaries, one :func:`fleet_summaries` call
        per (trace length, routing, fleet size, autoscaled) group."""
        return _summaries_by_length(
            fleet_summaries,
            FLEET_SUMMARY_COLUMNS,
            self.fleet_columns,
            self.lengths,
            [trace.name for trace in self.traces],
            [trace.step_seconds for trace in self.traces],
            [
                (
                    ("routing", routing.name),
                    ("fleet_size", fleet_size),
                    ("autoscaled", autoscaler is not None),
                )
                for routing, fleet_size, autoscaler in zip(
                    self.routings, self.fleet_sizes, self.autoscalers
                )
            ],
            governor=self.governor.name,
            workload=self.workload.name,
            instructions_per_request=self.workload.instructions_per_request,
        )


# -- the user-facing runner -------------------------------------------------------------


def _spec_identity(position: int, spec: ReplaySpec) -> str:
    """A short human-readable identity for one replay of a batch."""
    governor = getattr(spec.governor, "name", type(spec.governor).__name__)
    detail = f"{spec.workload.name}/{governor}"
    if spec.is_fleet:
        detail += f"/fleet{spec.fleet_size}"
    return f"replay {position} ({detail})"


def _quarantined_placement(
    position: int, spec: ReplaySpec, error: Exception
) -> tuple:
    """A ``"failed"`` placement capturing one isolated replay fault."""
    from repro.resilience.quarantine import FailedSummary

    fault = classify(error, identity=_spec_identity(position, spec))
    return ("failed", FailedSummary.from_fault(fault), fault)


class BatchReplayResult:
    """The outcome of one batched run: B replays, columnar access.

    :meth:`summaries` is the cheap bulk product (computed columnar,
    no per-replay objects); :meth:`result` materializes any single
    replay as a full :class:`ReplayResult` / :class:`FleetResult` on
    demand.

    Placements come in three kinds: ``"batch"`` (a row of a tensor
    batch), ``"object"`` (a materialized simulator-path result) and --
    only under ``on_error="quarantine"`` -- ``"failed"`` (a
    :class:`~repro.resilience.FailedSummary` holding the slot of a
    replay whose failure was isolated).  Failed slots keep submission
    order stable: :meth:`summaries` yields the placeholder,
    :meth:`result` re-raises the captured fault.
    """

    def __init__(self, specs, placements):
        self._specs = specs
        self._placements = placements
        self._summaries: Optional[List[Dict[str, object]]] = None

    def __len__(self) -> int:
        return len(self._specs)

    @property
    def specs(self) -> List[ReplaySpec]:
        """The specs, in submission order."""
        return list(self._specs)

    @property
    def batched_count(self) -> int:
        """Replays that ran through the tensor engine."""
        return sum(
            1 for kind, *_ in self._placements if kind == "batch"
        )

    @property
    def fallback_count(self) -> int:
        """Replays that fell back to the per-replay simulator path."""
        return sum(
            1 for kind, *_ in self._placements if kind == "object"
        )

    @property
    def quarantined_count(self) -> int:
        """Replays whose failures were isolated (quarantine mode only)."""
        return sum(
            1 for kind, *_ in self._placements if kind == "failed"
        )

    def quarantined(self) -> List[Tuple[int, FailedSummary]]:
        """``(index, FailedSummary)`` for every quarantined replay."""
        return [
            (index, placement[1])
            for index, placement in enumerate(self._placements)
            if placement[0] == "failed"
        ]

    def result(self, index: int):
        """Replay ``index`` as a ReplayResult or FleetResult.

        A quarantined replay has no result: the captured fault is
        re-raised here so the loss cannot pass silently.
        """
        kind, payload, extra = self._placements[index]
        if kind == "batch":
            return payload.result(extra)
        if kind == "failed":
            raise extra
        return payload

    def results(self) -> List[object]:
        """Every replay materialized, in submission order.

        Each tensor batch materializes all its rows in one ``results()``
        call, so a multi-row fleet batch builds its node tables once,
        not once per row.  A quarantined replay re-raises its fault, as
        in :meth:`result`.
        """
        per_batch: Dict[int, List[object]] = {}
        results = []
        for kind, payload, extra in self._placements:
            if kind == "batch":
                key = id(payload)
                if key not in per_batch:
                    per_batch[key] = payload.results()
                results.append(per_batch[key][extra])
            elif kind == "failed":
                raise extra
            else:
                results.append(payload)
        return results

    def summaries(self) -> List[Dict[str, object]]:
        """Per-replay scalar summaries, in submission order.

        Bit-for-bit what ``result(i).summary()`` returns, computed as
        columnar reductions over the batch tensors (cached).
        Quarantined slots carry their
        :class:`~repro.resilience.FailedSummary` placeholder instead
        of a summary dict.
        """
        if self._summaries is None:
            per_batch: Dict[int, List[Dict[str, object]]] = {}
            summaries = []
            for kind, payload, row in self._placements:
                if kind == "batch":
                    key = id(payload)
                    if key not in per_batch:
                        per_batch[key] = payload.summaries()
                    summaries.append(per_batch[key][row])
                elif kind == "failed":
                    summaries.append(payload)
                else:
                    summaries.append(payload.summary())
            self._summaries = summaries
        return list(self._summaries)


class BatchReplayRunner:
    """Spec list in, columnar per-replay summaries out.

    Groups single-server specs by (workload, governor) and fleet specs
    by (workload, governor, routing kind, queueing) -- fleet size,
    autoscaler, pack fill fraction, off-power and disturbance schedule
    are per-row inputs of :class:`FleetReplayBatch` -- runs each group
    as one tensor batch, and falls back to the per-replay
    simulator path only for specs whose exact policy types have no
    kernel (custom subclasses), the same dispatch rule the
    single-replay simulators apply.  A disturbance schedule is checked
    per spec, with the simulator's own checks and messages, before any
    group is built.

    ``on_error="raise"`` (the default) fails the whole run on the
    first bad spec, exactly as before.  ``on_error="quarantine"``
    isolates failures instead: a failing replay becomes a
    :class:`~repro.resilience.FailedSummary` slot in the result, a
    failing *group* build degrades to the per-member simulator path
    (which is bit-identical, so nothing is lost), and the rest of the
    batch completes untouched, each surviving row bit for bit what a
    clean run produces.
    """

    def __init__(self, context, frequencies=None, on_error="raise"):
        self.context = context
        self.frequencies = frequencies
        self.on_error = check_on_error(on_error)

    # -- resolution --------------------------------------------------------------------

    def _table(self, workload: WorkloadCharacteristics) -> FrequencyTable:
        return self.context.frequency_table(workload, self.frequencies)

    @staticmethod
    def _use_queueing(spec: ReplaySpec) -> bool:
        return (
            spec.queueing
            and spec.workload.is_scale_out
            and spec.workload.instructions_per_request > 0
        )

    # -- execution ---------------------------------------------------------------------

    def run(self, specs: Sequence[ReplaySpec]) -> BatchReplayResult:
        """Evaluate every spec; batched where possible, exact always."""
        specs = list(specs)
        for spec in specs:
            if not isinstance(spec, ReplaySpec):
                raise TypeError(
                    f"BatchReplayRunner needs ReplaySpec items, "
                    f"got {type(spec).__name__}"
                )
        with obs.trace("batch.run", batch_size=len(specs)) as span:
            result = self._run(specs)
            span.set(
                batched=result.batched_count,
                fallback=result.fallback_count,
            )
            if result.quarantined_count:
                span.set(quarantined=result.quarantined_count)
        obs.count("batch.batched_replays", result.batched_count)
        obs.count("batch.fallback_replays", result.fallback_count)
        if result.quarantined_count:
            obs.count("resilience.quarantined", result.quarantined_count)
        return result

    def _run(self, specs: List[ReplaySpec]) -> BatchReplayResult:
        quarantine = self.on_error == "quarantine"
        placements: List[Optional[tuple]] = [None] * len(specs)
        single_groups: Dict[tuple, List[int]] = {}
        fleet_groups: Dict[tuple, List[int]] = {}
        # Power-state timelines memoized per distinct row for the run.
        timeline_cache: dict = {}
        for position, spec in enumerate(specs):
            try:
                governor = spec.governor
                if spec.is_fleet:
                    schedule = spec.disturbances
                    if schedule is not None:
                        # The checks FleetSimulator.run makes, per spec,
                        # so a bad schedule fails (or is quarantined)
                        # alone instead of failing its group's build.
                        schedule.validate_for(
                            spec.fleet_size, len(spec.trace)
                        )
                        schedule.check_caps(
                            self._table(spec.workload).min_frequency_hz
                        )
                    # Fleet size, autoscaler, pack fill, off-power and
                    # disturbances are per-row inputs of the batch.
                    if fleet_kernel.supports(
                        spec.routing, governor, spec.autoscaler
                    ):
                        key = (
                            spec.workload,
                            governor,
                            type(spec.routing),
                            self._use_queueing(spec),
                        )
                        fleet_groups.setdefault(key, []).append(position)
                    else:
                        placements[position] = (
                            "object",
                            self._fallback(spec),
                            0,
                        )
                else:
                    if has_kernel(governor):
                        key = (spec.workload, governor)
                        single_groups.setdefault(key, []).append(position)
                    else:
                        placements[position] = (
                            "object",
                            self._fallback(spec),
                            0,
                        )
            except Exception as error:
                if not quarantine:
                    raise
                placements[position] = _quarantined_placement(
                    position, specs[position], error
                )
        for (workload, governor), positions in single_groups.items():
            try:
                batch = GovernorReplayBatch(
                    self._table(workload),
                    governor,
                    [specs[position].trace for position in positions],
                    workload=workload,
                )
            except Exception:
                if not quarantine:
                    raise
                # A failed group build loses nothing: the per-replay
                # simulator path is bit-identical, so degrade every
                # member to it (quarantining only members that fail
                # even there).
                self._degrade_group(specs, positions, placements)
                continue
            for row, position in enumerate(positions):
                placements[position] = ("batch", batch, row)
        for (workload, governor, _, use_queueing), positions in (
            fleet_groups.items()
        ):
            members = [specs[position] for position in positions]
            try:
                batch = FleetReplayBatch(
                    self._table(workload),
                    workload,
                    governor,
                    use_queueing,
                    [spec.trace for spec in members],
                    [spec.fleet_size for spec in members],
                    [spec.routing for spec in members],
                    [spec.autoscaler for spec in members],
                    [spec.off_power_w for spec in members],
                    [spec.disturbances for spec in members],
                    timeline_cache=timeline_cache,
                )
            except Exception:
                if not quarantine:
                    raise
                self._degrade_group(specs, positions, placements)
                continue
            for row, position in enumerate(positions):
                placements[position] = ("batch", batch, row)
        return BatchReplayResult(specs, placements)

    def _degrade_group(
        self,
        specs: List[ReplaySpec],
        positions: List[int],
        placements: List[Optional[tuple]],
    ) -> None:
        """Re-run a failed group's members through the simulator path."""
        for position in positions:
            try:
                placements[position] = (
                    "object",
                    self._fallback(specs[position]),
                    0,
                )
            except Exception as error:
                placements[position] = _quarantined_placement(
                    position, specs[position], error
                )

    def _fallback(self, spec: ReplaySpec):
        """One unsupported spec through the per-replay simulator path."""
        if spec.is_fleet:
            from repro.fleet.simulator import FleetSimulator

            simulator = FleetSimulator(
                self.context,
                spec.workload,
                fleet_size=spec.fleet_size,
                governor=spec.governor,
                autoscaler=spec.autoscaler,
                frequencies=self.frequencies,
                off_power_w=spec.off_power_w,
                queueing=spec.queueing,
            )
            return simulator.run(
                spec.trace, spec.routing, disturbances=spec.disturbances
            )
        from repro.dvfs.simulator import GovernorSimulator

        simulator = GovernorSimulator(
            self.context, spec.workload, frequencies=self.frequencies
        )
        return simulator.replay(spec.trace, spec.governor)
