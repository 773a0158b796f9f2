"""Fleet replay stages shared over the node axis, and the one-replay entry.

:func:`fleet_replay_columns` -- what ``FleetSimulator.run`` dispatches
to -- is a single-row :class:`~repro.kernels.batch.FleetReplayBatch`,
so one replay and a sweep of thousands run on the same ``(B, N, T)``
engine.  This module holds the stages that engine reads over the node
axis:

1. **Dispatch and caps** -- :func:`supports` names the (routing,
   governor, autoscaler) trios with a kernel, by exact type: any
   subclass with overridden behaviour falls back to the object-based
   reference path.  :func:`_cap_tops` turns a schedule's thermal caps
   into a per-(node, step) top grid index that bounds every choice.
2. **Routing** -- ``round_robin`` and ``spread`` are mask-and-divide
   expressions; ``pack``'s order-dependent spill is one
   ``np.subtract.accumulate`` along the node axis
   (:func:`_pack_shares`); ``least_loaded`` couples to the previous
   step's frequencies, so it is routed during selection.
3. **Synchronized least_loaded** -- a replay with a memoryless
   governor and no cap below nominal, and either no wake and no
   static-fleet restore or the ``performance`` governor, keeps all its
   routing targets on one previous grid index, so a step's shares and
   choice depend only on (step, that index):
   :func:`_least_loaded_chain` settles every such row with one kernel
   call over each step's few distinct candidate shares.
4. **Tails and sums** -- :func:`_worst_tails` reduces each step to its
   worst loaded node's queueing tail; :func:`_rowsum` adds the node
   axis in ascending id order, reproducing the reference loop's
   float-addition order bit for bit.

Queueing tails are evaluated by :func:`tail_latencies`, a closed-form
vectorized twin of the scalar
:class:`~repro.latency.queueing.MM1Queue` / :class:`MG1Queue` math: it
solves every (grid index, demand) pair it is handed with the exact
float expressions the scalar queue models use, and takes the M/G/1
waiting tail's log from the scalar model's own
:data:`~repro.latency.queueing.waiting_tail_log`, applied once to the
array of waiting ratios.  :func:`_worst_tails` keeps the pairs few: it
hands over only the first node of each run of neighbours loaded with
one step's same (grid index, share), since the rest share its tail.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Tuple

import numpy as np

from repro import obs
from repro.dvfs.governors import Governor, PerformanceGovernor
from repro.dvfs.trace import LoadTrace
from repro.fleet.autoscaler import Autoscaler
from repro.fleet.disturbance import THERMAL_CAP, DisturbanceSchedule
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
from repro.latency.queueing import waiting_tail_log
from repro.workloads.base import WorkloadCharacteristics

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
    one previous index: the last step's common choice.  ``performance``
    is the exception to the first rule: its every choice, and every
    restart, is the nominal index, so its targets hold that index even
    when nodes wake or restore.
    """
    return (
        is_memoryless_kernel(governor)
        and (not resets or type(governor) is PerformanceGovernor)
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

    ``targets`` is a ``(B, N, T)`` routing mask and ``mass`` the
    matching ``(B, T)`` offered mass (``valid`` as for
    :func:`_target_counts`); every row must satisfy
    :func:`_synchronized`.  Then a step's k targets all hold the
    previous index p and each gets ``mass * ratio[k - 1, p]``, so the
    step's choice depends only on (step, p).  One governor call
    evaluates every step on each distinct ratio for its k; where those
    candidate choices agree, the step's choice is known whatever p was,
    and only the steps where they differ walk the chain
    ``p(t + 1) = choice(t, p(t))`` in plain Python.  Without a wake, a
    step with no serving node is followed by one with no target, which
    raises, so every routed step's p is the previous step's choice; a
    row that wakes or restores nodes is ``performance``'s, whose every
    choice is the nominal index whether a node serves or not.

    Returns ``(shares, idx)`` shaped like ``targets``: bit for bit the
    step loops' shares, and the common choice at every node (only the
    serving nodes' indices are read).
    """
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
    return shares, idx


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
    expressions term for term.  Every handed pair is solved where it
    stands, repeats included.  The one transcendental term,
    ``log(rho / tail_probability)``, is one
    :data:`~repro.latency.queueing.waiting_tail_log` call over every
    waiting pair's ratio: the function ``MG1Queue`` applies to each
    scalar, so the two agree on any host.
    """
    indices = np.asarray(indices, dtype=np.int64)
    demand = np.asarray(demand_uips, dtype=np.float64)
    if indices.size == 0:
        return np.empty(0, dtype=np.float64)
    obs.count("fleet.tail_pairs", int(indices.size))

    base = table.latency_seconds[indices]
    capacity = table.capacity_uips[indices]
    positive = capacity > 0.0
    utilization = np.where(
        positive, demand / np.where(positive, capacity, 1.0), np.inf
    )
    nan_base = np.isnan(base)
    stable = positive & (utilization < 1.0 - _STABILITY_EPSILON) & ~nan_base

    out = np.full(len(indices), np.inf, dtype=np.float64)
    if np.any(stable):
        s_capacity = capacity[stable]
        s_demand = demand[stable]
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
                waiting_tail[waits] = (
                    mean_waiting[waits] / rho[waits]
                ) * waiting_tail_log(ratios, out=ratios)
            response_p99 = service_time + waiting_tail
        out[stable] = base[stable] + np.maximum(
            0.0, response_p99 - service_time
        )
    out[nan_base] = np.nan
    return out


def _worst_tails(
    table: FrequencyTable,
    workload: WorkloadCharacteristics,
    serving: np.ndarray,
    shares: np.ndarray,
    idx: np.ndarray,
) -> np.ndarray:
    """Per step: the worst loaded node's tail, NaN when none is loaded.

    Reduces the node axis of ``(N, T)`` or ``(B, N, T)`` inputs with
    ``np.fmax``, which matches the reference loop's running-max
    semantics: NaN tails never displace a finite worst, and a step with
    no loaded serving node (or only NaN tails) stays NaN.  A node
    loaded with the previous node's (grid index, share) at the same
    step would repeat that node's tail bit for bit, so it is left out:
    the step's max, NaN and inf included, is unchanged.
    """
    loaded = serving & (shares > 0.0)
    evaluate = loaded.copy()
    evaluate[..., 1:, :] &= ~(
        loaded[..., :-1, :]
        & (idx[..., 1:, :] == idx[..., :-1, :])
        & (shares[..., 1:, :] == shares[..., :-1, :])
    )
    tails = np.full(shares.shape, np.nan, dtype=np.float64)
    tails[evaluate] = tail_latencies(
        table,
        workload,
        idx[evaluate],
        shares[evaluate] * table.nominal_capacity_uips,
    )
    return np.fmax.reduce(tails, axis=-2)


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


# -- one replay -------------------------------------------------------------------------


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
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """One routing policy's fleet replay as fleet ``(T,)`` and node
    ``(N, T)`` columns.

    A single-row :class:`~repro.kernels.batch.FleetReplayBatch`.  The
    caller guarantees :func:`supports` holds for the trio and has
    validated ``disturbances`` against the fleet, trace and grid; the
    result is bit-for-bit identical to ``FleetSimulator.run``'s object
    path.  Routing targets come from the pre-crash states (a node
    crashing this step was still routed its share -- now dropped as
    violations) while every per-node column reflects the post-crash
    states.  Thermal caps clamp every governor choice to the node's
    per-step top index; demand stays relative to the full platform's
    nominal capacity, so a capped node keeps its true share.
    """
    # The batch module imports this one at load time.
    from repro.kernels.batch import FleetReplayBatch

    return FleetReplayBatch(
        table,
        workload,
        governor,
        use_queueing,
        [trace],
        [fleet_size],
        [routing],
        [autoscaler],
        [off_power_w],
        [disturbances],
    ).columns_for(0)

