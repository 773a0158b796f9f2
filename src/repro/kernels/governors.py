"""Vectorized governor kernels over a :class:`FrequencyTable`.

Each kernel is the whole-array twin of one registered
:class:`~repro.dvfs.governors.Governor` policy: instead of one
``select`` call per trace step it maps an entire utilisation/demand
array to grid *indices* in a handful of NumPy operations.  The
arithmetic mirrors the scalar policies term for term (the same
tolerance-scaled coverage comparison, the same threshold tests, the
same top-of-grid fallbacks), so kernel and reference replays are
bit-for-bit identical -- the property tests pin exactly that.  The top
is an argument: the nominal index on the full grid, or per-element
indices where a thermal cap cuts a node's grid short.

The memoryless policies (``performance``, ``powersave``, ``ondemand``,
``qos_tracker``) are pure batch selections, so a fleet stepper can run
them over every (node, step) pair at once.  The stateful
``conservative`` policy walks the grid one notch at a time; its
whole-trace kernel keeps a tight scalar loop over plain Python floats
(no per-step object or dict traffic), and its batch form advances many
nodes one step in parallel.

Dispatch is by *exact* governor type: a subclass with an overridden
``select`` falls back to the object-based reference path rather than
silently getting the base-class kernel.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

import numpy as np

from repro.dvfs.governors import (
    ConservativeGovernor,
    Governor,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
    QosTrackerGovernor,
)
from repro.kernels.table import FrequencyTable

Top = Union[int, np.ndarray]
"""The highest grid index a selection may pick: ``table.nominal_index``
for the full grid, or a per-element array where thermal caps cut the
grid short (broadcast against the observations)."""

StepKernel = Callable[
    [Governor, FrequencyTable, np.ndarray, np.ndarray, np.ndarray, Top],
    np.ndarray,
]


def _covering_or_top(indices: np.ndarray, top: Top) -> np.ndarray:
    """Lowest covering indices on the grid cut at ``top``.

    The cut grid is a prefix of the full one, so its lowest covering
    point is the full grid's when that lies at or below ``top``; a miss
    (-1) or a hit above the cap falls back to the cut grid's top.
    """
    return np.where((indices < 0) | (indices > top), top, indices)


def _performance_step(
    governor: Governor,
    table: FrequencyTable,
    utilization: np.ndarray,
    demand_uips: np.ndarray,
    previous_index: np.ndarray,
    top: Top,
) -> np.ndarray:
    return np.full(utilization.shape, top, dtype=np.int64)


def _powersave_step(
    governor: Governor,
    table: FrequencyTable,
    utilization: np.ndarray,
    demand_uips: np.ndarray,
    previous_index: np.ndarray,
    top: Top,
) -> np.ndarray:
    return np.zeros(utilization.shape, dtype=np.int64)


def _ondemand_step(
    governor: OndemandGovernor,
    table: FrequencyTable,
    utilization: np.ndarray,
    demand_uips: np.ndarray,
    previous_index: np.ndarray,
    top: Top,
) -> np.ndarray:
    target = demand_uips / governor.up_threshold
    indices = _covering_or_top(table.lowest_covering_indices(target), top)
    return np.where(utilization > governor.up_threshold, top, indices)


def _qos_tracker_step(
    governor: QosTrackerGovernor,
    table: FrequencyTable,
    utilization: np.ndarray,
    demand_uips: np.ndarray,
    previous_index: np.ndarray,
    top: Top,
) -> np.ndarray:
    return _covering_or_top(
        table.lowest_covering_indices(demand_uips, require_qos=True), top
    )


def _conservative_step(
    governor: ConservativeGovernor,
    table: FrequencyTable,
    utilization: np.ndarray,
    demand_uips: np.ndarray,
    previous_index: np.ndarray,
    top: Top,
) -> np.ndarray:
    capacity = table.capacity_uips[previous_index]
    positive = capacity > 0.0
    load = np.where(
        positive,
        demand_uips / np.where(positive, capacity, 1.0),
        1.0,
    )
    notch = (load > governor.up_threshold).astype(np.int64) - (
        load < governor.down_threshold
    ).astype(np.int64)
    # min/max rather than np.clip: the same integers without clip's
    # Python-level dispatch, which the fleet engines pay once per step.
    return np.minimum(np.maximum(previous_index + notch, 0), top)


STEP_KERNELS: Dict[type, StepKernel] = {
    PerformanceGovernor: _performance_step,
    PowersaveGovernor: _powersave_step,
    OndemandGovernor: _ondemand_step,
    QosTrackerGovernor: _qos_tracker_step,
    ConservativeGovernor: _conservative_step,
}
"""One-step batch kernels by exact governor type (fleet stepping)."""

MEMORYLESS_KERNEL_TYPES = frozenset(
    (PerformanceGovernor, PowersaveGovernor, OndemandGovernor, QosTrackerGovernor)
)
"""Governor types whose kernel ignores the previous-frequency state."""


def has_kernel(governor: Governor) -> bool:
    """True when the exact governor type has a vectorized kernel."""
    return type(governor) in STEP_KERNELS


def is_memoryless_kernel(governor: Governor) -> bool:
    """True when the governor's kernel needs no previous-index state."""
    return type(governor) in MEMORYLESS_KERNEL_TYPES


def select_step_indices(
    governor: Governor,
    table: FrequencyTable,
    utilization: np.ndarray,
    demand_uips: np.ndarray,
    previous_index: np.ndarray,
    top: Top,
) -> np.ndarray:
    """Grid indices for one batch of observations (one per element).

    ``top`` is the highest index each choice may take: the scalar
    ``table.nominal_index`` on the full grid, or per-element indices
    for thermally capped nodes, where every policy behaves exactly as
    its ``select`` does on the capped
    :class:`~repro.dvfs.governors.PlatformView`.
    """
    kernel = STEP_KERNELS[type(governor)]
    return kernel(
        governor, table, utilization, demand_uips, previous_index, top
    )


def select_batch_trace_indices(
    governor: Governor, table: FrequencyTable, utilization2d: np.ndarray
) -> np.ndarray:
    """Grid indices for a ``(B, T)`` stack of single-server traces.

    Row ``b`` is bit-identical to
    ``select_trace_indices(governor, table, utilization2d[b])``: the
    memoryless policies select the whole tensor in one kernel call,
    and ``conservative`` walks the T axis once with all B rows
    advancing one notch per step in parallel (the same float
    comparisons as the scalar chain, batched across rows).
    """
    utilization2d = np.asarray(utilization2d, dtype=np.float64)
    demand2d = utilization2d * table.nominal_capacity_uips
    if is_memoryless_kernel(governor):
        previous = np.full(
            utilization2d.shape, table.nominal_index, dtype=np.int64
        )
        return select_step_indices(
            governor, table, utilization2d, demand2d, previous,
            table.nominal_index,
        )
    rows, steps = utilization2d.shape
    out = np.empty((rows, steps), dtype=np.int64)
    previous = np.full(rows, table.nominal_index, dtype=np.int64)
    for step in range(steps):
        previous = select_step_indices(
            governor, table, utilization2d[:, step], demand2d[:, step],
            previous, table.nominal_index,
        )
        out[:, step] = previous
    return out


def select_trace_indices(
    governor: Governor, table: FrequencyTable, utilization: np.ndarray
) -> np.ndarray:
    """Grid indices for a whole single-server trace.

    The first observation sees the nominal frequency as the previous
    one, exactly like :meth:`GovernorSimulator.replay`.
    """
    utilization = np.asarray(utilization, dtype=np.float64)
    demand = utilization * table.nominal_capacity_uips
    if is_memoryless_kernel(governor):
        previous = np.full(utilization.shape, table.nominal_index, dtype=np.int64)
        return select_step_indices(
            governor, table, utilization, demand, previous, table.nominal_index
        )
    # conservative: one notch per step off the previous choice -- a
    # scalar chain over plain floats (the table rows are plain lists
    # here, so the loop body is a few float ops, no array scalars).
    capacities = table.capacity_uips.tolist()
    top = len(capacities) - 1
    up = governor.up_threshold
    down = governor.down_threshold
    index = table.nominal_index
    out = np.empty(len(utilization), dtype=np.int64)
    for step, step_demand in enumerate(demand.tolist()):
        capacity = capacities[index]
        load = step_demand / capacity if capacity > 0 else 1.0
        if load > up:
            if index < top:
                index += 1
        elif load < down:
            if index > 0:
                index -= 1
        out[step] = index
    return out
