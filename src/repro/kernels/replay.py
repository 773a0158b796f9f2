"""Whole-trace single-server replay: gather columns from the table.

One governor replay becomes: select grid indices for every step (a
vectorized :mod:`~repro.kernels.governors` kernel), then gather the
power/capacity/QoS columns from the :class:`FrequencyTable`.  The
arithmetic -- demand scaling, served-work clamping, the coverage test
behind the violation flag -- mirrors
:meth:`GovernorSimulator.replay` term for term, so the resulting
columns are bit-for-bit identical to the object-based reference path.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.dvfs.governors import Governor
from repro.dvfs.trace import LoadTrace
from repro.kernels.governors import select_trace_indices
from repro.kernels.table import FrequencyTable


def governor_replay_columns(
    table: FrequencyTable, governor: Governor, trace: LoadTrace
) -> Dict[str, np.ndarray]:
    """The full per-step replay table of one governor over one trace."""
    steps = len(trace)
    utilization = trace.utilization_array
    demand = utilization * table.nominal_capacity_uips
    indices = select_trace_indices(governor, table, utilization)

    power = table.power_w[indices]
    capacity = table.capacity_uips[indices]
    qos_ok = table.qos_ok[indices]
    demand_met = table.covers_capacity_uips[indices] >= demand
    return {
        "step": np.arange(steps, dtype=np.int64),
        "time_s": trace.times(),
        "utilization": utilization.copy(),
        "frequency_hz": table.frequencies_hz[indices],
        "power_w": power,
        "energy_j": power * trace.step_seconds,
        "demand_uips": demand,
        "capacity_uips": capacity,
        "served_uips": np.minimum(demand, capacity),
        "qos_metric": table.qos_metric[indices],
        "qos_ok": qos_ok,
        "demand_met": demand_met,
        "violation": ~(qos_ok & demand_met),
    }
