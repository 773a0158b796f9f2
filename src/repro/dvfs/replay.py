"""Columnar governor-replay results.

A replay produces one row per trace step; :class:`ReplayResult` stores
the rows as NumPy columns (the :class:`~repro.sweep.result.SweepResult`
shape) so energy totals, violation counts and frequency residencies are
vectorised reductions, and exposes :meth:`summary` -- the per-governor
scalars the ``dvfs_replay`` analysis and the golden fixtures pin.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

_FLOAT_COLUMNS = (
    "time_s",
    "utilization",
    "frequency_hz",
    "power_w",
    "energy_j",
    "demand_uips",
    "capacity_uips",
    "served_uips",
)
# QoS metric: degradation for VMs, latency/QoS for scale-out; NaN when
# the model does not define one at the point.
_OPTIONAL_COLUMNS = ("qos_metric",)
_BOOL_COLUMNS = ("qos_ok", "demand_met", "violation")

REPLAY_COLUMNS = ("step",) + _FLOAT_COLUMNS + _OPTIONAL_COLUMNS + _BOOL_COLUMNS


class ReplayResult:
    """Per-step table of one governor replay over one load trace."""

    def __init__(
        self,
        governor_name: str,
        workload_name: str,
        trace_name: str,
        step_seconds: float,
        instructions_per_request: float,
        columns: Dict[str, np.ndarray],
    ):
        missing = [name for name in REPLAY_COLUMNS if name not in columns]
        if missing:
            raise ValueError(f"missing replay columns: {missing}")
        lengths = {name: len(columns[name]) for name in REPLAY_COLUMNS}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"replay columns have unequal lengths: {lengths}")
        self.governor_name = governor_name
        self.workload_name = workload_name
        self.trace_name = trace_name
        self.step_seconds = step_seconds
        self.instructions_per_request = instructions_per_request
        self._columns = {name: columns[name] for name in REPLAY_COLUMNS}

    # -- access -----------------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """The backing array of ``name`` (zero-copy)."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"unknown replay column {name!r}; available: {REPLAY_COLUMNS}"
            ) from None

    def __len__(self) -> int:
        return len(self._columns["step"])

    def to_columns(self) -> Dict[str, list]:
        """All steps as plain JSON-able lists, one per ``REPLAY_COLUMNS`` name.

        Each column is one ``ndarray.tolist()``: the same Python ints,
        floats and bools the backing arrays hold.  An undefined (NaN)
        ``qos_metric`` becomes ``None``, keeping the columns strict JSON.
        """
        columns = {name: self._columns[name].tolist() for name in REPLAY_COLUMNS}
        undefined = np.flatnonzero(np.isnan(self._columns["qos_metric"]))
        for index in undefined.tolist():
            columns["qos_metric"][index] = None
        return columns

    # -- reductions -------------------------------------------------------------------

    @property
    def total_energy_j(self) -> float:
        """Energy consumed over the whole replay."""
        return float(self._columns["energy_j"].sum())

    @property
    def mean_power_w(self) -> float:
        """Average power over the replay (steps are equal-length)."""
        return float(self._columns["power_w"].mean())

    @property
    def mean_frequency_hz(self) -> float:
        """Average running frequency."""
        return float(self._columns["frequency_hz"].mean())

    @property
    def total_giga_instructions(self) -> float:
        """User work actually served over the replay, in 10^9 instructions."""
        served = self._columns["served_uips"].sum() * self.step_seconds
        return float(served / 1.0e9)

    @property
    def energy_per_giga_instruction_j(self) -> float | None:
        """Energy per 10^9 served instructions (None when nothing ran)."""
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
    def energy_per_request_j(self) -> float | None:
        """Energy per served request (None when undefined)."""
        requests = self.total_requests
        if requests is None or requests <= 0:
            return None
        return self.total_energy_j / requests

    @property
    def violation_count(self) -> int:
        """Steps where the QoS bound or the offered load was missed."""
        return int(self._columns["violation"].sum())

    @property
    def violation_fraction(self) -> float:
        """Fraction of steps in violation."""
        return self.violation_count / len(self) if len(self) else 0.0

    def residency(self) -> Dict[float, float]:
        """Fraction of steps spent at each frequency, ascending."""
        frequencies = self._columns["frequency_hz"]
        values, counts = np.unique(frequencies, return_counts=True)
        return {
            float(value): float(count) / len(self)
            for value, count in zip(values, counts)
        }

    def summary(self) -> Dict[str, object]:
        """The replay's scalar outcomes (what the golden fixtures pin)."""
        return {
            "governor": self.governor_name,
            "workload": self.workload_name,
            "trace": self.trace_name,
            "steps": len(self),
            "step_seconds": self.step_seconds,
            "total_energy_j": self.total_energy_j,
            "mean_power_w": self.mean_power_w,
            "mean_frequency_hz": self.mean_frequency_hz,
            "distinct_frequencies": len(self.residency()),
            "total_giga_instructions": self.total_giga_instructions,
            "energy_per_giga_instruction_j": self.energy_per_giga_instruction_j,
            "total_requests": self.total_requests,
            "energy_per_request_j": self.energy_per_request_j,
            "violation_count": self.violation_count,
            "violation_fraction": self.violation_fraction,
        }

    def __repr__(self) -> str:
        return (
            f"ReplayResult({self.governor_name!r} x {self.workload_name!r} "
            f"on {self.trace_name!r}, {len(self)} steps, "
            f"{self.total_energy_j:.0f} J, {self.violation_count} violations)"
        )
