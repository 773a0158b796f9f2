"""Columnar governor-replay results.

A replay produces one row per trace step; :class:`ReplayResult` stores
the rows as NumPy columns (the :class:`~repro.sweep.result.SweepResult`
shape) and exposes :meth:`~ReplayResult.summary` -- the per-governor
scalars the ``dvfs_replay`` analysis and the golden fixtures pin.
Those come from :func:`replay_summaries`, which reduces ``(B, L)``
column blocks: :meth:`ReplayResult.summary` calls it on one row and the
batch engine once per trace-length group, so each summary key has one
arithmetic, and the reduction properties
(:attr:`~ReplayResult.total_energy_j`, ...) read their key of that
summary.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

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

REPLAY_SUMMARY_COLUMNS = (
    "energy_j",
    "power_w",
    "frequency_hz",
    "served_uips",
    "violation",
)
"""The replay columns :func:`replay_summaries` reads."""


def row_means(block: np.ndarray) -> np.ndarray:
    """``block.mean(axis=1)`` of a float64, integer or bool ``(B, L)``
    block, bit for bit, without the method's Python wrapper: NumPy's
    mean is this float64 ``add.reduce`` and a divide by the count."""
    return np.add.reduce(block, axis=1, dtype=np.float64) / block.shape[1]


def replay_summaries(
    blocks: Mapping[str, np.ndarray],
    traces: Sequence[str],
    step_seconds: Sequence[float],
    *,
    governor: str,
    workload: str,
    instructions_per_request: float,
) -> List[Dict[str, object]]:
    """Reduce B governor replays of L steps each to B summary dicts.

    ``blocks`` maps every :data:`REPLAY_SUMMARY_COLUMNS` name to a
    ``(B, L)`` array whose rows are whole replays: a zero-padded row
    would change the pairwise summation order, and with it the bits.
    Row ``b`` replays trace ``traces[b]``, stepped every
    ``step_seconds[b]`` seconds; the governor and workload are shared
    by every row.  This is the one arithmetic, and the one key layout,
    behind :meth:`ReplayResult.summary` (one row) and the batch
    engine's summaries (one call per trace-length group).
    """
    frequency = blocks["frequency_hz"]
    length = frequency.shape[1]
    energy_sum = blocks["energy_j"].sum(axis=1).tolist()
    power_mean = row_means(blocks["power_w"]).tolist()
    frequency_mean = row_means(frequency).tolist()
    # Distinct frequencies: one plus the number of value changes along
    # each sorted row.
    changes = (np.diff(np.sort(frequency, axis=1), axis=1) != 0).sum(axis=1)
    distinct = (1 + changes).tolist()
    served_sum = blocks["served_uips"].sum(axis=1).tolist()
    violations = blocks["violation"].sum(axis=1).tolist()
    instructions = instructions_per_request
    out: List[Dict[str, object]] = []
    for row, trace in enumerate(traces):
        seconds = step_seconds[row]
        total_energy = energy_sum[row]
        served = served_sum[row] * seconds
        work = served / 1.0e9
        requests = None if instructions <= 0 else served / instructions
        violation_count = violations[row]
        out.append(
            {
                "governor": governor,
                "workload": workload,
                "trace": trace,
                "steps": length,
                "step_seconds": seconds,
                "total_energy_j": total_energy,
                "mean_power_w": power_mean[row],
                "mean_frequency_hz": frequency_mean[row],
                "distinct_frequencies": distinct[row],
                "total_giga_instructions": work,
                "energy_per_giga_instruction_j": (
                    total_energy / work if work > 0 else None
                ),
                "total_requests": requests,
                "energy_per_request_j": (
                    None
                    if requests is None or requests <= 0
                    else total_energy / requests
                ),
                "violation_count": violation_count,
                "violation_fraction": (
                    violation_count / length if length else 0.0
                ),
            }
        )
    return out


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
        self._summary: Optional[Dict[str, object]] = None

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

    # -- reductions: keys of the one-row summary --------------------------------------

    def _scalars(self) -> Dict[str, object]:
        """This replay's :func:`replay_summaries` row, reduced once."""
        if self._summary is None:
            blocks = {
                name: self._columns[name][np.newaxis]
                for name in REPLAY_SUMMARY_COLUMNS
            }
            self._summary = replay_summaries(
                blocks,
                [self.trace_name],
                [self.step_seconds],
                governor=self.governor_name,
                workload=self.workload_name,
                instructions_per_request=self.instructions_per_request,
            )[0]
        return self._summary

    @property
    def total_energy_j(self) -> float:
        """Energy consumed over the whole replay."""
        return self._scalars()["total_energy_j"]

    @property
    def mean_power_w(self) -> float:
        """Average power over the replay (steps are equal-length)."""
        return self._scalars()["mean_power_w"]

    @property
    def mean_frequency_hz(self) -> float:
        """Average running frequency."""
        return self._scalars()["mean_frequency_hz"]

    @property
    def total_giga_instructions(self) -> float:
        """User work actually served over the replay, in 10^9 instructions."""
        return self._scalars()["total_giga_instructions"]

    @property
    def energy_per_giga_instruction_j(self) -> float | None:
        """Energy per 10^9 served instructions (None when nothing ran)."""
        return self._scalars()["energy_per_giga_instruction_j"]

    @property
    def total_requests(self) -> float | None:
        """Requests served (None for workloads without a request size)."""
        return self._scalars()["total_requests"]

    @property
    def energy_per_request_j(self) -> float | None:
        """Energy per served request (None when undefined)."""
        return self._scalars()["energy_per_request_j"]

    @property
    def violation_count(self) -> int:
        """Steps where the QoS bound or the offered load was missed."""
        return self._scalars()["violation_count"]

    @property
    def violation_fraction(self) -> float:
        """Fraction of steps in violation."""
        return self._scalars()["violation_fraction"]

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
        return dict(self._scalars())

    def __repr__(self) -> str:
        return (
            f"ReplayResult({self.governor_name!r} x {self.workload_name!r} "
            f"on {self.trace_name!r}, {len(self)} steps, "
            f"{self.total_energy_j:.0f} J, {self.violation_count} violations)"
        )
