"""Frozen columnar frequency tables: the replay kernels' working set.

A :class:`FrequencyTable` is one (context, workload) pair's reachable
frequency grid flattened into parallel NumPy arrays: server power,
sustained capacity, the QoS metric and flag, the base tail latency and
the derived energy per instruction, all indexed by grid position.  The
vectorized governor and fleet kernels select *indices* into this table
instead of doing dict-keyed
:meth:`~repro.sweep.context.ModelContext.evaluate` lookups per trace
step, which is what makes whole-trace replays a handful of array
gathers.

Every column is produced from the context's memoized
:class:`~repro.sweep.result.OperatingPointRecord` objects -- the same
records the object-based reference path reads -- so a kernel replay is
bit-for-bit identical to the reference replay by construction.  The
arrays are frozen (non-writeable) because the table is shared across
governors, routings and fleets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.dvfs.governors import _DEMAND_TOLERANCE
from repro.sweep.result import OperatingPointRecord
from repro.workloads.base import WorkloadCharacteristics


def _frozen(values, dtype) -> np.ndarray:
    # Always copy: freezing a caller-owned array in place would make
    # the caller's own writes start raising far from this code.
    array = np.array(values, dtype=dtype, copy=True)
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    """One workload's reachable operating points as parallel arrays.

    Parameters
    ----------
    workload_name:
        The workload the table describes.
    frequencies_hz:
        The reachable grid, strictly ascending; index ``-1`` is the
        nominal (demand-reference) frequency.
    capacity_uips / power_w:
        Sustained chip throughput and whole-server power per grid point.
    qos_metric:
        Degradation for VM workloads, latency normalised to the QoS
        limit for scale-out ones, NaN when the model defines neither.
    qos_ok:
        Whether the operating point meets the workload's QoS bound.
    latency_seconds:
        Zero-contention p99 latency (NaN for VM workloads); the fleet
        kernel's queueing tails start from it.
    """

    workload_name: str
    frequencies_hz: np.ndarray
    capacity_uips: np.ndarray
    power_w: np.ndarray
    qos_metric: np.ndarray
    qos_ok: np.ndarray
    latency_seconds: np.ndarray
    covers_capacity_uips: np.ndarray = field(init=False, repr=False)
    energy_per_instruction_j: np.ndarray = field(init=False, repr=False)
    _covering_search: Tuple[
        Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]
    ] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        grid = np.asarray(self.frequencies_hz, dtype=np.float64)
        if grid.size == 0:
            raise ValueError(
                f"frequency table for {self.workload_name!r} needs at "
                "least one frequency"
            )
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError(
                f"frequency table for {self.workload_name!r}: grid must "
                f"be strictly ascending, got {grid.tolist()}"
            )
        for name in ("frequencies_hz", "capacity_uips", "power_w"):
            column = np.asarray(getattr(self, name), dtype=np.float64)
            if column.shape != grid.shape:
                raise ValueError(
                    f"frequency table for {self.workload_name!r}: column "
                    f"{name!r} has {column.size} entries for "
                    f"{grid.size} frequencies"
                )
            if not np.all(np.isfinite(column)):
                raise ValueError(
                    f"frequency table for {self.workload_name!r}: column "
                    f"{name!r} must be finite, got {column.tolist()}"
                )
        for name in ("qos_metric", "latency_seconds"):
            column = np.asarray(getattr(self, name), dtype=np.float64)
            if column.shape != grid.shape:
                raise ValueError(
                    f"frequency table for {self.workload_name!r}: column "
                    f"{name!r} has {column.size} entries for "
                    f"{grid.size} frequencies"
                )
        if np.asarray(self.qos_ok).shape != grid.shape:
            raise ValueError(
                f"frequency table for {self.workload_name!r}: column "
                "'qos_ok' does not match the grid"
            )
        object.__setattr__(self, "frequencies_hz", _frozen(grid, np.float64))
        for name in ("capacity_uips", "power_w", "qos_metric", "latency_seconds"):
            object.__setattr__(
                self, name, _frozen(getattr(self, name), np.float64)
            )
        object.__setattr__(self, "qos_ok", _frozen(self.qos_ok, bool))
        # Precomputed left side of the governors' coverage test
        # (capacity * tolerance >= demand), so whole-trace selections
        # reuse the exact same floats the PlatformView comparison sees.
        object.__setattr__(
            self,
            "covers_capacity_uips",
            _frozen(self.capacity_uips * _DEMAND_TOLERANCE, np.float64),
        )
        # Covering-search lookups, indexed by ``require_qos``: the
        # eligible grid positions, the running maximum of their coverage
        # and a trailing -1 for a miss (see lowest_covering_indices).
        eligible = (np.ones(grid.size, dtype=bool), self.qos_ok)
        object.__setattr__(
            self,
            "_covering_search",
            tuple(
                (
                    _frozen(
                        np.maximum.accumulate(self.covers_capacity_uips[keep]),
                        np.float64,
                    ),
                    _frozen(np.append(np.flatnonzero(keep), -1), np.int64),
                )
                for keep in eligible
            ),
        )
        # Server energy per served instruction at full load; +inf for
        # degenerate zero-capacity points so comparisons stay total.
        positive = self.capacity_uips > 0.0
        object.__setattr__(
            self,
            "energy_per_instruction_j",
            _frozen(
                np.where(
                    positive,
                    self.power_w / np.where(positive, self.capacity_uips, 1.0),
                    np.inf,
                ),
                np.float64,
            ),
        )

    # -- construction -------------------------------------------------------------------

    @classmethod
    def from_records(
        cls, workload_name: str, records: Sequence[OperatingPointRecord]
    ) -> "FrequencyTable":
        """Build a table from fully-resolved records, in grid order."""
        qos_metric = []
        latency = []
        for record in records:
            if record.degradation is not None:
                qos_metric.append(record.degradation)
            elif record.latency_normalized_to_qos is not None:
                qos_metric.append(record.latency_normalized_to_qos)
            else:
                qos_metric.append(np.nan)
            latency.append(
                np.nan
                if record.latency_seconds is None
                else record.latency_seconds
            )
        return cls(
            workload_name=workload_name,
            frequencies_hz=[record.frequency_hz for record in records],
            capacity_uips=[record.chip_uips for record in records],
            power_w=[record.server_power for record in records],
            qos_metric=qos_metric,
            qos_ok=[record.meets_qos for record in records],
            latency_seconds=latency,
        )

    @classmethod
    def from_context(
        cls,
        context,
        workload: WorkloadCharacteristics,
        frequencies: Sequence[float] | None = None,
    ) -> "FrequencyTable":
        """Evaluate one workload's reachable grid into a table.

        Unreachable frequencies are excluded (the same filter the
        :class:`~repro.dvfs.governors.PlatformView` applies); every
        remaining point is resolved through the context's memoized
        ``evaluate``, so repeated builds cost nothing and the
        ``evaluated_points`` accounting counts each point exactly once.
        """
        grid = context.reachable_frequencies(frequencies)
        if not grid:
            raise ValueError(
                f"no reachable frequency for workload "
                f"{workload.name!r}; cannot build a frequency table"
            )
        records = [
            context.evaluate(workload, frequency)
            for frequency in sorted(grid)
        ]
        return cls.from_records(workload.name, records)

    # -- views --------------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.frequencies_hz.size)

    @property
    def nominal_index(self) -> int:
        """Grid index of the nominal (top) frequency."""
        return len(self) - 1

    @property
    def nominal_frequency_hz(self) -> float:
        """Top of the reachable grid (the demand reference)."""
        return float(self.frequencies_hz[-1])

    @property
    def min_frequency_hz(self) -> float:
        """Bottom of the reachable grid."""
        return float(self.frequencies_hz[0])

    @property
    def nominal_capacity_uips(self) -> float:
        """Throughput at the nominal frequency."""
        return float(self.capacity_uips[-1])

    def lowest_covering_indices(
        self, demand_uips: np.ndarray, require_qos: bool = False
    ) -> np.ndarray:
        """Per element: the lowest grid index covering the demand, or -1.

        The vectorized twin of
        :meth:`~repro.dvfs.governors.PlatformView.lowest_covering`: the
        same ``covers_capacity_uips >= demand`` test, answered for a
        whole demand array by one ``searchsorted`` over the running
        maximum of the eligible points' coverage (every point, or only
        those meeting QoS; built once per table).  The first eligible
        point whose running maximum reaches the demand is the first
        that covers it, and the search only compares floats, so the
        answer is exact; a NaN or uncovered demand misses.  Accepts any
        demand shape (a batched ``(B, T)`` tensor included) and returns
        indices of the same shape.
        """
        running_max, lookup = self._covering_search[bool(require_qos)]
        return lookup[
            np.searchsorted(
                running_max,
                np.asarray(demand_uips, dtype=np.float64),
                side="left",
            )
        ]

    def frequencies(self) -> Tuple[float, ...]:
        """The grid as a plain tuple (PlatformView-compatible)."""
        return tuple(float(f) for f in self.frequencies_hz)
