"""Columnar sweep results: the records of a design-space exploration.

A sweep produces one fully-resolved operating point per (workload,
frequency) pair.  :class:`SweepResult` stores those points as NumPy
columns -- one array per field -- so downstream consumers (figures,
tables, validation, reporting) can slice, group and reduce the whole
sweep with vectorised operations instead of re-aggregating flat record
lists by hand.  :class:`OperatingPointRecord` remains the row view:
indexing a :class:`SweepResult` materialises a record identical to the
one the per-point evaluation path returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Sequence

import numpy as np

from repro.core.efficiency import SCOPE_POWER_COLUMN, EfficiencyScope


@dataclass(frozen=True)
class OperatingPointRecord:
    """Everything known about one (workload, frequency) design point."""

    workload_name: str
    workload_class: str
    frequency_hz: float
    vdd: float
    uipc: float
    chip_uips: float
    core_power: float
    soc_power: float
    server_power: float
    memory_read_bandwidth: float
    memory_write_bandwidth: float
    latency_seconds: float | None
    latency_normalized_to_qos: float | None
    degradation: float | None
    meets_qos: bool

    @property
    def cores_efficiency(self) -> float:
        """UIPS/W over the cores' power."""
        return self.chip_uips / self.core_power if self.core_power > 0 else 0.0

    @property
    def soc_efficiency(self) -> float:
        """UIPS/W over the SoC power."""
        return self.chip_uips / self.soc_power if self.soc_power > 0 else 0.0

    @property
    def server_efficiency(self) -> float:
        """UIPS/W over the whole-server power."""
        return self.chip_uips / self.server_power if self.server_power > 0 else 0.0

    def efficiency(self, scope: EfficiencyScope) -> float:
        """Efficiency at the requested scope."""
        if scope is EfficiencyScope.CORES:
            return self.cores_efficiency
        if scope is EfficiencyScope.SOC:
            return self.soc_efficiency
        return self.server_efficiency


@dataclass(frozen=True)
class DseSummary:
    """Per-workload summary of a design-space sweep."""

    workload_name: str
    qos_floor_hz: float | None
    optimal_frequency_by_scope: Dict[str, float]
    best_qos_respecting_frequency: float | None
    best_qos_respecting_efficiency: float | None


_STRING_COLUMNS = ("workload_name", "workload_class")
_FLOAT_COLUMNS = (
    "frequency_hz",
    "vdd",
    "uipc",
    "chip_uips",
    "core_power",
    "soc_power",
    "server_power",
    "memory_read_bandwidth",
    "memory_write_bandwidth",
)
# Optional per-class fields: None is stored as NaN in the column.
_OPTIONAL_COLUMNS = ("latency_seconds", "latency_normalized_to_qos", "degradation")
_BOOL_COLUMNS = ("meets_qos",)

COLUMNS = _STRING_COLUMNS + _FLOAT_COLUMNS + _OPTIONAL_COLUMNS + _BOOL_COLUMNS


def _optional(value: float) -> float | None:
    return None if math.isnan(value) else value


class SweepResult(Sequence):
    """Columnar table of operating-point records.

    The table behaves as a read-only sequence of
    :class:`OperatingPointRecord` (so legacy consumers that iterate a
    record list keep working), while exposing the NumPy columns through
    :meth:`column` for vectorised processing.  ``column`` returns the
    backing array itself (zero-copy); slicing with ``result[a:b]``
    produces a view-backed table, and :meth:`filter` / :meth:`group_by`
    / :meth:`argmax` provide the common reductions.
    """

    def __init__(self, columns: Dict[str, np.ndarray]):
        missing = [name for name in COLUMNS if name not in columns]
        if missing:
            raise ValueError(f"missing sweep columns: {missing}")
        lengths = {name: len(columns[name]) for name in COLUMNS}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"sweep columns have unequal lengths: {lengths}")
        self._columns = {name: columns[name] for name in COLUMNS}

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[OperatingPointRecord]) -> "SweepResult":
        """Build the columnar table from row records."""
        rows = list(records)
        columns: Dict[str, np.ndarray] = {}
        for name in _STRING_COLUMNS:
            columns[name] = np.array(
                [getattr(record, name) for record in rows], dtype=object
            )
        for name in _FLOAT_COLUMNS:
            columns[name] = np.array(
                [getattr(record, name) for record in rows], dtype=np.float64
            )
        for name in _OPTIONAL_COLUMNS:
            columns[name] = np.array(
                [
                    math.nan if getattr(record, name) is None else getattr(record, name)
                    for record in rows
                ],
                dtype=np.float64,
            )
        for name in _BOOL_COLUMNS:
            columns[name] = np.array(
                [getattr(record, name) for record in rows], dtype=bool
            )
        return cls(columns)

    @classmethod
    def concat(cls, parts: Iterable["SweepResult"]) -> "SweepResult":
        """Concatenate several tables, preserving order."""
        tables = list(parts)
        if not tables:
            return cls.from_records([])
        return cls(
            {
                name: np.concatenate([table._columns[name] for table in tables])
                for name in COLUMNS
            }
        )

    # -- columnar access ---------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """The backing array of ``name`` (zero-copy)."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"unknown sweep column {name!r}; available: {COLUMNS}"
            ) from None

    def efficiency(self, scope: EfficiencyScope) -> np.ndarray:
        """UIPS/W at ``scope`` for every row (0 where power is not positive)."""
        power = self._columns[SCOPE_POWER_COLUMN[scope]]
        uips = self._columns["chip_uips"]
        out = np.zeros(len(self), dtype=np.float64)
        np.divide(uips, power, out=out, where=power > 0.0)
        return out

    # -- sequence protocol --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns["frequency_hz"])

    def __iter__(self) -> Iterator[OperatingPointRecord]:
        for index in range(len(self)):
            yield self.record(index)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self.record(int(index))
        if isinstance(index, slice):
            return SweepResult(
                {name: column[index] for name, column in self._columns.items()}
            )
        index = np.asarray(index)
        return SweepResult(
            {name: column[index] for name, column in self._columns.items()}
        )

    def record(self, index: int) -> OperatingPointRecord:
        """Materialise row ``index`` as an :class:`OperatingPointRecord`."""
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"row {index} out of range for {len(self)} rows")
        columns = self._columns
        return OperatingPointRecord(
            workload_name=columns["workload_name"][index],
            workload_class=columns["workload_class"][index],
            frequency_hz=float(columns["frequency_hz"][index]),
            vdd=float(columns["vdd"][index]),
            uipc=float(columns["uipc"][index]),
            chip_uips=float(columns["chip_uips"][index]),
            core_power=float(columns["core_power"][index]),
            soc_power=float(columns["soc_power"][index]),
            server_power=float(columns["server_power"][index]),
            memory_read_bandwidth=float(columns["memory_read_bandwidth"][index]),
            memory_write_bandwidth=float(columns["memory_write_bandwidth"][index]),
            latency_seconds=_optional(float(columns["latency_seconds"][index])),
            latency_normalized_to_qos=_optional(
                float(columns["latency_normalized_to_qos"][index])
            ),
            degradation=_optional(float(columns["degradation"][index])),
            meets_qos=bool(columns["meets_qos"][index]),
        )

    def to_records(self) -> List[OperatingPointRecord]:
        """All rows as records."""
        return list(self)

    def to_dicts(self) -> List[Dict[str, object]]:
        """All rows as plain JSON-able dicts, one per row, in COLUMNS order.

        Optional fields are ``None`` where the column holds NaN, and
        NumPy scalars are converted to native Python types, so the rows
        serialise cleanly to JSON/CSV.
        """
        rows: List[Dict[str, object]] = []
        for index in range(len(self)):
            row: Dict[str, object] = {}
            for name in _STRING_COLUMNS:
                row[name] = str(self._columns[name][index])
            for name in _FLOAT_COLUMNS:
                row[name] = float(self._columns[name][index])
            for name in _OPTIONAL_COLUMNS:
                row[name] = _optional(float(self._columns[name][index]))
            for name in _BOOL_COLUMNS:
                row[name] = bool(self._columns[name][index])
            rows.append(row)
        return rows

    # -- reductions ---------------------------------------------------------------------

    def filter(
        self,
        mask: np.ndarray | Callable[["SweepResult"], np.ndarray] | None = None,
        **equals,
    ) -> "SweepResult":
        """Rows matching a boolean ``mask`` and/or column equality tests.

        ``result.filter(workload_name="Web Search", meets_qos=True)``
        selects by value; a mask array (or a callable producing one from
        the table) composes with the equality tests by logical AND.
        """
        selected = np.ones(len(self), dtype=bool)
        if mask is not None:
            if callable(mask):
                mask = mask(self)
            selected &= np.asarray(mask, dtype=bool)
        for name, value in equals.items():
            selected &= self.column(name) == value
        return self[selected]

    def group_by(self, name: str) -> Dict[object, "SweepResult"]:
        """Split the table by a column, preserving first-appearance order.

        Rows whose key is NaN (an optional column on a workload class
        that does not populate it) form one group keyed by ``nan``,
        ordered last -- every row lands in exactly one group.
        """
        column = self.column(name)
        nan_mask = (
            np.isnan(column) if column.dtype.kind == "f" else np.zeros(0, dtype=bool)
        )
        groups: Dict[object, np.ndarray] = {}
        for key in column:
            if nan_mask.size and np.isnan(key):
                continue
            if key not in groups:
                groups[key] = column == key
        result = {key: self[mask] for key, mask in groups.items()}
        if nan_mask.any():
            result[math.nan] = self[nan_mask]
        return result

    def qos_floor(self, degradation_bound: float | None = None) -> float | None:
        """Lowest swept frequency meeting the QoS, or None if none does.

        Without a bound the record-level ``meets_qos`` flag decides;
        with ``degradation_bound`` the floor is recomputed from the
        degradation column, so one sweep serves any bound.
        """
        if degradation_bound is None:
            mask = self._columns["meets_qos"]
        else:
            with np.errstate(invalid="ignore"):
                mask = self._columns["degradation"] <= degradation_bound + 1e-9
        if not mask.any():
            return None
        return float(self._columns["frequency_hz"][mask].min())

    def argmax(self, column: str | np.ndarray) -> int:
        """Index of the first row maximising a column (or a given array)."""
        values = self.column(column) if isinstance(column, str) else np.asarray(column)
        if len(values) != len(self):
            raise ValueError(
                f"argmax over {len(values)} values on a {len(self)}-row table"
            )
        if len(values) == 0:
            raise ValueError("argmax of an empty sweep")
        return int(np.argmax(values))

    def best(self, column: str | np.ndarray) -> OperatingPointRecord:
        """The record of the first row maximising a column."""
        return self.record(self.argmax(column))

    def __repr__(self) -> str:
        workloads = sorted(set(self._columns["workload_name"]))
        return f"SweepResult({len(self)} rows, workloads={workloads})"
