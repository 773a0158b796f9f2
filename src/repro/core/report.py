"""Plain-text reporting of design-space exploration results.

The benchmark harnesses print the same rows/series the paper reports;
these helpers render sweep results -- a columnar
:class:`~repro.sweep.result.SweepResult` or any iterable of
:class:`~repro.sweep.result.OperatingPointRecord` -- and
:class:`~repro.sweep.result.DseSummary` collections as aligned text tables.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.sweep.result import DseSummary, OperatingPointRecord, SweepResult
from repro.utils.tables import format_table
from repro.utils.units import to_mhz


def render_operating_points(
    records: SweepResult | Iterable[OperatingPointRecord],
) -> str:
    """Render operating-point records as a table.

    Accepts a columnar :class:`SweepResult` (it iterates as a record
    sequence) or any iterable of records.
    """
    headers = (
        "workload",
        "f (MHz)",
        "Vdd (V)",
        "UIPC",
        "chip GUIPS",
        "P_cores (W)",
        "P_soc (W)",
        "P_server (W)",
        "eff_server (GUIPS/W)",
        "QoS ok",
    )
    rows: List[tuple] = []
    for record in records:
        rows.append(
            (
                record.workload_name,
                round(to_mhz(record.frequency_hz)),
                round(record.vdd, 3),
                round(record.uipc, 3),
                round(record.chip_uips / 1e9, 2),
                round(record.core_power, 2),
                round(record.soc_power, 2),
                round(record.server_power, 2),
                round(record.server_efficiency / 1e9, 3),
                "yes" if record.meets_qos else "no",
            )
        )
    return format_table(headers, rows)


def render_summary(summaries: Iterable[DseSummary]) -> str:
    """Render per-workload sweep summaries as a table."""
    headers = (
        "workload",
        "QoS floor (MHz)",
        "opt cores (MHz)",
        "opt SoC (MHz)",
        "opt server (MHz)",
        "best QoS-ok f (MHz)",
    )
    rows = []
    for summary in summaries:
        optima = summary.optimal_frequency_by_scope
        rows.append(
            (
                summary.workload_name,
                _mhz_or_dash(summary.qos_floor_hz),
                _mhz_or_dash(optima.get("cores")),
                _mhz_or_dash(optima.get("soc")),
                _mhz_or_dash(optima.get("server")),
                _mhz_or_dash(summary.best_qos_respecting_frequency),
            )
        )
    return format_table(headers, rows)


def _mhz_or_dash(frequency_hz) -> str:
    if frequency_hz is None:
        return "-"
    return str(round(to_mhz(frequency_hz)))
