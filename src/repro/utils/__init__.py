"""Shared utilities for the near-threshold server reproduction.

This package groups small, dependency-free helpers used across the whole
library:

* :mod:`repro.utils.units` -- unit conversion helpers and canonical unit
  conventions used everywhere in the code base (Hz, V, W, J, bytes, s).
* :mod:`repro.utils.validation` -- argument validation helpers that raise
  consistent, descriptive exceptions.
* :mod:`repro.utils.tables` -- minimal plain-text table rendering used by
  benchmark harnesses and report generation.
* :mod:`repro.utils.files` -- atomic file writes for run artifacts.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "units": (
            "GHZ",
            "HZ_PER_GHZ",
            "HZ_PER_MHZ",
            "KB",
            "MB",
            "GB",
            "MHZ",
            "ghz",
            "mhz",
            "to_ghz",
            "to_mhz",
            "joules_per_op_to_nj",
            "nj",
            "mw",
            "uw",
            "seconds_to_ms",
            "ms_to_seconds",
        ),
        "validation": (
            "check_positive",
            "check_non_negative",
            "check_in_range",
            "check_fraction",
        ),
        "tables": ("format_table",),
        "files": ("atomic_write_text",),
    },
)

__all__ = [
    "GHZ",
    "MHZ",
    "HZ_PER_GHZ",
    "HZ_PER_MHZ",
    "KB",
    "MB",
    "GB",
    "ghz",
    "mhz",
    "to_ghz",
    "to_mhz",
    "joules_per_op_to_nj",
    "nj",
    "mw",
    "uw",
    "seconds_to_ms",
    "ms_to_seconds",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_fraction",
    "format_table",
    "atomic_write_text",
]
