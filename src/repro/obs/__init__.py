"""Zero-dependency instrumentation: spans, counters, run reports.

``repro.obs`` is the stack's single observability layer.  Hot paths
call :func:`trace` / :func:`count` unconditionally -- both are no-ops
until a :func:`capture` window is open -- and callers that want a
performance artifact wrap the work in a capture and freeze it into a
:class:`RunReport` (strict JSON + CLI tables).  See ``core`` for the
primitives and ``report`` for the schema; ``python -m repro.obs``
validates and pretty-prints emitted reports.
"""

from repro.obs.core import (
    Capture,
    Span,
    SpanRecord,
    capture,
    count,
    counters_snapshot,
    disable,
    enable,
    is_enabled,
    reset,
    suspended,
    trace,
)
from repro.obs.report import (
    SCHEMA,
    SCHEMA_VERSION,
    RunReport,
    validate_report,
)

__all__ = [
    "Capture",
    "RunReport",
    "SCHEMA",
    "SCHEMA_VERSION",
    "Span",
    "SpanRecord",
    "capture",
    "count",
    "counters_snapshot",
    "disable",
    "enable",
    "is_enabled",
    "reset",
    "suspended",
    "trace",
    "validate_report",
]
