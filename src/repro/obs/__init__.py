"""Zero-dependency instrumentation: spans, counters, run reports.

``repro.obs`` is the stack's single observability layer.  Hot paths
call :func:`trace` / :func:`count` unconditionally -- both are no-ops
until a :func:`capture` window is open -- and callers that want a
performance artifact wrap the work in a capture and freeze it into a
:class:`RunReport` (strict JSON + CLI tables).  See ``core`` for the
primitives and ``report`` for the schema; ``python -m repro.obs``
validates and pretty-prints emitted reports.

``core`` (stdlib only) loads with the package, because every engine
calls :func:`trace` / :func:`count`; the report names load on first
access, so a replay process that never freezes a report never compiles
the schema.
"""

from repro._lazy import lazy_exports
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

__getattr__, __dir__ = lazy_exports(
    __name__,
    {"report": ("SCHEMA", "SCHEMA_VERSION", "RunReport", "validate_report")},
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
