"""Batch quarantine: isolate the replays a bad input breaks.

:class:`~repro.kernels.batch.BatchReplayRunner` accepts
``on_error="quarantine"``: a replay whose disturbance schedule does not
fit its fleet, takes every node down at once, or caps below the
frequency grid fails alone, and every other replay of the batch stays
bit for bit what a clean run produces.  Two pieces serve it:

* :mod:`~repro.resilience.errors` -- a structured fault taxonomy
  (every fault knows *which replay* failed and *at which stage*);
* :mod:`~repro.resilience.quarantine` -- :class:`FailedSummary`
  placeholders that hold a failed replay's slot in the results.

Strict mode (fail fast, no wrapping) stays the default.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "errors": ("ExecutionFault", "ReplayFault", "SpecError", "classify"),
        "quarantine": ("FailedSummary",),
    },
)

ON_ERROR_MODES = ("raise", "quarantine")
"""Valid ``on_error=`` values: strict (default) or quarantine."""


def check_on_error(mode: str) -> str:
    """Validate an ``on_error=`` argument; returns it unchanged."""
    if mode not in ON_ERROR_MODES:
        raise ValueError(
            f"on_error must be one of {', '.join(ON_ERROR_MODES)}; "
            f"got {mode!r}"
        )
    return mode


__all__ = [
    "ExecutionFault",
    "FailedSummary",
    "ON_ERROR_MODES",
    "ReplayFault",
    "SpecError",
    "check_on_error",
    "classify",
]
