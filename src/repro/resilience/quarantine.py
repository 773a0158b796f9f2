"""Quarantine records: what failed, where, and why -- not whole batches.

``on_error="quarantine"`` mode (opt-in on
:class:`~repro.kernels.batch.BatchReplayRunner`) replaces "first bad
replay kills the batch" with "bad replays are isolated, everything
else completes".  A real input trips it: a disturbance schedule that
does not fit its fleet, a total outage, or a thermal cap below the
frequency grid.  The isolated replays are reported as
:class:`FailedSummary` placeholders: frozen records of the
failing replay's identity and fault, which take the failed replay's
slot in results so positions stay stable and callers can tell exactly
which replays were lost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.errors import ExecutionFault


@dataclass(frozen=True)
class FailedSummary:
    """Placeholder summary for a quarantined item.

    Sits where the real summary dict would have been, so a batch of B
    replays always yields B entries -- callers check
    ``isinstance(entry, FailedSummary)`` to tell quarantined slots from
    real summaries.
    """

    identity: str
    stage: str
    error_type: str
    message: str

    @classmethod
    def from_fault(cls, fault: ExecutionFault) -> "FailedSummary":
        """The record of one classified fault."""
        return cls(
            identity=fault.identity,
            stage=fault.stage,
            error_type=type(fault).__name__,
            message=str(fault),
        )
