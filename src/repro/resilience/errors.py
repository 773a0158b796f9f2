"""Structured fault taxonomy for batched replays.

A quarantine-mode batch isolates the replays that fail and reports
which ones they were, so every fault carries two structured fields on
top of its message:

* ``identity`` -- which replay failed, as a short human-readable
  string (``"replay 3 (Web Search/qos_tracker/fleet4)"``).
* ``stage`` -- where it failed: ``"spec"`` when validation rejected
  the replay, ``"replay"`` when its evaluation failed.

:class:`SpecError` subclasses :class:`ValueError` so existing
``except ValueError`` contracts (the CLI's error rendering, validation
tests) keep working unchanged.
"""

from __future__ import annotations


class ExecutionFault(Exception):
    """Base fault: an execution failure with a structured identity."""

    stage = "execution"

    def __init__(self, message: str, *, identity: str = "") -> None:
        super().__init__(message)
        self.identity = identity


class SpecError(ExecutionFault, ValueError):
    """A malformed spec rejected at a validation boundary.

    Subclasses :class:`ValueError` so construction-time validation
    keeps its historical contract (``pytest.raises(ValueError)``, the
    CLI's ``except ValueError`` rendering) while gaining the structured
    identity the quarantine path reports.
    """

    stage = "spec"


class ReplayFault(ExecutionFault):
    """A replay evaluation failed (kernel, simulator or summary)."""

    stage = "replay"


def classify(error: BaseException, *, identity: str = "") -> ExecutionFault:
    """Wrap an arbitrary exception into the taxonomy (idempotent).

    Faults already in the taxonomy pass through untouched (their
    identity is filled in when empty); a :class:`ValueError` becomes a
    :class:`SpecError` (validation rejected the item), anything else a
    :class:`ReplayFault`.  The original exception stays reachable
    through ``__cause__`` when wrapped.
    """
    if isinstance(error, ExecutionFault):
        if identity and not error.identity:
            error.identity = identity
        return error
    kind = SpecError if isinstance(error, ValueError) else ReplayFault
    fault = kind(str(error), identity=identity)
    fault.__cause__ = error
    return fault
