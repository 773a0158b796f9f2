"""Structured fault taxonomy for the replay/optimization stack.

Long batch runs fail in qualitatively different ways -- a malformed
spec, a replay blowing up mid-tensor-pass, an analysis dying on one
scenario, a corrupt checkpoint -- and the quarantine and checkpoint
machinery needs to tell them apart *and* know which item failed.
Every fault therefore carries two structured fields on top of its
message:

* ``identity`` -- which spec / replay / scenario / analysis failed,
  as a short human-readable string (``"replay 3 (web_search/diurnal/"
  "qos_tracker)"``, ``"scenario 'opt_autoscaler_bursty'"``).
* ``stage`` -- where in the stack it failed (``"spec"``, ``"replay"``,
  ``"analysis"``, ``"scenario"``, ``"checkpoint"``, ``"injected"``).

:class:`SpecError` and :class:`CheckpointError` subclass
:class:`ValueError` so existing ``except ValueError`` contracts (the
CLI's error rendering, validation tests) keep working unchanged.
"""

from __future__ import annotations

from typing import Optional


class ExecutionFault(Exception):
    """Base fault: an execution failure with a structured identity."""

    stage = "execution"

    def __init__(
        self,
        message: str,
        *,
        identity: str = "",
        stage: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.identity = identity
        if stage is not None:
            self.stage = stage

    def describe(self) -> str:
        """``identity: message`` (just the message with no identity)."""
        message = str(self)
        if self.identity:
            return f"{self.identity}: {message}"
        return message


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


class AnalysisFault(ExecutionFault):
    """A scenario analysis failed; carries scenario + analysis names."""

    stage = "analysis"

    def __init__(
        self,
        message: str,
        *,
        scenario: str = "",
        analysis: str = "",
        identity: str = "",
    ) -> None:
        if not identity and (scenario or analysis):
            identity = f"scenario {scenario!r} analysis {analysis!r}"
        super().__init__(message, identity=identity)
        self.scenario = scenario
        self.analysis = analysis


class InjectedFault(ExecutionFault):
    """A fault raised on purpose by the chaos harness.

    A :class:`~repro.resilience.chaos.FaultPlan` fires at exactly one
    call of one site, so the quarantine property tests can tell which
    item the fault hit.
    """

    stage = "injected"


class CheckpointError(ExecutionFault, ValueError):
    """A checkpoint file is unreadable, truncated, corrupt or stale.

    Every message names the offending file and what exactly was wrong
    with it, so an operator can tell a half-written file (kill during
    write of a non-atomic producer) from bit rot (digest mismatch) from
    schema drift.
    """

    stage = "checkpoint"


def classify(
    error: BaseException, *, identity: str = "", stage: str = "replay"
) -> ExecutionFault:
    """Wrap an arbitrary exception into the taxonomy (idempotent).

    Faults already in the taxonomy pass through untouched (their
    identity is filled in when empty); a :class:`ValueError` becomes a
    :class:`SpecError` (validation rejected the item), anything else a
    :class:`ReplayFault` / stage-appropriate fault.  The original
    exception stays reachable through ``__cause__`` when wrapped.
    """
    if isinstance(error, ExecutionFault):
        if identity and not error.identity:
            error.identity = identity
        return error
    if isinstance(error, ValueError):
        fault: ExecutionFault = SpecError(str(error), identity=identity)
    elif stage == "analysis":
        fault = AnalysisFault(str(error), identity=identity)
    else:
        fault = ReplayFault(str(error), identity=identity, stage=stage)
    fault.__cause__ = error
    return fault
