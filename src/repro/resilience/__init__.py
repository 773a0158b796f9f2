"""Fault-isolated, resumable execution for the replay/opt stack.

Four pieces, used together by :class:`~repro.kernels.batch.BatchReplayRunner`,
:class:`~repro.opt.tuner.PolicyTuner`,
:class:`~repro.scenarios.runner.ScenarioRunner` and the scenarios CLI:

* :mod:`~repro.resilience.errors` -- a structured fault taxonomy
  (every fault knows *which item* failed and *at which stage*);
* :mod:`~repro.resilience.quarantine` -- :class:`FailedSummary`
  placeholders so ``on_error="quarantine"`` mode isolates failures and
  finishes the rest of the batch;
* :mod:`~repro.resilience.checkpoint` -- atomic, digest-validated
  strict-JSON checkpoints for bit-identical resume;
* :mod:`~repro.resilience.chaos` -- a seeded fault injector
  (:class:`FaultPlan`) that the property tests use to prove graceful
  degradation.

Everything is opt-in: strict mode (fail fast, no wrapping) stays the
default everywhere, so existing behaviour and goldens are untouched.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "chaos": ("FaultPlan", "corrupt", "fault_point", "inject"),
        "checkpoint": (
            "CheckpointStore",
            "atomic_write_text",
            "decode_floats",
            "encode_floats",
            "read_checkpoint",
            "write_checkpoint",
        ),
        "errors": (
            "AnalysisFault",
            "CheckpointError",
            "ExecutionFault",
            "InjectedFault",
            "ReplayFault",
            "SpecError",
            "classify",
        ),
        "quarantine": ("FailedSummary",),
    },
)

ON_ERROR_MODES = ("raise", "quarantine")
"""Valid ``on_error=`` values across the stack: strict (default) or
quarantine."""


def check_on_error(mode: str) -> str:
    """Validate an ``on_error=`` argument; returns it unchanged."""
    if mode not in ON_ERROR_MODES:
        raise ValueError(
            f"on_error must be one of {', '.join(ON_ERROR_MODES)}; "
            f"got {mode!r}"
        )
    return mode


__all__ = [
    "AnalysisFault",
    "CheckpointError",
    "CheckpointStore",
    "ExecutionFault",
    "FailedSummary",
    "FaultPlan",
    "InjectedFault",
    "ON_ERROR_MODES",
    "ReplayFault",
    "SpecError",
    "atomic_write_text",
    "check_on_error",
    "classify",
    "corrupt",
    "decode_floats",
    "encode_floats",
    "fault_point",
    "inject",
    "read_checkpoint",
    "write_checkpoint",
]
