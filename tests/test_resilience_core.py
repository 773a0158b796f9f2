"""The resilience primitives: taxonomy and quarantine records.

Unit-level pins for the building blocks batch quarantine relies on:
fault classification is idempotent and identity-preserving, and a
quarantined slot's record says what failed and why.
"""

import math

import pytest

from repro.resilience import (
    ExecutionFault,
    FailedSummary,
    ReplayFault,
    SpecError,
    check_on_error,
    classify,
)


# -- taxonomy --------------------------------------------------------------------------


def test_faults_carry_identity_and_stage():
    fault = ReplayFault("kernel blew up", identity="replay 7")
    assert fault.identity == "replay 7"
    assert fault.stage == "replay"
    assert str(fault) == "kernel blew up"
    assert ReplayFault("x").identity == ""
    assert issubclass(ReplayFault, ExecutionFault)
    assert SpecError("x").stage == "spec"


def test_spec_errors_are_value_errors():
    # Existing ``except ValueError`` contracts (CLI rendering,
    # validation tests) must keep catching the structured type.
    assert issubclass(SpecError, ValueError)
    with pytest.raises(ValueError):
        raise SpecError("bad spec")


def test_classify_wraps_and_passes_through():
    error = ValueError("bad value")
    fault = classify(error, identity="replay 3")
    assert isinstance(fault, SpecError)
    assert fault.identity == "replay 3"
    assert fault.__cause__ is error

    generic = classify(RuntimeError("boom"), identity="replay 4")
    assert isinstance(generic, ReplayFault)
    assert generic.stage == "replay"

    # Idempotent: an ExecutionFault passes through, gaining identity
    # only when it has none.
    original = ReplayFault("x", identity="kept")
    assert classify(original, identity="ignored") is original
    assert original.identity == "kept"
    bare = ReplayFault("x")
    assert classify(bare, identity="filled").identity == "filled"


def test_failed_summary_round_trip():
    failed = FailedSummary.from_fault(
        classify(RuntimeError("boom"), identity="replay 5")
    )
    assert failed.identity == "replay 5"
    assert failed.error_type == "ReplayFault"
    assert failed.message == "boom"


def test_check_on_error():
    assert check_on_error("raise") == "raise"
    assert check_on_error("quarantine") == "quarantine"
    with pytest.raises(ValueError, match="on_error"):
        check_on_error("ignore")


# -- non-finite values stop at the spec boundary ---------------------------------------


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_replay_spec_rejects_non_finite_off_power(value):
    from repro.dvfs import LoadTrace
    from repro.kernels import ReplaySpec
    from repro.workloads.cloudsuite import WEB_SEARCH

    trace = LoadTrace.bursty(steps=4, seed=1)
    with pytest.raises(SpecError, match="replay spec: off_power_w"):
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            fleet_size=2,
            routing="round_robin",
            off_power_w=value,
        )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_load_trace_rejects_non_finite_step_seconds(value):
    from repro.dvfs import LoadTrace

    with pytest.raises(ValueError, match="step duration"):
        LoadTrace(name="bad", step_seconds=value, utilization=(0.5,))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_load_trace_rejects_non_finite_utilization(value):
    from repro.dvfs import LoadTrace

    with pytest.raises(ValueError, match="utilisation at step 1"):
        LoadTrace(name="bad", step_seconds=60.0, utilization=(0.5, value))
