"""The resilience primitives: taxonomy, quarantine records, chaos.

Unit-level pins for the building blocks the stack wiring relies on:
fault classification is idempotent and identity-preserving, and fault
plans are plain deterministic data.
"""

import math

import pytest

from repro.resilience import (
    AnalysisFault,
    CheckpointError,
    ExecutionFault,
    FailedSummary,
    FaultPlan,
    InjectedFault,
    ReplayFault,
    SpecError,
    check_on_error,
    classify,
    corrupt,
    fault_point,
    inject,
)
from repro.resilience import chaos


# -- taxonomy --------------------------------------------------------------------------


def test_faults_carry_identity_and_stage():
    fault = ReplayFault("kernel blew up", identity="replay 7")
    assert fault.identity == "replay 7"
    assert fault.stage == "replay"
    assert fault.describe() == "replay 7: kernel blew up"
    assert ReplayFault("x").describe() == "x"
    assert issubclass(InjectedFault, ExecutionFault)
    assert InjectedFault("x").stage == "injected"


def test_spec_and_checkpoint_errors_are_value_errors():
    # Existing ``except ValueError`` contracts (CLI rendering,
    # validation tests) must keep catching the new structured types.
    assert issubclass(SpecError, ValueError)
    assert issubclass(CheckpointError, ValueError)
    with pytest.raises(ValueError):
        raise SpecError("bad spec")


def test_analysis_fault_builds_identity_from_names():
    fault = AnalysisFault("boom", scenario="fig2_qos", analysis="policy_opt")
    assert fault.scenario == "fig2_qos"
    assert "fig2_qos" in fault.identity and "policy_opt" in fault.identity


def test_classify_wraps_and_passes_through():
    error = ValueError("bad value")
    fault = classify(error, identity="replay 3")
    assert isinstance(fault, SpecError)
    assert fault.identity == "replay 3"
    assert fault.__cause__ is error

    generic = classify(RuntimeError("boom"), identity="replay 4")
    assert isinstance(generic, ReplayFault)

    analysis = classify(RuntimeError("boom"), stage="analysis")
    assert isinstance(analysis, AnalysisFault)

    # Idempotent: an ExecutionFault passes through, gaining identity
    # only when it has none.
    original = ReplayFault("x", identity="kept")
    assert classify(original, identity="ignored") is original
    assert original.identity == "kept"
    bare = ReplayFault("x")
    assert classify(bare, identity="filled").identity == "filled"


def test_failed_summary_round_trip():
    failed = FailedSummary.from_exception(
        RuntimeError("boom"), identity="replay 5"
    )
    assert failed.identity == "replay 5"
    assert failed.error_type == "ReplayFault"
    record = failed.as_dict()
    assert record["failed"] is True
    assert record["message"] == "boom"
    assert "replay 5" in failed.describe()


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


# -- chaos -----------------------------------------------------------------------------


def test_fault_plan_validation_and_parse():
    plan = FaultPlan.parse("batch.replay:3:raise")
    assert plan == FaultPlan(site="batch.replay", at_call=3, action="raise")
    assert plan.describe() == "batch.replay:3:raise"
    with pytest.raises(ValueError, match="SITE:N:ACTION"):
        FaultPlan.parse("just-a-site")
    with pytest.raises(ValueError, match="integer"):
        FaultPlan.parse("site:x:raise")
    with pytest.raises(ValueError, match="action"):
        FaultPlan.parse("site:1:explode")
    with pytest.raises(ValueError, match="action"):
        FaultPlan.parse("site:1:delay")
    with pytest.raises(ValueError, match="at_call"):
        FaultPlan(site="s", at_call=0)
    with pytest.raises(ValueError, match="site"):
        FaultPlan(site="", at_call=1)
    with pytest.raises(ValueError, match="sites"):
        FaultPlan.seeded(0, sites=())
    with pytest.raises(ValueError, match="max_call"):
        FaultPlan.seeded(0, max_call=0)


def test_seeded_plans_are_pure_functions_of_the_seed():
    plans = [FaultPlan.seeded(seed) for seed in range(24)]
    assert plans == [FaultPlan.seeded(seed) for seed in range(24)]
    assert all(plan.site in chaos.SITES for plan in plans)
    assert all(1 <= plan.at_call <= 16 for plan in plans)
    # The seed sweep actually covers more than one site.
    assert len({plan.site for plan in plans}) > 1


def test_nothing_fires_without_an_active_plan():
    fault_point("batch.replay")
    assert corrupt("tuner.objective", 1.25) == 1.25


def test_inject_scopes_and_restores_the_plan():
    plan = FaultPlan(site="site.a", at_call=2, action="raise")
    with inject(plan):
        assert chaos.active_plan() == plan
        fault_point("site.a")  # call 1: no fire
        fault_point("site.other")
        with pytest.raises(InjectedFault) as excinfo:
            fault_point("site.a", identity="item 2")  # call 2: fires
        assert excinfo.value.identity == "item 2"
        # The plan fires exactly once.
        fault_point("site.a")
        assert chaos.call_counts()["site.a"] == 3
    assert chaos.active_plan() is None


def test_corrupt_replaces_the_value_with_nan():
    plan = FaultPlan(site="tuner.objective", at_call=2, action="nan")
    with inject(plan):
        assert corrupt("tuner.objective", 7.0) == 7.0
        assert math.isnan(corrupt("tuner.objective", 7.0))
        assert corrupt("tuner.objective", 7.0) == 7.0


def test_corrupt_with_raise_action():
    raising = FaultPlan(site="tuner.objective", at_call=1, action="raise")
    with inject(raising):
        with pytest.raises(InjectedFault):
            corrupt("tuner.objective", 7.0, identity="config x")
