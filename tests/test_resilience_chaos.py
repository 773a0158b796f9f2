"""Chaos properties: injected faults isolate exactly what they hit.

The contract these property tests pin, sweeping seeded
:class:`FaultPlan` instances: for ANY single injected fault, a
quarantine-mode run equals the fault-free run minus exactly the
quarantined item -- every surviving replay, trial, or scenario is bit
for bit what the undisturbed run produced, and exactly one slot is a
:class:`FailedSummary` naming the fault.
"""

import pytest

from repro import obs
from repro.dvfs import LoadTrace
from repro.kernels import BatchReplayRunner, ReplaySpec
from repro.opt import GridSearch, ParamSpace, PolicyTuner
from repro.resilience import FailedSummary, FaultPlan, InjectedFault, inject
from repro.scenarios.registry import REGISTRY, ScenarioRegistry
from repro.scenarios.runner import ScenarioRunner
from repro.workloads.banking_vm import VMS_LOW_MEM
from repro.workloads.cloudsuite import WEB_SEARCH


def make_specs():
    """A mixed batch: single-server and fleet rows, several governors."""
    bursty = LoadTrace.bursty(steps=24, seed=7)
    diurnal = LoadTrace.diurnal().head(20)
    specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=bursty, governor="ondemand"),
        ReplaySpec(workload=WEB_SEARCH, trace=diurnal, governor="performance"),
        ReplaySpec(workload=VMS_LOW_MEM, trace=bursty, governor="powersave"),
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=bursty,
            governor="qos_tracker",
            fleet_size=3,
            routing="round_robin",
        ),
        ReplaySpec(
            workload=VMS_LOW_MEM,
            trace=diurnal,
            governor="qos_tracker",
            fleet_size=2,
            routing="pack",
        ),
        ReplaySpec(workload=VMS_LOW_MEM, trace=diurnal, governor="ondemand"),
    ]
    return specs


SPACE = ParamSpace(
    fleet_sizes=(2, 3),
    governors=("qos_tracker", "ondemand"),
    routings=("round_robin",),
    fill_fractions=(0.75,),
    bands=(None,),
    wake_steps=(1,),
)


@pytest.fixture(scope="module")
def batch_baseline(default_context):
    specs = make_specs()
    return specs, BatchReplayRunner(default_context).run(specs).summaries()


@pytest.fixture(scope="module")
def tuner_trace():
    return LoadTrace.bursty(steps=10, seed=3)


@pytest.fixture(scope="module")
def tuner_baseline(default_context, tuner_trace):
    tuner = PolicyTuner(default_context, WEB_SEARCH, tuner_trace)
    return tuner.tune(SPACE, GridSearch())


# -- batch quarantine ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_single_fault_batch_equals_baseline_minus_quarantined(
    seed, default_context, batch_baseline
):
    """The quarantine-equivalence property over seeded fault plans."""
    specs, baseline = batch_baseline
    plan = FaultPlan.seeded(
        seed,
        sites=("batch.replay",),
        max_call=len(specs),
        actions=("raise", "nan"),
    )
    runner = BatchReplayRunner(default_context, on_error="quarantine")
    with inject(plan), obs.capture() as cap:
        result = runner.run(specs)
    # ``batch.replay`` fires once per spec in submission order, so the
    # plan's Nth call is exactly spec N-1 -- and nothing else.
    failed_index = plan.at_call - 1
    summaries = result.summaries()
    assert result.quarantined_count == 1
    assert cap.counter_deltas()["resilience.quarantined"] == 1
    for index, summary in enumerate(summaries):
        if index == failed_index:
            assert isinstance(summary, FailedSummary)
            assert summary.error_type == "InjectedFault"
            assert f"replay {index}" in summary.identity
        else:
            assert summary == baseline[index], f"row {index} disturbed"
    (quarantined,) = result.quarantined()
    assert quarantined[0] == failed_index
    with pytest.raises(InjectedFault):
        result.result(failed_index)


def test_seeded_fault_in_a_thousand_replay_batch(default_context):
    """The equivalence property at benchmark scale: 1000 fleet replays."""
    from repro.dvfs import GOVERNORS
    from repro.fleet import Autoscaler

    traces = [LoadTrace.bursty(steps=30, seed=seed) for seed in range(100)]
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor=governor,
            fleet_size=4,
            routing="round_robin",
            autoscaler=autoscaler,
        )
        for governor in GOVERNORS
        for autoscaler in (None, Autoscaler())
        for trace in traces
    ]
    assert len(specs) == 1000
    baseline = BatchReplayRunner(default_context).run(specs).summaries()
    plan = FaultPlan.seeded(
        321, sites=("batch.replay",), max_call=len(specs)
    )
    runner = BatchReplayRunner(default_context, on_error="quarantine")
    with inject(plan):
        result = runner.run(specs)
    summaries = result.summaries()
    failed_index = plan.at_call - 1
    assert isinstance(summaries[failed_index], FailedSummary)
    assert result.quarantined_count == 1
    assert summaries[:failed_index] == baseline[:failed_index]
    assert summaries[failed_index + 1 :] == baseline[failed_index + 1 :]


def test_strict_mode_propagates_the_injected_fault(default_context):
    specs, _ = make_specs(), None
    plan = FaultPlan(site="batch.replay", at_call=2, action="raise")
    with inject(plan):
        with pytest.raises(InjectedFault):
            BatchReplayRunner(default_context).run(specs)


def test_group_fault_degrades_to_fallback_bit_for_bit(
    default_context, batch_baseline
):
    """A failed batched group re-runs per replay with zero loss."""
    specs, baseline = batch_baseline
    plan = FaultPlan(site="batch.group", at_call=1, action="raise")
    runner = BatchReplayRunner(default_context, on_error="quarantine")
    with inject(plan):
        result = runner.run(specs)
    assert result.quarantined_count == 0
    assert result.fallback_count > 0
    assert result.summaries() == baseline


# -- tuner quarantine ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_single_corrupt_objective_drops_exactly_one_trial(
    seed, default_context, tuner_trace, tuner_baseline
):
    """NaN-corrupting any one objective quarantines only that trial."""
    baseline_labels = [
        trial.config.label() for trial in tuner_baseline.trials
    ]
    plan = FaultPlan.seeded(
        seed,
        sites=("tuner.objective",),
        max_call=len(baseline_labels),
        actions=("nan",),
    )
    tuner = PolicyTuner(
        default_context, WEB_SEARCH, tuner_trace, on_error="quarantine"
    )
    with inject(plan):
        result = tuner.tune(SPACE, GridSearch())
    dropped_label = baseline_labels[plan.at_call - 1]
    assert [t.config.label() for t in result.trials] == [
        label for label in baseline_labels if label != dropped_label
    ]
    # Surviving trials are bit for bit the baseline trials.
    survivors = {t.config.label(): t for t in tuner_baseline.trials}
    for trial in result.trials:
        assert trial == survivors[trial.config.label()]
    (record,) = result.quarantined
    assert record["label"] == dropped_label
    assert record["failure"]["failed"] is True
    if dropped_label != tuner_baseline.best_config.label():
        assert result.best_trial == tuner_baseline.best_trial
    else:
        assert result.best_config.label() != dropped_label


# -- scenario quarantine ---------------------------------------------------------------


def test_run_all_quarantines_only_the_faulted_scenario():
    registry = ScenarioRegistry()
    registry.register(REGISTRY.get("fig2_qos"))
    registry.register(REGISTRY.get("table1_ddr4"))
    runner = ScenarioRunner(registry=registry)

    plan = FaultPlan(site="scenario.run", at_call=1, action="raise")
    with inject(plan), obs.capture() as cap:
        results = runner.run_all(on_error="quarantine")
    assert cap.counter_deltas()["resilience.quarantined"] == 1
    failed = results["fig2_qos"]
    assert isinstance(failed, FailedSummary)
    assert "fig2_qos" in failed.identity
    survivor = results["table1_ddr4"]
    assert survivor.name == "table1_ddr4"
    assert survivor.key_scalars()["rows"] > 0

    # Strict mode propagates instead.
    with inject(plan):
        with pytest.raises(InjectedFault):
            runner.run_all()
