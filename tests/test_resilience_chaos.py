"""Quarantine properties on real bad inputs.

A fleet spec whose disturbance schedule cannot run -- a crash on a node
outside its fleet, every node down at once, or a thermal cap below the
frequency grid -- is the input batch quarantine exists for.  Wherever
such a spec sits in a batch, a quarantine-mode run equals the clean run
minus exactly that slot: every surviving replay is bit for bit what the
clean batch produced, the slot is a :class:`FailedSummary` naming a
:class:`SpecError`, and strict mode raises ``FleetSimulator.run``'s own
message instead.
"""

import dataclasses
import random

import pytest

from repro import obs
from repro.dvfs import LoadTrace
from repro.fleet import (
    DisturbanceSchedule,
    FleetSimulator,
    node_crash,
    thermal_cap,
)
from repro.kernels import BatchReplayRunner, ReplaySpec
from repro.kernels import batch as batch_module
from repro.resilience import FailedSummary, SpecError
from repro.workloads.banking_vm import VMS_LOW_MEM
from repro.workloads.cloudsuite import WEB_SEARCH

BAD_CASES = ("node_out_of_range", "total_outage", "below_grid_cap")


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


def with_bad_schedule(case, context, spec):
    """``spec`` with a disturbance schedule its fleet cannot run."""
    bottom = context.frequency_table(spec.workload).min_frequency_hz
    events = {
        "node_out_of_range": (node_crash(spec.fleet_size + 1, 2),),
        "total_outage": tuple(
            node_crash(node, 2 + node) for node in range(spec.fleet_size)
        ),
        "below_grid_cap": (thermal_cap(0, 3, bottom / 2),),
    }[case]
    return dataclasses.replace(
        spec, disturbances=DisturbanceSchedule(events=events)
    )


def simulator_message(context, spec):
    """What ``FleetSimulator.run`` says about ``spec``'s schedule."""
    simulator = FleetSimulator(
        context,
        spec.workload,
        fleet_size=spec.fleet_size,
        governor=spec.governor,
        autoscaler=spec.autoscaler,
    )
    with pytest.raises(ValueError) as raised:
        simulator.run(spec.trace, spec.routing, disturbances=spec.disturbances)
    return str(raised.value)


@pytest.fixture(scope="module")
def batch_baseline(default_context):
    specs = make_specs()
    return specs, BatchReplayRunner(default_context).run(specs).summaries()


# -- batch quarantine ------------------------------------------------------------------


@pytest.mark.parametrize("position", range(len(make_specs()) + 1))
def test_single_fault_batch_equals_baseline_minus_quarantined(
    position, default_context, batch_baseline
):
    """A bad spec at any position isolates exactly its own slot; the
    kind of bad schedule rotates with the position."""
    clean, baseline = batch_baseline
    bad = with_bad_schedule(
        BAD_CASES[position % len(BAD_CASES)], default_context, clean[4]
    )
    specs = clean[:position] + [bad] + clean[position:]
    message = simulator_message(default_context, bad)

    runner = BatchReplayRunner(default_context, on_error="quarantine")
    with obs.capture() as cap:
        result = runner.run(specs)
    summaries = result.summaries()
    assert result.quarantined_count == 1
    assert result.fallback_count == 0
    assert cap.counter_deltas()["resilience.quarantined"] == 1
    assert summaries[:position] + summaries[position + 1 :] == baseline
    failed = summaries[position]
    assert isinstance(failed, FailedSummary)
    assert failed.error_type == "SpecError"
    assert failed.stage == "spec"
    assert f"replay {position}" in failed.identity
    assert failed.message == message
    assert result.quarantined() == [(position, failed)]
    with pytest.raises(SpecError):
        result.result(position)

    with pytest.raises(ValueError) as raised:
        BatchReplayRunner(default_context).run(specs)
    assert str(raised.value) == message


def test_strict_mode_propagates_the_injected_fault(
    default_context, batch_baseline
):
    """Strict mode rejects each kind of bad schedule with the
    simulator's message while checking specs, before any batch stage
    runs -- even when the bad spec comes last."""
    clean, _ = batch_baseline
    for case in BAD_CASES:
        bad = with_bad_schedule(case, default_context, clean[4])
        with obs.capture() as cap:
            with pytest.raises(ValueError) as raised:
                BatchReplayRunner(default_context).run(clean + [bad])
        assert str(raised.value) == simulator_message(default_context, bad)
        assert [span.name for span in cap.spans] == ["batch.run"], case


def test_seeded_fault_in_a_thousand_replay_batch(default_context):
    """The same property at benchmark scale: one bad spec, at a seeded
    position, among 1000 fleet replays."""
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
    rng = random.Random(321)
    position = rng.randrange(len(specs))
    specs[position] = with_bad_schedule(
        rng.choice(BAD_CASES), default_context, specs[position]
    )
    message = simulator_message(default_context, specs[position])

    result = BatchReplayRunner(default_context, on_error="quarantine").run(
        specs
    )
    summaries = result.summaries()
    assert result.quarantined_count == 1
    assert isinstance(summaries[position], FailedSummary)
    assert summaries[position].error_type == "SpecError"
    assert summaries[:position] == baseline[:position]
    assert summaries[position + 1 :] == baseline[position + 1 :]

    with pytest.raises(ValueError) as raised:
        BatchReplayRunner(default_context).run(specs)
    assert str(raised.value) == message


def test_group_fault_degrades_to_fallback_bit_for_bit(
    default_context, batch_baseline, monkeypatch
):
    """A group whose batch constructor raises re-runs its members one
    replay at a time on the simulator path, with zero loss."""
    specs, baseline = batch_baseline

    def broken_group(*args, **kwargs):
        raise RuntimeError("group constructor failed")

    monkeypatch.setattr(batch_module, "GovernorReplayBatch", broken_group)
    result = BatchReplayRunner(default_context, on_error="quarantine").run(
        specs
    )
    assert result.quarantined_count == 0
    assert result.fallback_count == sum(not spec.is_fleet for spec in specs)
    assert result.summaries() == baseline

    with pytest.raises(RuntimeError, match="group constructor failed"):
        BatchReplayRunner(default_context).run(specs)
