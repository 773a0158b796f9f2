"""Tests for timed failure injection and the resilience metrics.

Covers the disturbance data model (event/schedule validation, total
outages and below-grid caps rejected before step 0), the crash /
restore / thermal-cap semantics, bit-for-bit kernel parity for every
schedule kind, disturbed rows inside the batch engine (parity, order
independence and per-spec quarantine of bad schedules), and the two
robustness bugfixes the disturbance sweeps exposed (boot-grace and
cold-start utilisation).
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.dvfs import GOVERNORS, LoadTrace, governor_by_name
from repro.fleet import (
    Autoscaler,
    DisturbanceEvent,
    DisturbanceSchedule,
    FleetSimulator,
    NodeState,
    ServerNode,
    event_from_tuple,
    load_surge,
    node_crash,
    node_restore,
    thermal_cap,
)
from repro.fleet.result import FLEET_COLUMNS, NODE_COLUMNS
from repro.kernels.batch import BatchReplayRunner, ReplaySpec
from repro.resilience import FailedSummary
from repro.workloads.cloudsuite import DATA_SERVING, WEB_SEARCH


@pytest.fixture(scope="module")
def crash_fleet(default_context):
    """A 4-server static Web Search fleet for disturbance replays."""
    return FleetSimulator(default_context, WEB_SEARCH, fleet_size=4)


# -- event validation -------------------------------------------------------------------


def test_unknown_event_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown disturbance kind"):
        DisturbanceEvent(kind="meteor_strike", step=3, node_id=0)


def test_negative_step_is_rejected():
    with pytest.raises(ValueError, match="step must be >= 0"):
        node_crash(0, -1)


def test_node_events_need_a_node_id():
    with pytest.raises(ValueError, match="needs a node_id"):
        DisturbanceEvent(kind="node_crash", step=2)
    with pytest.raises(ValueError, match="needs a node_id"):
        DisturbanceEvent(kind="node_restore", step=2, node_id=-1)


def test_load_surge_takes_no_node_id():
    with pytest.raises(ValueError, match="no node_id"):
        DisturbanceEvent(kind="load_surge", step=2, node_id=0)


@pytest.mark.parametrize("cap", [None, 0.0, -1e9, float("nan"), float("inf")])
def test_thermal_cap_needs_a_positive_finite_frequency(cap):
    with pytest.raises(ValueError, match="max_frequency_hz"):
        DisturbanceEvent(
            kind="thermal_cap", step=2, node_id=0, max_frequency_hz=cap
        )


def test_only_thermal_cap_takes_a_frequency():
    with pytest.raises(ValueError, match="only thermal_cap"):
        DisturbanceEvent(
            kind="node_crash", step=2, node_id=0, max_frequency_hz=1e9
        )


def test_event_from_tuple_round_trips_all_kinds():
    assert event_from_tuple(("node_crash", 1, 5)) == node_crash(1, 5)
    assert event_from_tuple(("node_restore", 1, 9)) == node_restore(1, 9)
    assert event_from_tuple(("thermal_cap", 0, 3, 1.2e9)) == thermal_cap(
        0, 3, 1.2e9
    )
    assert event_from_tuple(("load_surge", 7)) == load_surge(7)


def test_event_from_tuple_rejects_malformed_data():
    with pytest.raises(ValueError, match="empty disturbance tuple"):
        event_from_tuple(())
    with pytest.raises(ValueError, match="unknown disturbance kind"):
        event_from_tuple(("comet", 1, 2))
    with pytest.raises(ValueError, match="malformed node_crash"):
        event_from_tuple(("node_crash", 1))


# -- schedule validation ----------------------------------------------------------------


def test_schedule_rejects_non_events():
    with pytest.raises(TypeError, match="DisturbanceEvent"):
        DisturbanceSchedule(events=(("node_crash", 0, 2),))


def test_schedule_rejects_duplicates_and_conflicts():
    with pytest.raises(ValueError, match="duplicate node_crash"):
        DisturbanceSchedule(events=(node_crash(0, 2), node_crash(0, 2)))
    with pytest.raises(ValueError, match="conflicting events for node 0"):
        DisturbanceSchedule(events=(node_crash(0, 2), node_restore(0, 2)))


def test_schedule_rejects_unpaired_restores_and_double_crashes():
    with pytest.raises(ValueError, match="without a preceding crash"):
        DisturbanceSchedule(events=(node_restore(1, 4),))
    with pytest.raises(ValueError, match="crashes again"):
        DisturbanceSchedule(events=(node_crash(1, 2), node_crash(1, 6)))
    # A proper crash -> restore -> crash chain is fine.
    DisturbanceSchedule(
        events=(node_crash(1, 2), node_restore(1, 4), node_crash(1, 6))
    )


def test_validate_for_checks_fleet_and_trace_bounds():
    schedule = DisturbanceSchedule(events=(node_crash(5, 10),))
    with pytest.raises(ValueError, match="nodes 0..3"):
        schedule.validate_for(fleet_size=4, steps=24)
    with pytest.raises(ValueError, match="beyond the trace"):
        schedule.validate_for(fleet_size=8, steps=10)
    schedule.validate_for(fleet_size=8, steps=24)


def test_validate_for_rejects_a_total_outage():
    schedule = DisturbanceSchedule(events=(node_crash(0, 2), node_crash(1, 3)))
    with pytest.raises(
        ValueError,
        match=r"total outage at step 4: .* down after node_crash\(0, 2\), "
        r"node_crash\(1, 3\)",
    ):
        schedule.validate_for(fleet_size=2, steps=8)
    # A third node survives both crashes.
    schedule.validate_for(fleet_size=3, steps=8)
    # A crash on the final step leaves no later step without a node.
    DisturbanceSchedule(
        events=(node_crash(0, 2), node_crash(1, 7))
    ).validate_for(fleet_size=2, steps=8)
    # A node restored by a step is up for that step's routing ...
    DisturbanceSchedule(
        events=(node_crash(0, 2), node_restore(0, 4), node_crash(1, 3))
    ).validate_for(fleet_size=2, steps=8)
    # ... one restored a step later leaves a one-step outage.
    with pytest.raises(ValueError, match="total outage at step 4"):
        DisturbanceSchedule(
            events=(node_crash(0, 2), node_restore(0, 5), node_crash(1, 3))
        ).validate_for(fleet_size=2, steps=8)


@pytest.mark.parametrize("reference", [False, True], ids=["kernel", "reference"])
def test_total_outage_fails_before_any_step_runs(crash_fleet, reference):
    schedule = DisturbanceSchedule(
        events=tuple(node_crash(node, 2 + node) for node in range(4))
    )
    with obs.capture() as window:
        with pytest.raises(ValueError, match="total outage at step 6"):
            crash_fleet.run(
                LoadTrace.constant(0.4, steps=8, step_seconds=60.0),
                "round_robin",
                reference=reference,
                disturbances=schedule,
            )
    # Neither path was dispatched, so not a single step ran.
    deltas = window.counter_deltas()
    assert "fleet.kernel_replays" not in deltas
    assert "fleet.reference_replays" not in deltas


def test_below_grid_cap_fails_before_step_0_on_both_paths(
    crash_fleet, websearch_simulator
):
    bottom = websearch_simulator.platform.min_frequency_hz
    schedule = DisturbanceSchedule(events=(thermal_cap(1, 6, bottom / 2),))
    trace = LoadTrace.constant(0.4, steps=8, step_seconds=60.0)
    messages = []
    for reference in (False, True):
        with obs.capture() as window:
            with pytest.raises(ValueError) as raised:
                crash_fleet.run(
                    trace,
                    "round_robin",
                    reference=reference,
                    disturbances=schedule,
                )
        deltas = window.counter_deltas()
        assert "fleet.kernel_replays" not in deltas
        assert "fleet.reference_replays" not in deltas
        messages.append(str(raised.value))
    kernel_message, reference_message = messages
    assert kernel_message == reference_message
    assert kernel_message == (
        f"thermal_cap event at step 6 caps node 1 at {bottom / 2} Hz, below "
        f"the grid bottom of {bottom} Hz: the node would have no reachable "
        "frequency"
    )


def test_schedule_views():
    schedule = DisturbanceSchedule(
        events=(node_crash(0, 2), node_restore(0, 6), load_surge(4))
    )
    assert len(schedule) == 3 and bool(schedule)
    assert not DisturbanceSchedule()
    assert schedule.kinds == ("node_crash", "node_restore", "load_surge")
    assert schedule.max_step == 6
    assert schedule.events_at(4) == (load_surge(4),)
    assert schedule.events_at(2, kind="node_restore") == ()
    capped = schedule.with_events(thermal_cap(1, 3, 1.2e9))
    assert len(capped) == 4 and capped.kinds == (
        "node_crash",
        "node_restore",
        "thermal_cap",
        "load_surge",
    )
    assert DisturbanceSchedule().max_step == -1


def test_replay_spec_disturbances_need_a_fleet():
    schedule = DisturbanceSchedule(events=(node_crash(0, 2),))
    with pytest.raises(ValueError, match="needs a fleet_size"):
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=LoadTrace.constant(0.5, steps=8),
            disturbances=schedule,
        )


# -- node-level semantics ---------------------------------------------------------------


def test_crashed_node_cannot_wake_until_recovered(websearch_simulator):
    node = ServerNode(
        node_id=0,
        governor=governor_by_name("qos_tracker"),
        simulator=websearch_simulator,
    )
    node.crash()
    assert node.failed and node.state is NodeState.OFF
    node.crash()  # idempotent
    with pytest.raises(ValueError, match="crashed"):
        node.wake(boot_steps=0)
    node.recover()
    assert not node.failed
    node.wake(boot_steps=0)
    assert node.state is NodeState.SERVING
    with pytest.raises(ValueError, match="nothing to recover"):
        node.recover()


def test_thermal_cap_shrinks_the_grid_and_clamps_history(websearch_simulator):
    node = ServerNode(
        node_id=0,
        governor=governor_by_name("performance"),
        simulator=websearch_simulator,
    )
    full = websearch_simulator.platform
    assert node.previous_frequency_hz == full.nominal_frequency_hz
    node.apply_thermal_cap(1.2e9)
    assert node.platform.frequencies[-1] <= 1.2e9
    assert node.platform.frequencies == tuple(
        f for f in full.frequencies if f <= 1.2e9
    )
    # The DVFS anchor is clamped onto the capped grid ...
    assert node.previous_frequency_hz == node.platform.frequencies[-1]
    # ... while the demand reference stays the full platform's nominal.
    assert node.nominal_capacity_uips == full.nominal_capacity_uips


def test_thermal_cap_below_the_grid_bottom_is_rejected(websearch_simulator):
    node = ServerNode(
        node_id=2,
        governor=governor_by_name("qos_tracker"),
        simulator=websearch_simulator,
    )
    with pytest.raises(ValueError, match="no reachable frequency"):
        node.apply_thermal_cap(websearch_simulator.platform.min_frequency_hz / 2)


# -- replay semantics -------------------------------------------------------------------


def test_crash_drops_the_routed_share_then_respreads(crash_fleet):
    trace = LoadTrace.constant(0.4, steps=12, step_seconds=60.0)
    schedule = DisturbanceSchedule(events=(node_crash(0, 5),))
    result = crash_fleet.run(trace, "round_robin", disturbances=schedule)
    violations = result.column("violation")
    # The crash lands after routing: node 0's share for step 5 is
    # dropped (stale-view violation), then step 6 re-spreads over the
    # three survivors and the fleet is clean again.
    assert bool(violations[5])
    assert not violations[6:].any()
    assert result.node_column(0, "state")[5:].max() == int(NodeState.OFF)
    served = result.column("served_uips") / result.column("offered_uips")
    assert served[5] == pytest.approx(0.75)
    assert served[6] == pytest.approx(1.0)


def test_static_restore_serves_immediately_without_wake_energy(crash_fleet):
    trace = LoadTrace.constant(0.4, steps=12, step_seconds=60.0)
    schedule = DisturbanceSchedule(
        events=(node_crash(0, 3), node_restore(0, 7))
    )
    result = crash_fleet.run(trace, "round_robin", disturbances=schedule)
    states = result.node_column(0, "state")
    assert states[3] == int(NodeState.OFF)
    assert states[7] == int(NodeState.SERVING)
    # A static fleet has no autoscaler: the restore re-admits the node
    # directly with no wake event and no wake energy on the ledger.
    assert result.wake_count == 0
    assert result.disturbance_events == schedule.events


def test_autoscaled_restore_readmits_through_the_wake_path(default_context):
    simulator = FleetSimulator(
        default_context,
        WEB_SEARCH,
        fleet_size=2,
        autoscaler=Autoscaler(low=0.35, high=0.75, wake_steps=1),
    )
    trace = LoadTrace.constant(0.9, steps=16, step_seconds=60.0)
    schedule = DisturbanceSchedule(
        events=(node_crash(1, 4), node_restore(1, 8))
    )
    result = simulator.run(trace, "least_loaded", disturbances=schedule)
    states = result.node_column(1, "state")
    # While failed the node stays OFF even though the half-fleet is
    # overloaded; once restored the autoscaler wakes it again.
    assert (states[4:8] == int(NodeState.OFF)).all()
    assert int(NodeState.SERVING) in states[8:]
    assert result.wake_count >= 1


def test_thermal_cap_runs_on_the_kernel_and_caps_the_node(crash_fleet):
    trace = LoadTrace.constant(0.95, steps=10, step_seconds=60.0)
    schedule = DisturbanceSchedule(events=(thermal_cap(0, 2, 1.2e9),))
    with obs.capture() as window:
        result = crash_fleet.run(trace, "round_robin", disturbances=schedule)
    deltas = window.counter_deltas()
    assert deltas["fleet.kernel_replays"] == 1
    assert deltas.get("fleet.reference_replays", 0) == 0
    frequencies = result.node_column(0, "frequency_hz")
    assert (frequencies[2:] <= 1.2e9).all()
    # Uncapped peers keep buying the full grid for the same share.
    assert frequencies[2:].max() < result.node_column(1, "frequency_hz")[2:].max()


def test_disturbed_replay_rejects_out_of_range_events(crash_fleet):
    trace = LoadTrace.constant(0.4, steps=8, step_seconds=60.0)
    with pytest.raises(ValueError, match="nodes 0..3"):
        crash_fleet.run(
            trace,
            "round_robin",
            disturbances=DisturbanceSchedule(events=(node_crash(9, 2),)),
        )


# -- kernel parity ----------------------------------------------------------------------


# Quiet start (an autoscaled fleet parks its top nodes), a peak that
# wakes everyone, a dip to zero and a saturating second peak.
_PARITY_TRACE = LoadTrace(
    name="parity",
    step_seconds=60.0,
    utilization=(
        0.15, 0.12, 0.2, 0.1, 0.18, 0.25, 0.6, 0.85, 0.9, 0.8, 0.95, 0.7,
        0.5, 0.45, 0.55, 0.3, 0.1, 0.05, 0.0, 0.2, 0.9, 1.0, 0.95, 0.6,
    ),
)


def _parity_schedules(fleet_size, grid):
    """Named crash/restore and thermal-cap schedules for one fleet.

    ``grid`` is the platform's ascending frequency grid.  A one-node
    fleet cannot lose its only node for a whole step, so its restores
    follow the crash immediately.
    """
    last = fleet_size - 1
    steps = len(_PARITY_TRACE)
    solo = fleet_size == 1
    return {
        "crash_restore": (
            node_crash(0, 8), node_restore(0, 9 if solo else 14), load_surge(20)
        ),
        "cap_at_step_0": (thermal_cap(0, 0, (grid[2] + grid[3]) / 2),),
        "cap_mid_trace": (thermal_cap(last, steps // 2, grid[1]),),
        "cap_on_last_step": (thermal_cap(0, steps - 1, grid[0]),),
        "cap_above_grid_top": (thermal_cap(0, 3, grid[-1] * 2.0),),
        # Under an autoscaler the top node is off at step 1; the peak
        # wakes it onto its capped grid.
        "cap_on_off_node": (thermal_cap(last, 1, grid[2]),),
        "recap_lower_then_higher": (
            thermal_cap(0, 4, grid[1]), thermal_cap(0, 12, grid[-2])
        ),
        "cap_with_crash_restore": (
            (thermal_cap(0, 5, grid[2]), node_crash(0, 6), node_restore(0, 7))
            if solo
            else (node_crash(0, 6), thermal_cap(0, 8, grid[2]), node_restore(0, 12))
        ),
    }


@pytest.mark.parametrize("routing", ["round_robin", "spread", "pack", "least_loaded"])
@pytest.mark.parametrize(
    "autoscaler",
    [None, Autoscaler(wake_steps=2), Autoscaler(wake_steps=0)],
    ids=["static", "autoscaled", "instant"],
)
def test_crash_restore_kernel_matches_reference(
    default_context, routing, autoscaler
):
    """Every disturbance schedule: kernel == object path, bit for bit.

    Crash/restore and thermal-cap schedules over every governor, one-
    and five-node fleets, and Web Search (M/G/1 tails) and Data Serving.
    """
    for workload in (WEB_SEARCH, DATA_SERVING):
        grid = default_context.frequency_table(workload).frequencies_hz.tolist()
        for fleet_size in (1, 5):
            for governor in GOVERNORS:
                simulator = FleetSimulator(
                    default_context,
                    workload,
                    fleet_size=fleet_size,
                    governor=governor,
                    autoscaler=autoscaler,
                )
                schedules = _parity_schedules(fleet_size, grid)
                for name, events in schedules.items():
                    schedule = DisturbanceSchedule(events=events)
                    label = f"{workload.name}/{fleet_size}/{governor}/{name}"
                    reference = simulator.run(
                        _PARITY_TRACE, routing, reference=True,
                        disturbances=schedule,
                    )
                    _assert_bit_identical(
                        simulator.run(
                            _PARITY_TRACE, routing, disturbances=schedule
                        ),
                        reference,
                        label,
                    )
                    if name == "cap_on_off_node" and autoscaler and fleet_size > 1:
                        # The cap really lands on a parked node that the
                        # peak wakes later.
                        states = reference.node_column(fleet_size - 1, "state")
                        assert states[1] == int(NodeState.OFF), label
                        assert (states[2:] == int(NodeState.SERVING)).any(), label


def _assert_bit_identical(kernel, reference, label):
    for column in FLEET_COLUMNS:
        assert np.array_equal(
            kernel.column(column), reference.column(column), equal_nan=True
        ), f"{label}: fleet column {column}"
    for node_id in reference.node_ids:
        for column in NODE_COLUMNS:
            assert np.array_equal(
                kernel.node_column(node_id, column),
                reference.node_column(node_id, column),
                equal_nan=True,
            ), f"{label}: node {node_id} column {column}"
    assert kernel.summary() == reference.summary(), label
    assert kernel.resilience() == reference.resilience(), label


def test_batch_runner_batches_disturbed_replays(default_context):
    trace = LoadTrace.diurnal(steps=24)
    schedule = DisturbanceSchedule(events=(node_crash(1, 6),))
    disturbed = ReplaySpec(
        workload=WEB_SEARCH,
        trace=trace,
        fleet_size=4,
        routing="spread",
        autoscaler=Autoscaler(),
        disturbances=schedule,
    )
    clean = ReplaySpec(
        workload=WEB_SEARCH,
        trace=trace,
        fleet_size=4,
        routing="spread",
        autoscaler=Autoscaler(),
    )
    runner = BatchReplayRunner(default_context)
    batch = runner.run([disturbed, clean])
    # The disturbed spec rides the tensor engine beside the clean one.
    assert batch.batched_count == 2
    assert batch.fallback_count == 0
    simulator = FleetSimulator(
        default_context, WEB_SEARCH, fleet_size=4, autoscaler=Autoscaler()
    )
    direct = simulator.run(trace, "spread", disturbances=schedule)
    assert batch.result(0).summary() == direct.summary()
    assert batch.result(0).resilience() == direct.resilience()


def _batch_schedules(steps, grid):
    """Named schedules for one row of a 4-node batch of ``steps`` steps."""
    return {
        "crash_restore": (node_crash(1, 6), node_restore(1, 12)),
        # On a static fleet the restore serves at once (wake(0)).
        "static_restore": (node_crash(0, 2), node_restore(0, 5)),
        "crash_on_last_step": (node_crash(2, steps - 1),),
        "recap_higher": (
            thermal_cap(1, 3, grid[1]), thermal_cap(1, 10, grid[-2])
        ),
        "cap_and_crash": (thermal_cap(3, 4, grid[2]), node_crash(3, 9)),
    }


@pytest.mark.parametrize("routing", ["round_robin", "spread", "pack", "least_loaded"])
@pytest.mark.parametrize(
    "autoscaler",
    [None, Autoscaler(wake_steps=0), Autoscaler(wake_steps=2)],
    ids=["static", "instant", "autoscaled"],
)
def test_batched_disturbed_rows_match_reference(
    default_context, routing, autoscaler
):
    """Disturbed and clean rows share ragged (B, N, T) groups, each row
    bit for bit the object path's replay, in any submission order."""
    grid = default_context.frequency_table(WEB_SEARCH).frequencies_hz.tolist()
    specs = []
    for governor in GOVERNORS:
        for trace in (_PARITY_TRACE, _PARITY_TRACE.head(15)):
            schedules = _batch_schedules(len(trace), grid)
            for name in (None, *schedules):
                specs.append(
                    ReplaySpec(
                        workload=WEB_SEARCH,
                        trace=trace,
                        governor=governor,
                        fleet_size=4,
                        routing=routing,
                        autoscaler=autoscaler,
                        disturbances=(
                            None
                            if name is None
                            else DisturbanceSchedule(events=schedules[name])
                        ),
                    )
                )
    batch = BatchReplayRunner(default_context).run(specs)
    assert batch.batched_count == len(specs)
    assert batch.fallback_count == 0
    summaries = batch.summaries()
    for index, spec in enumerate(specs):
        simulator = FleetSimulator(
            default_context,
            WEB_SEARCH,
            fleet_size=4,
            governor=spec.governor,
            autoscaler=autoscaler,
        )
        reference = simulator.run(
            spec.trace, routing, reference=True, disturbances=spec.disturbances
        )
        label = f"row {index} ({spec.governor}, {len(spec.trace)} steps)"
        _assert_bit_identical(batch.result(index), reference, label)
        assert summaries[index] == reference.summary(), label

    # Reversed submission regroups every row at a new position.
    reversed_batch = BatchReplayRunner(default_context).run(specs[::-1])
    for index in range(len(specs)):
        _assert_bit_identical(
            reversed_batch.result(len(specs) - 1 - index),
            batch.result(index),
            f"reversed row {index}",
        )
    assert reversed_batch.summaries()[::-1] == summaries


@pytest.mark.parametrize(
    "case", ["node_out_of_range", "total_outage", "below_grid_cap"]
)
def test_bad_schedule_is_quarantined_alone(default_context, case):
    """A bad schedule fails its own spec with the simulator's message --
    quarantined alone, never failing (or degrading) its group."""
    bottom = default_context.frequency_table(WEB_SEARCH).min_frequency_hz
    bad = DisturbanceSchedule(
        events={
            "node_out_of_range": (node_crash(5, 2),),
            "total_outage": (node_crash(0, 2), node_crash(1, 3)),
            "below_grid_cap": (thermal_cap(0, 3, bottom / 2),),
        }[case]
    )
    good = DisturbanceSchedule(events=(node_crash(1, 2), node_restore(1, 5)))
    trace = LoadTrace.bursty(steps=12, seed=4)

    def spec(trace, disturbances):
        return ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            fleet_size=2,
            routing="pack",
            disturbances=disturbances,
        )

    specs = [
        spec(trace, None),
        spec(trace, good),
        spec(trace, bad),
        spec(trace.head(9), None),
    ]
    simulator = FleetSimulator(default_context, WEB_SEARCH, fleet_size=2)
    with pytest.raises(ValueError) as raised:
        simulator.run(trace, "pack", disturbances=bad)
    message = str(raised.value)
    with pytest.raises(ValueError) as raised:
        BatchReplayRunner(default_context).run(specs)
    assert str(raised.value) == message

    result = BatchReplayRunner(default_context, on_error="quarantine").run(specs)
    assert result.quarantined_count == 1
    assert result.batched_count == 3
    assert result.fallback_count == 0
    summaries = result.summaries()
    failed = summaries[2]
    assert isinstance(failed, FailedSummary)
    assert failed.error_type == "SpecError"
    assert failed.message.endswith(message)
    baseline = BatchReplayRunner(default_context).run(
        specs[:2] + specs[3:]
    ).summaries()
    assert summaries[:2] + summaries[3:] == baseline


# -- resilience metrics -----------------------------------------------------------------


def test_resilience_reports_recovery_per_event(crash_fleet):
    trace = LoadTrace.constant(0.4, steps=12, step_seconds=60.0)
    schedule = DisturbanceSchedule(
        events=(node_crash(0, 3), node_restore(0, 7))
    )
    result = crash_fleet.run(trace, "round_robin", disturbances=schedule)
    assert result.recovery_after(3) == 1
    assert result.recovery_after(7) == 0
    metrics = result.resilience()
    crash_row, restore_row = metrics["events"]
    assert crash_row["kind"] == "node_crash"
    assert crash_row["recovery_time_steps"] == 1
    assert crash_row["violations_during_respread"] == 1
    assert restore_row["recovery_time_steps"] == 0
    assert restore_row["violations_during_respread"] == 0
    assert metrics["max_recovery_time_steps"] == 1
    assert metrics["unrecovered_events"] == 0
    assert metrics["surge_peak_energy_j"] == result.surge_peak_energy_j
    assert metrics["surge_peak_energy_j"] == pytest.approx(
        result.column("energy_j").max()
    )


def test_resilience_counts_unrecovered_events(crash_fleet):
    trace = LoadTrace.constant(0.4, steps=8, step_seconds=60.0)
    schedule = DisturbanceSchedule(events=(node_crash(0, 7),))
    result = crash_fleet.run(trace, "round_robin", disturbances=schedule)
    # The crash lands on the last step: the trace ends before the fleet
    # re-spreads, so the event never recovers.
    assert result.recovery_after(7) is None
    metrics = result.resilience()
    assert metrics["events"][0]["recovery_time_steps"] is None
    assert metrics["events"][0]["violations_during_respread"] == 1
    assert metrics["unrecovered_events"] == 1


def test_undisturbed_result_has_empty_resilience(crash_fleet):
    result = crash_fleet.run(
        LoadTrace.constant(0.4, steps=4, step_seconds=60.0), "round_robin"
    )
    metrics = result.resilience()
    assert metrics["events"] == []
    assert metrics["max_recovery_time_steps"] == 0
    assert metrics["unrecovered_events"] == 0


# -- bugfix regressions -----------------------------------------------------------------


def test_flash_crowd_ramp_wakes_each_node_once(default_context):
    """Boot-grace regression: no park/re-wake thrash during a ramp.

    On a monotonic flash-crowd ramp every node the fleet ends up
    needing should be woken exactly once.  Before the boot-grace fix a
    node still booting on the next step's (lower-looking) serving
    utilisation could be parked mid-boot and re-woken a step later,
    double-charging the wake energy.
    """
    simulator = FleetSimulator(
        default_context,
        WEB_SEARCH,
        fleet_size=8,
        autoscaler=Autoscaler(low=0.35, high=0.75, wake_steps=2),
    )
    base = LoadTrace.constant(0.15, steps=6, step_seconds=60.0)
    ramp = base.concat(
        LoadTrace.constant(0.15, steps=18, step_seconds=60.0).with_surge(
            0, 18, factor=6.0, shape="ramp"
        )
    )
    result = simulator.run(ramp, "pack")
    first_serving = int(result.column("serving_servers")[0])
    peak_serving = result.peak_serving_servers
    assert peak_serving > first_serving
    assert result.wake_count == peak_serving - first_serving


def test_cold_start_utilisation_uses_booting_capacity(websearch_simulator):
    """Cold-start regression: a booting-only fleet is not 'infinitely hot'.

    With zero serving nodes the old ``mass / len(serving)`` divided by
    zero, read infinite utilisation on every boot step, and woke the
    whole fleet.  Utilisation now falls back to the booting capacity,
    so an in-flight boot that already covers the load wakes nothing.
    """
    scaler = Autoscaler(low=0.35, high=0.75, wake_steps=2)
    nodes = [
        ServerNode(
            node_id=i,
            governor=governor_by_name("qos_tracker"),
            simulator=websearch_simulator,
            serving=False,
        )
        for i in range(4)
    ]
    nodes[0].wake(boot_steps=2)
    decision = scaler.scale(mass=0.5, nodes=nodes)
    # util = 0.5 / 1 booting = 0.5, inside the band: hold.
    assert decision.woken == () and decision.parked == ()
    assert sum(1 for n in nodes if n.state is NodeState.BOOTING) == 1
    # With nothing powered on at all, utilisation is infinite and the
    # scaler must wake capacity.
    nodes[0].shut_down()
    decision = scaler.scale(mass=0.5, nodes=nodes)
    assert len(decision.woken) >= 1


def test_mass_zero_at_step_zero_keeps_min_servers(default_context):
    simulator = FleetSimulator(
        default_context,
        WEB_SEARCH,
        fleet_size=4,
        autoscaler=Autoscaler(min_servers=1),
    )
    trace = LoadTrace(
        name="cold", step_seconds=60.0, utilization=(0.0, 0.0, 0.3, 0.3)
    )
    kernel = simulator.run(trace, "pack")
    reference = simulator.run(trace, "pack", reference=True)
    assert kernel.summary() == reference.summary()
    assert int(kernel.column("serving_servers")[0]) == 1
    assert not math.isnan(kernel.total_energy_j)
