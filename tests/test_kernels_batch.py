"""Property tests for the batched replay engine.

The tentpole claim, pinned with ``np.array_equal`` and exact ``==`` --
no tolerances anywhere: a :class:`BatchReplayRunner` run over B specs
is **bit for bit** the same as B independent single-replay kernel
calls (and, via the simulators, the object-based reference path):

* every column of every replay, across all governors, routings,
  autoscale on/off and ragged trace lengths (so the (B, T) padding and
  masking must be exact, not approximately right);
* every scalar summary dict, against ``GovernorSimulator.replay`` /
  ``FleetSimulator.run`` summaries (float-sensitive derived ratios
  included);
* hypothesis-sampled batch shapes: random row counts, random lengths,
  mixed governors in one batch;
* the per-row power-state timeline against the scalar
  ``_resolve_states`` over drawn traces, fleets, autoscaler bands and
  crash/restore schedules;
* specs whose policy types have no kernel fall back to the per-replay
  simulator path inside the same batch.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dvfs import GOVERNORS, GovernorSimulator, LoadTrace
from repro.dvfs.governors import PerformanceGovernor, governor_by_name
from repro.fleet import (
    ROUTERS,
    Autoscaler,
    DisturbanceSchedule,
    FleetSimulator,
    node_crash,
    node_restore,
)
from repro.fleet.routing import (
    LeastLoadedRouting,
    RoundRobinRouting,
    router_by_name,
)
from repro.kernels import (
    BatchReplayRunner,
    FleetReplayBatch,
    FrequencyTable,
    ReplaySpec,
    fleet_replay_columns,
    governor_replay_columns,
)
from repro.kernels.batch import _row_timeline
from repro.kernels.fleet import _resolve_states
from repro.workloads.banking_vm import VMS_LOW_MEM
from repro.workloads.cloudsuite import WEB_SEARCH

utilizations = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=12,
)

ragged_batches = st.lists(utilizations, min_size=1, max_size=5)


def make_trace(values, step_seconds=60.0, name="sampled") -> LoadTrace:
    return LoadTrace(
        name=name, step_seconds=step_seconds, utilization=tuple(values)
    )


def assert_columns_equal(got, ref, label):
    assert set(got) == set(ref), label
    for name, reference in ref.items():
        column = got[name]
        assert column.dtype == reference.dtype, f"{label}/{name}"
        assert np.array_equal(
            column, reference, equal_nan=column.dtype.kind == "f"
        ), f"{label}/{name}"


# -- single-server batches vs looped kernel calls ---------------------------------------


@settings(max_examples=15, deadline=None)
@given(batch=ragged_batches, governor=st.sampled_from(sorted(GOVERNORS)))
def test_batched_replay_equals_looped_kernel_calls(
    batch, governor, default_context
):
    """(B, T) stacking with ragged lengths never changes a single bit."""
    traces = [make_trace(values, name=f"row{i}") for i, values in enumerate(batch)]
    runner = BatchReplayRunner(default_context)
    specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor=governor)
        for trace in traces
    ]
    result = runner.run(specs)
    assert result.batched_count == len(traces)
    assert result.fallback_count == 0
    table = default_context.frequency_table(WEB_SEARCH)
    for row, trace in enumerate(traces):
        reference = governor_replay_columns(
            table, governor_by_name(governor), trace
        )
        replay = result.result(row)
        got = {name: replay.column(name) for name in reference}
        assert_columns_equal(got, reference, f"{governor}/row{row}")


@settings(max_examples=10, deadline=None)
@given(batch=ragged_batches)
def test_mixed_governor_batch_matches_simulator_summaries(
    batch, default_context, websearch_simulator
):
    """Mixed-policy batches reproduce simulator summaries exactly."""
    governors = sorted(GOVERNORS)
    specs = []
    for index, values in enumerate(batch):
        specs.append(
            ReplaySpec(
                workload=WEB_SEARCH,
                trace=make_trace(values, name=f"row{index}"),
                governor=governors[index % len(governors)],
            )
        )
    result = BatchReplayRunner(default_context).run(specs)
    summaries = result.summaries()
    for index, spec in enumerate(specs):
        reference = websearch_simulator.replay(spec.trace, spec.governor)
        assert summaries[index] == reference.summary()


# -- fleet batches vs looped kernel calls -----------------------------------------------


@pytest.mark.parametrize("routing", sorted(ROUTERS))
@pytest.mark.parametrize("governor", sorted(GOVERNORS))
@settings(max_examples=6, deadline=None)
@given(
    batch=st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=10,
        ),
        min_size=1,
        max_size=4,
    ),
    autoscale=st.booleans(),
)
def test_batched_fleet_equals_looped_kernel_calls(
    routing, governor, batch, autoscale, default_context
):
    """(B, N, T) stacking is exact for every routing x governor trio."""
    autoscaler = Autoscaler() if autoscale else None
    traces = [make_trace(values, name=f"row{i}") for i, values in enumerate(batch)]
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor=governor,
            fleet_size=3,
            routing=routing,
            autoscaler=autoscaler,
            off_power_w=7.0,
        )
        for trace in traces
    ]
    result = BatchReplayRunner(default_context).run(specs)
    assert result.fallback_count == 0
    table = default_context.frequency_table(WEB_SEARCH)
    for row, trace in enumerate(traces):
        fleet_ref, node_ref = fleet_replay_columns(
            table,
            WEB_SEARCH,
            3,
            governor_by_name(governor),
            router_by_name(routing),
            autoscaler,
            7.0,
            trace,
            True,
        )
        replay = result.result(row)
        got = {name: replay.column(name) for name in fleet_ref}
        assert_columns_equal(got, fleet_ref, f"{routing}/{governor}/row{row}")
        for node, reference in node_ref.items():
            got = {
                name: replay.node_column(node, name) for name in reference
            }
            assert_columns_equal(
                got, reference, f"{routing}/{governor}/row{row}/node{node}"
            )


@pytest.mark.parametrize("routing", sorted(ROUTERS))
def test_batched_fleet_summaries_match_simulator(routing, default_context):
    """Summary dicts equal FleetSimulator's exactly, per routing."""
    traces = [
        LoadTrace.bursty(steps=40, seed=3).head(31),
        LoadTrace.diurnal(steps=24, step_seconds=600.0),
        LoadTrace.constant(utilization=0.8, steps=7),
    ]
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor="conservative",
            fleet_size=4,
            routing=routing,
            autoscaler=Autoscaler(),
        )
        for trace in traces
    ]
    summaries = BatchReplayRunner(default_context).run(specs).summaries()
    simulator = FleetSimulator(
        default_context,
        WEB_SEARCH,
        fleet_size=4,
        governor="conservative",
        autoscaler=Autoscaler(),
    )
    for index, trace in enumerate(traces):
        assert summaries[index] == simulator.run(trace, routing).summary()


def _assert_batch_equals_looped_kernel(
    table, governor, routing, traces, fleet_size, use_queueing
):
    batch = FleetReplayBatch(
        table, WEB_SEARCH, fleet_size, governor, routing, None, 0.0,
        traces, use_queueing,
    )
    for row, trace in enumerate(traces):
        fleet_ref, node_ref = fleet_replay_columns(
            table, WEB_SEARCH, fleet_size, governor, routing, None, 0.0,
            trace, use_queueing,
        )
        fleet, nodes = batch.columns_for(row)
        assert_columns_equal(fleet, fleet_ref, f"row{row}")
        for node, reference in node_ref.items():
            assert_columns_equal(nodes[node], reference, f"row{row}/node{node}")


@pytest.mark.parametrize("governor", ["conservative", "ondemand"])
@pytest.mark.parametrize("fleet_size", [8, 12])
def test_wide_least_loaded_batch_sums_weights_in_node_order(
    governor, fleet_size, default_context
):
    """From eight nodes up NumPy's pairwise ``sum`` rounds differently
    from the scalar loop's running total; the batch must not."""
    _assert_batch_equals_looped_kernel(
        default_context.frequency_table(WEB_SEARCH),
        governor_by_name(governor),
        LeastLoadedRouting(),
        [LoadTrace.bursty(steps=60, seed=seed) for seed in (1, 2)],
        fleet_size,
        True,
    )


def test_least_loaded_batch_zero_capacity_falls_back_to_even_split():
    """A zero-capacity grid bottom zeroes every weight once powersave
    parks the fleet there; each batch row then splits evenly, exactly
    as the single-replay kernel does (ragged rows included)."""
    table = FrequencyTable(
        workload_name="probe",
        frequencies_hz=[1.0e9, 2.0e9],
        capacity_uips=[0.0, 1.0e9],
        power_w=[10.0, 20.0],
        qos_metric=[0.0, 0.0],
        qos_ok=[True, True],
        latency_seconds=[np.nan, np.nan],
    )
    _assert_batch_equals_looped_kernel(
        table,
        governor_by_name("powersave"),
        LeastLoadedRouting(),
        [LoadTrace.constant(0.5, steps=3), LoadTrace.constant(0.3, steps=5)],
        2,
        False,
    )


def test_fleet_batch_needs_one_schedule_per_trace(default_context):
    traces = [LoadTrace.constant(0.5, steps=4)] * 2
    with pytest.raises(ValueError, match="1 disturbance schedules for 2"):
        FleetReplayBatch(
            default_context.frequency_table(WEB_SEARCH), WEB_SEARCH, 2,
            governor_by_name("performance"), RoundRobinRouting(), None, 0.0,
            traces, True, disturbances=[None],
        )


# -- the per-row power-state timeline ---------------------------------------------------

# Runs of one level: zero-load and saturated plateaus, and single steps.
plateau_utilizations = st.lists(
    st.tuples(
        st.one_of(
            st.just(0.0),
            st.just(1.0),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        st.integers(min_value=1, max_value=8),
    ),
    min_size=1,
    max_size=8,
).map(lambda runs: [level for level, steps in runs for _ in range(steps)])


@st.composite
def node_event_schedules(draw, fleet_size, steps):
    """Valid crash/restore schedules: per node, alternating events at
    distinct steps, starting with a crash (total outages included)."""
    events = []
    for node in range(fleet_size):
        marks = draw(
            st.lists(
                st.integers(min_value=0, max_value=steps - 1),
                unique=True,
                max_size=4,
            )
        )
        for order, step in enumerate(sorted(marks)):
            make = node_crash if order % 2 == 0 else node_restore
            events.append(make(node, step))
    return DisturbanceSchedule(events=tuple(events))


@st.composite
def timeline_cases(draw):
    utilization = draw(plateau_utilizations)
    fleet_size = draw(st.integers(min_value=1, max_value=12))
    low, high = draw(
        st.sampled_from([(0.35, 0.75), (0.2, 0.6), (0.5, 1.0), (0.05, 0.1)])
    )
    autoscaler = draw(
        st.one_of(
            st.none(),
            st.builds(
                Autoscaler,
                low=st.just(low),
                high=st.just(high),
                min_servers=st.integers(min_value=1, max_value=fleet_size),
                wake_steps=st.integers(min_value=0, max_value=3),
            ),
        )
    )
    schedule = draw(
        st.one_of(
            st.none(),
            node_event_schedules(fleet_size, len(utilization)),
        )
    )
    return utilization, fleet_size, autoscaler, schedule


def _pair_mask(pairs_per_step, fleet_size):
    mask = np.zeros((fleet_size, len(pairs_per_step)), dtype=bool)
    for step, nodes in enumerate(pairs_per_step):
        mask[nodes, step] = True
    return mask


@settings(max_examples=300, deadline=None)
@given(case=timeline_cases())
@example(
    # A peak wakes nodes 2 and 3.  While they boot, a dip that still
    # wants both serving nodes parks nothing (boot grace); a deeper
    # one parks the booting nodes before the highest-id serving node.
    case=([0.25, 1.0, 0.15, 0.0], 4, Autoscaler(wake_steps=3), None)
)
@example(
    # Node 0 crashes while node 1 boots: with no node serving, the
    # band is judged on booting capacity, and 0.7 holds the fleet.
    case=(
        [0.2 / 3, 1.0 / 3, 0.7 / 3, 0.7 / 3],
        3,
        Autoscaler(wake_steps=2),
        DisturbanceSchedule(events=(node_crash(0, 1),)),
    )
)
def test_row_timeline_equals_the_scalar_state_machine(case):
    """The batch engine's per-row timeline is ``_resolve_states`` bit for
    bit: routing-view and post-crash states, wakes and static restores."""
    utilization, fleet_size, autoscaler, schedule = case
    mass = (np.asarray(utilization, dtype=np.float64) * fleet_size).tolist()
    reference = _resolve_states(mass, fleet_size, autoscaler, schedule)
    timeline = _row_timeline(mass, fleet_size, autoscaler, schedule)
    assert timeline.route_state.dtype == np.int8
    assert np.array_equal(timeline.route_state, reference.route_state2d)
    assert np.array_equal(timeline.state, reference.state2d)
    for got, pairs in (
        (timeline.wake, reference.woken),
        (timeline.restart, reference.restarted),
    ):
        expected = _pair_mask(pairs, fleet_size)
        if got is None:
            assert not expected.any()
        else:
            assert np.array_equal(got, expected)


# -- mixed batches, fallbacks and edge specs --------------------------------------------


def test_mixed_single_and_fleet_batch(default_context, websearch_simulator):
    """Single-server and fleet specs coexist in one submission order."""
    trace = LoadTrace.bursty(steps=50, seed=5)
    specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor="ondemand"),
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace.head(20),
            governor="qos_tracker",
            fleet_size=2,
            routing="pack",
        ),
        ReplaySpec(workload=VMS_LOW_MEM, trace=trace, governor="powersave"),
    ]
    result = BatchReplayRunner(default_context).run(specs)
    assert len(result) == 3
    assert result.batched_count == 3
    summaries = result.summaries()
    assert summaries[0]["governor"] == "ondemand"
    assert summaries[1]["routing"] == "pack"
    assert summaries[2]["workload"] == VMS_LOW_MEM.name
    # VM workloads replay without queueing columns: all-NaN tails.
    vm_fleet = ReplaySpec(
        workload=VMS_LOW_MEM,
        trace=trace.head(10),
        governor="performance",
        fleet_size=2,
        routing="round_robin",
    )
    vm_result = BatchReplayRunner(default_context).run([vm_fleet])
    tails = vm_result.result(0).column("tail_latency_s")
    assert np.isnan(tails).all()
    assert vm_result.summaries()[0]["queue_violation_count"] == 0
    reference = websearch_simulator.replay(trace, "ondemand")
    assert summaries[0] == reference.summary()


def test_custom_policy_specs_fall_back_to_simulators(default_context):
    """Subclassed policies run object-path but stay in the batch."""

    @dataclasses.dataclass(frozen=True)
    class FloorGovernor(PerformanceGovernor):
        def select(self, observation, platform):
            return platform.frequencies[0]

    @dataclasses.dataclass(frozen=True)
    class NoisyRoundRobin(RoundRobinRouting):
        pass

    trace = LoadTrace.constant(utilization=0.5, steps=8)
    specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor=FloorGovernor()),
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor="performance"),
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor="performance",
            fleet_size=2,
            routing=NoisyRoundRobin(),
        ),
    ]
    result = BatchReplayRunner(default_context).run(specs)
    assert result.batched_count == 1
    assert result.fallback_count == 2
    summaries = result.summaries()
    # The fallback governor floors the frequency; the kernel one tops it.
    assert summaries[0]["mean_frequency_hz"] < summaries[1]["mean_frequency_hz"]
    reference = GovernorSimulator(default_context, WEB_SEARCH).replay(
        trace, FloorGovernor()
    )
    assert summaries[0] == reference.summary()
    fleet_reference = FleetSimulator(
        default_context, WEB_SEARCH, fleet_size=2, governor="performance"
    ).run(trace, NoisyRoundRobin())
    assert summaries[2] == fleet_reference.summary()


def test_replay_spec_validation():
    trace = LoadTrace.constant(steps=4)
    with pytest.raises(ValueError, match="routing policy needs a fleet_size"):
        ReplaySpec(workload=WEB_SEARCH, trace=trace, routing="pack")
    with pytest.raises(ValueError, match="autoscaler needs a fleet_size"):
        ReplaySpec(
            workload=WEB_SEARCH, trace=trace, autoscaler=Autoscaler()
        )
    with pytest.raises(ValueError, match="off_power_w needs a fleet_size"):
        ReplaySpec(workload=WEB_SEARCH, trace=trace, off_power_w=3.0)
    with pytest.raises(ValueError, match="needs a routing policy"):
        ReplaySpec(workload=WEB_SEARCH, trace=trace, fleet_size=2)
    with pytest.raises(ValueError, match="fleet_size must be >= 1"):
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            fleet_size=0,
            routing="pack",
        )
    with pytest.raises(ValueError, match="min_servers"):
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            fleet_size=1,
            routing="pack",
            autoscaler=Autoscaler(min_servers=2),
        )
    with pytest.raises(TypeError, match="ReplaySpec items"):
        BatchReplayRunner(None).run(["not a spec"])


def test_results_materialize_in_submission_order(default_context):
    trace = LoadTrace.diurnal()
    specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=trace.head(n), governor=g)
        for n, g in ((12, "ondemand"), (48, "powersave"), (30, "ondemand"))
    ]
    result = BatchReplayRunner(default_context).run(specs)
    results = result.results()
    assert [len(r.column("step")) for r in results] == [12, 48, 30]
    assert [r.governor_name for r in results] == [
        "ondemand",
        "powersave",
        "ondemand",
    ]
    # summaries() is cached and stable across calls.
    assert result.summaries() == result.summaries()
