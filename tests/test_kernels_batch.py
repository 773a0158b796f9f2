"""Property tests for the batched replay engine.

The tentpole claim, pinned with ``np.array_equal`` and exact ``==`` --
no tolerances anywhere: a :class:`BatchReplayRunner` run over B specs
is **bit for bit** the same as B independent replays.  Single-server
rows are checked against the scalar governor kernel and
``GovernorSimulator.replay``; fleet rows against the object-based
reference path, ``FleetSimulator.run(reference=True)`` (a single
kernel fleet replay is itself a one-row batch, so it is no oracle):

* every column of every replay, across all governors, routings,
  autoscale on/off and ragged trace lengths (so the (B, T) padding and
  masking must be exact, not approximately right);
* every scalar summary dict, against ``reference=True``
  ``GovernorSimulator.replay`` / ``FleetSimulator.run`` summaries
  (float-sensitive derived ratios included);
* hypothesis-sampled batch shapes: random row counts, random lengths,
  mixed governors in one batch;
* ``least_loaded`` on 8- and 12-node fleets, where the routing weights
  must be summed in node order as the object path sums them;
* zero-capacity grid bottoms, where ``least_loaded`` splits the mass
  evenly (explicit values);
* single replays (one-row batches) against the object path over drawn
  traces, fleets, autoscaler bands and crash/restore schedules, under
  every routing, which pins the per-row power-state timeline;
* mixed-configuration fleet batches -- each row its own fleet size,
  autoscaler, pack fill, off-power and crash/restore/cap schedule, on
  a node axis padded to the largest fleet -- against the object path
  byte for byte, and their summaries against a shuffled submission
  order and against each spec run alone;
* the synchronized ``least_loaded`` index chain against the batched
  step loop, on one row and on ragged stacks, and ragged batches that
  split rows between the two paths;
* specs whose policy types have no kernel fall back to the per-replay
  simulator path inside the same batch;
* what a fleet batch keeps: a multi-row batch holds no ``(B, N, T)``
  array but its four decisions and builds node tables per row on
  request, and a held 96-replay result retains at most 32 bytes per
  node-step while its rows still equal the object path;
* ``results()`` over a mixed population builds each fleet batch's node
  tables once and equals every ``result(i)`` bit for bit.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.config import default_server
from repro.dvfs import GOVERNORS, GovernorSimulator, LoadTrace
from repro.dvfs.governors import PerformanceGovernor, governor_by_name
from repro.dvfs.replay import REPLAY_COLUMNS, ReplayResult
from repro.fleet import (
    ROUTERS,
    Autoscaler,
    DisturbanceSchedule,
    FleetSimulator,
    node_crash,
    node_restore,
    thermal_cap,
)
from repro.fleet.node import NodeState
from repro.fleet.result import FLEET_COLUMNS, NODE_COLUMNS
from repro.fleet.routing import (
    LeastLoadedRouting,
    PackRouting,
    RoundRobinRouting,
)
from repro.kernels import (
    BatchReplayRunner,
    FleetReplayBatch,
    FrequencyTable,
    ReplaySpec,
    governor_replay_columns,
)
from repro.kernels import batch as batch_module
from repro.kernels.batch import _batched_sequential_selection, _row_timeline
from repro.kernels.fleet import (
    _least_loaded_chain,
    _least_loaded_ratios,
    _route_targets,
)
from repro.kernels.governors import select_step_indices
from repro.resilience import SpecError
from repro.workloads.banking_vm import VMS_LOW_MEM
from repro.workloads.cloudsuite import DATA_SERVING, WEB_SEARCH

_OFF, _SERVING = int(NodeState.OFF), int(NodeState.SERVING)

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


def assert_fleet_columns_equal(got, reference, label):
    """Every fleet and node column of two fleet results, dtypes included."""
    assert_columns_equal(
        {name: got.column(name) for name in FLEET_COLUMNS},
        {name: reference.column(name) for name in FLEET_COLUMNS},
        label,
    )
    assert got.node_ids == reference.node_ids, label
    for node in reference.node_ids:
        assert_columns_equal(
            {name: got.node_column(node, name) for name in NODE_COLUMNS},
            {name: reference.node_column(node, name) for name in NODE_COLUMNS},
            f"{label}/node{node}",
        )


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
    """Mixed-policy batches reproduce reference-path summaries exactly."""
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
        reference = websearch_simulator.replay(
            spec.trace, spec.governor, reference=True
        )
        assert summaries[index] == reference.summary()


# -- fleet batches vs the object path ---------------------------------------------------


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
    """(B, N, T) stacking is exact for every routing x governor trio:
    each row equals the object path's replay of its trace."""
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
    simulator = FleetSimulator(
        default_context,
        WEB_SEARCH,
        fleet_size=3,
        governor=governor,
        autoscaler=autoscaler,
        off_power_w=7.0,
    )
    for row, trace in enumerate(traces):
        assert_fleet_columns_equal(
            result.result(row),
            simulator.run(trace, routing, reference=True),
            f"{routing}/{governor}/row{row}",
        )


@pytest.mark.parametrize("routing", sorted(ROUTERS))
def test_batched_fleet_summaries_match_simulator(routing, default_context):
    """Summary dicts equal the reference path's exactly, per routing."""
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
        reference = simulator.run(trace, routing, reference=True)
        assert summaries[index] == reference.summary()


@pytest.mark.parametrize("governor", ["conservative", "ondemand"])
@pytest.mark.parametrize("fleet_size", [8, 12])
def test_wide_least_loaded_batch_sums_weights_in_node_order(
    governor, fleet_size, default_context
):
    """From eight nodes up NumPy's pairwise ``sum`` rounds differently
    from the object path's running total; the batch must not."""
    traces = [LoadTrace.bursty(steps=60, seed=seed) for seed in (1, 2)]
    rows = len(traces)
    batch = FleetReplayBatch(
        default_context.frequency_table(WEB_SEARCH), WEB_SEARCH,
        governor_by_name(governor), True, traces, [fleet_size] * rows,
        [LeastLoadedRouting()] * rows, [None] * rows, [0.0] * rows,
        [None] * rows,
    )
    simulator = FleetSimulator(
        default_context, WEB_SEARCH, fleet_size=fleet_size, governor=governor
    )
    for row, trace in enumerate(traces):
        assert_fleet_columns_equal(
            batch.result(row),
            simulator.run(trace, "least_loaded", reference=True),
            f"row{row}",
        )


def _zero_capacity_bottom_table():
    return FrequencyTable(
        workload_name="probe",
        frequencies_hz=[1.0e9, 2.0e9],
        capacity_uips=[0.0, 1.0e9],
        power_w=[10.0, 20.0],
        qos_metric=[0.0, 0.0],
        qos_ok=[True, True],
        latency_seconds=[np.nan, np.nan],
    )


def _zero_capacity_batch(traces, disturbances):
    """Two powersave nodes on :func:`_zero_capacity_bottom_table`
    (nominal capacity 1e9 uips), routed ``least_loaded``."""
    rows = len(traces)
    return FleetReplayBatch(
        _zero_capacity_bottom_table(), WEB_SEARCH,
        governor_by_name("powersave"), False, traces, [2] * rows,
        [LeastLoadedRouting()] * rows, [None] * rows, [0.0] * rows,
        disturbances,
    )


def test_least_loaded_batch_zero_capacity_falls_back_to_even_split():
    """Powersave parks the fleet on a zero-capacity grid bottom from
    step 0, which zeroes every weight; each batch row then splits its
    mass evenly at every step (ragged rows included)."""
    traces = [LoadTrace.constant(0.5, steps=3), LoadTrace.constant(0.3, steps=5)]
    batch = _zero_capacity_batch(traces, [None, None])
    demand = [batch.columns_for(row)[1]["demand_uips"] for row in (0, 1)]
    assert demand[0].tolist() == [[0.5e9] * 3] * 2
    assert demand[1].tolist() == [[0.3e9] * 5] * 2


def test_least_loaded_batch_zero_capacity_fallback_on_the_step_loop():
    """A cap below nominal keeps a row on the batched step loop, whose
    zero-weight total takes the even-split fallback; it shares the
    group with a synchronized row on the chain."""
    traces = [LoadTrace.constant(0.5, steps=3), LoadTrace.constant(0.3, steps=5)]
    capped = DisturbanceSchedule(events=(thermal_cap(0, 0, 1.5e9),))
    with obs.capture() as window:
        batch = _zero_capacity_batch(traces, [capped, None])
    assert window.counter_deltas()["fleet.selection_step_rows"] == 1
    assert window.counter_deltas()["fleet.selection_chain_rows"] == 1
    demand = [batch.columns_for(row)[1]["demand_uips"] for row in (0, 1)]
    # Step 0 weighs the capped node at zero; from step 1 both weights
    # are zero and the mass splits evenly.
    assert demand[0][:, 0].tolist() == [0.0, 1.0e9]
    assert demand[0][:, 1:3].tolist() == [[0.5e9, 0.5e9], [0.5e9, 0.5e9]]
    assert demand[1].tolist() == [[0.3e9] * 5] * 2


def test_fleet_batch_needs_one_schedule_per_trace(default_context):
    traces = [LoadTrace.constant(0.5, steps=4)] * 2
    with pytest.raises(ValueError, match="1 disturbance schedules for 2"):
        FleetReplayBatch(
            default_context.frequency_table(WEB_SEARCH), WEB_SEARCH,
            governor_by_name("performance"), True, traces, [2, 2],
            [RoundRobinRouting()] * 2, [None, None], [0.0, 0.0], [None],
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


def _kernel_and_reference(simulator, trace, routing, schedule):
    """``FleetSimulator.run`` on the kernel and on the object path;
    a path that raises gives its error message instead."""
    outcomes = []
    for reference in (False, True):
        try:
            outcomes.append(
                simulator.run(
                    trace, routing, reference=reference, disturbances=schedule
                )
            )
        except ValueError as error:
            outcomes.append(str(error))
    return outcomes


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
def test_row_timeline_equals_the_scalar_state_machine(case, default_context):
    """A single replay -- a one-row batch -- equals the object path on
    every fleet and node column under every routing, or fails with the
    same error.  Per-node ``demand_uips`` shows the routing view before
    a step's crashes land; ``state``, ``wake_events``,
    ``serving_servers`` and ``booting_servers`` show the post-crash
    states, the wakes and the static restores."""
    utilization, fleet_size, autoscaler, schedule = case
    simulator = FleetSimulator(
        default_context, WEB_SEARCH, fleet_size=fleet_size,
        autoscaler=autoscaler,
    )
    trace = make_trace(utilization)
    for routing in sorted(ROUTERS):
        kernel, reference = _kernel_and_reference(
            simulator, trace, routing, schedule
        )
        if isinstance(reference, str):
            assert kernel == reference, routing
        else:
            _assert_fleet_results_equal(kernel, reference, routing)


# -- mixed-configuration batches --------------------------------------------------------

_GRID_HZ = default_server().frequency_grid


@st.composite
def mixed_fleet_cases(draw):
    """2-6 fleet specs under one workload, governor and routing kind,
    each with its own trace, fleet size, autoscaler (or none, wake
    energy included), pack fill, off-power and crash/restore/cap
    schedule; plus a submission order to shuffle them into."""
    workload = draw(st.sampled_from([WEB_SEARCH, DATA_SERVING]))
    governor = draw(st.sampled_from(sorted(GOVERNORS)))
    routing = draw(st.sampled_from(sorted(ROUTERS)))
    specs = []
    for row in range(draw(st.integers(min_value=2, max_value=6))):
        utilization, fleet_size, autoscaler, schedule = draw(timeline_cases())
        if autoscaler is not None:
            autoscaler = dataclasses.replace(
                autoscaler,
                wake_energy_j=draw(st.sampled_from([0.0, 250.0, 1000.0])),
            )
        events = schedule.events if schedule is not None else ()
        taken = {(event.node_id, event.step) for event in events}
        caps = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=fleet_size - 1),
                    st.integers(min_value=0, max_value=len(utilization) - 1),
                    st.sampled_from(_GRID_HZ),
                ),
                max_size=2,
                unique_by=lambda cap: cap[:2],
            )
        )
        events = tuple(events) + tuple(
            thermal_cap(*cap) for cap in caps if cap[:2] not in taken
        )
        specs.append(
            ReplaySpec(
                workload=workload,
                trace=make_trace(
                    utilization,
                    step_seconds=draw(st.sampled_from([60.0, 300.0])),
                    name=f"row{row}",
                ),
                governor=governor,
                fleet_size=fleet_size,
                routing=(
                    PackRouting(
                        fill_fraction=draw(
                            st.floats(min_value=0.05, max_value=1.0)
                        )
                    )
                    if routing == "pack"
                    else routing
                ),
                autoscaler=autoscaler,
                off_power_w=draw(st.sampled_from([0.0, 4.0, 12.5])),
                disturbances=DisturbanceSchedule(events) if events else None,
            )
        )
    return specs, draw(st.permutations(range(len(specs))))


def _reference_or_error(context, spec):
    """The object path's replay of ``spec``, or its error message."""
    try:
        return FleetSimulator(
            context,
            spec.workload,
            fleet_size=spec.fleet_size,
            governor=spec.governor,
            autoscaler=spec.autoscaler,
            off_power_w=spec.off_power_w,
        ).run(
            spec.trace,
            spec.routing,
            reference=True,
            disturbances=spec.disturbances,
        )
    except ValueError as error:
        return str(error)


def _assert_same_bits_as(got, reference, label):
    """Every fleet and node column bit for bit, and the summary."""
    assert got.node_ids == reference.node_ids, label
    for name in FLEET_COLUMNS:
        assert _same_bits(got.column(name), reference.column(name)), (
            f"{label}: fleet column {name}"
        )
    for node in reference.node_ids:
        for name in NODE_COLUMNS:
            assert _same_bits(
                got.node_column(node, name), reference.node_column(node, name)
            ), f"{label}: node {node} column {name}"
    assert got.summary() == reference.summary(), label


@settings(max_examples=40, deadline=None)
@given(case=mixed_fleet_cases())
def test_mixed_configuration_batch_equals_the_object_path(
    case, default_context
):
    """One tensor batch holds fleets of different sizes, autoscalers,
    pack fills, off-powers and schedules: every row equals its own
    ``reference=True`` replay bit for bit, a replay that fails there
    fails alone in the runner with the same message, and the summaries
    do not depend on submission order or batch composition."""
    specs, order = case
    outcomes = [_reference_or_error(default_context, spec) for spec in specs]
    runner = BatchReplayRunner(default_context)
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, str):
            with pytest.raises(ValueError) as error:
                runner.run([spec])
            assert str(error.value) == outcome
    healthy = [
        index
        for index in order
        if not isinstance(outcomes[index], str)
    ]
    if not healthy:
        return
    with obs.capture() as window:
        result = runner.run([specs[index] for index in healthy])
    assert result.batched_count == len(healthy)
    # One tensor batch, whatever the sizes and autoscalers.
    assert sum(span.name == "batch.selection" for span in window.spans) == 1
    summaries = result.summaries()
    for position, index in enumerate(healthy):
        label = f"row {index} at {position}"
        _assert_same_bits_as(result.result(position), outcomes[index], label)
        assert summaries[position] == outcomes[index].summary(), label
        alone = runner.run([specs[index]]).summaries()
        assert alone == [summaries[position]], label
    in_order = sorted(healthy)
    resubmitted = runner.run([specs[index] for index in in_order]).summaries()
    for position, index in enumerate(in_order):
        assert resubmitted[position] == summaries[healthy.index(index)]


# -- what a fleet batch keeps -----------------------------------------------------------


def _held_arrays(value):
    """Every array reachable from ``value`` through dicts, lists and
    tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [array for item in value for array in _held_arrays(item)]
    return []


def _pack_batch(table, rows):
    """The first ``rows`` (1 or 2) of two conservative pack replays: 4
    and 3 nodes, static and autoscaled, on ragged traces."""
    traces = [LoadTrace.diurnal(steps=48, seed=1), LoadTrace.bursty(steps=30)]
    return FleetReplayBatch(
        table, WEB_SEARCH, governor_by_name("conservative"), True,
        traces[:rows], [4, 3][:rows], [PackRouting(), PackRouting(0.5)][:rows],
        [None, Autoscaler()][:rows], [5.0, 0.0][:rows], [None, None][:rows],
    )


def test_a_multi_row_fleet_batch_holds_only_its_decisions(default_context):
    """After construction a multi-row batch holds no ``(B, N, T)`` array
    but its four decisions -- power state, wake flag, grid index and
    routed share -- and builds a row's node tables on each request; a
    one-row batch keeps the tables its reduce stage built."""
    table = default_context.frequency_table(WEB_SEARCH)
    with obs.capture() as window:
        batch = _pack_batch(table, rows=2)
    assert "batch.node_table_rows" not in window.counter_deltas()
    assert sorted(batch.decisions) == ["index", "share", "state", "wake"]
    held = [array for array in _held_arrays(vars(batch)) if array.ndim == 3]
    assert sorted(map(id, held)) == sorted(map(id, batch.decisions.values()))
    assert batch.decisions["index"].dtype == np.min_scalar_type(len(table) - 1)
    with obs.capture() as window:
        first = batch.columns_for(1)[1]
        again = batch.columns_for(1)[1]
    assert window.counter_deltas()["batch.node_table_rows"] == 2
    assert sorted(first) == sorted(NODE_COLUMNS)
    assert_columns_equal(again, first, "row 1, built twice")

    with obs.capture() as window:
        single = _pack_batch(table, rows=1)
        single.columns_for(0)
        single.columns_for(0)
    assert window.counter_deltas()["batch.node_table_rows"] == 1


def test_a_held_summaries_only_result_retains_decisions_not_node_tables(
    default_context,
):
    """A held 96-replay result (2 routings x 2 governors x autoscaler
    on/off x 12 traces, N=8, T=288) retains at most 32 bytes per
    node-step -- keeping every batch's 11 node tables took ~72 -- and
    its summaries, and its results requested in shuffled order, still
    equal the object path bit for bit."""
    traces = [
        LoadTrace.diurnal(steps=288, seed=seed)
        if seed % 2
        else LoadTrace.bursty(steps=288, seed=seed)
        for seed in range(12)
    ]
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH, trace=trace, governor=governor,
            fleet_size=8, routing=routing, autoscaler=autoscaler,
        )
        for routing in ("pack", "least_loaded")
        for governor in ("qos_tracker", "conservative")
        for autoscaler in (None, Autoscaler())
        for trace in traces
    ]
    runner = BatchReplayRunner(default_context)
    runner.run(specs)  # warms the context's table and the kernel caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = runner.run(specs)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    node_steps = sum(spec.fleet_size * len(spec.trace) for spec in specs)
    assert result.batched_count == len(specs) == 96
    assert retained / node_steps <= 32.0, retained / node_steps

    references = [_reference_or_error(default_context, spec) for spec in specs]
    assert result.summaries() == [
        reference.summary() for reference in references
    ]
    for index in np.random.default_rng(7).permutation(len(specs)).tolist():
        _assert_same_bits_as(
            result.result(index), references[index], f"replay {index}"
        )


def _assert_identical_results(got, expected, label):
    """Same kind, labels and summary, and every column's dtype and bytes."""
    assert type(got) is type(expected), label
    if isinstance(expected, ReplayResult):
        for name in REPLAY_COLUMNS:
            assert _same_bits(got.column(name), expected.column(name)), (
                f"{label}: column {name}"
            )
        assert got.summary() == expected.summary(), label
        return
    for name in (
        "routing_name", "governor_name", "workload_name", "trace_name",
        "fleet_size", "step_seconds", "autoscaled", "disturbance_events",
    ):
        assert getattr(got, name) == getattr(expected, name), (label, name)
    _assert_same_bits_as(got, expected, label)


def test_results_build_each_fleet_batch_once_and_equal_each_result(
    default_context, monkeypatch
):
    """``BatchReplayResult.results()`` materializes a mixed population --
    multi-row governor and fleet batches on ragged traces with mixed
    fleet sizes, autoscalers, off-powers and schedules, a one-row fleet
    batch and a fallback replay -- with one node-table build per
    multi-row fleet batch, each fleet row built once, and equals
    ``result(i)`` for every ``i``, requested in shuffled order, bit for
    bit and with dtypes."""

    @dataclasses.dataclass(frozen=True)
    class FloorGovernor(PerformanceGovernor):
        def select(self, observation, platform):
            return platform.frequencies[0]

    traces = [
        LoadTrace.bursty(steps=30, seed=2),
        LoadTrace.diurnal(steps=48, seed=3),
        LoadTrace.bursty(steps=41, seed=5),
    ]
    grid = default_context.frequency_table(WEB_SEARCH).frequencies_hz
    schedules = [
        None,
        DisturbanceSchedule((node_crash(1, 4), node_restore(1, 12))),
        DisturbanceSchedule((thermal_cap(0, 3, grid[5]),)),
    ]
    specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor=governor)
        for governor in ("ondemand", "conservative")
        for trace in traces
    ]
    specs += [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor=governor,
            fleet_size=size,
            routing=routing,
            autoscaler=autoscaler,
            off_power_w=off_power,
            disturbances=schedule if autoscaler is None else None,
        )
        for routing in (PackRouting(0.6), "least_loaded")
        for governor in ("conservative", "qos_tracker")
        for trace, size, autoscaler, off_power, schedule in zip(
            traces, (3, 5, 4), (None, Autoscaler(), None), (0.0, 5.0, 12.5),
            schedules,
        )
    ]
    specs.append(
        ReplaySpec(
            workload=WEB_SEARCH, trace=traces[0], governor="ondemand",
            fleet_size=2, routing="round_robin",
        )
    )
    specs.append(
        ReplaySpec(workload=WEB_SEARCH, trace=traces[1], governor=FloorGovernor())
    )
    fleet_rows = sum(spec.is_fleet for spec in specs)
    with obs.capture() as window:
        result = BatchReplayRunner(default_context).run(specs)
        builds = []
        node_tables = batch_module._node_tables

        def counted(*args, **kwargs):
            builds.append(len(args[1]["state"]))
            return node_tables(*args, **kwargs)

        monkeypatch.setattr(batch_module, "_node_tables", counted)
        results = result.results()
        monkeypatch.undo()
    assert result.batched_count == len(specs) - 1
    assert result.fallback_count == 1
    # Four 3-row fleet batches, (routing, governor); the one-row batch
    # kept the tables its reduce stage built.
    assert builds == [3, 3, 3, 3]
    assert window.counter_deltas()["batch.node_table_rows"] == fleet_rows
    assert len(results) == len(specs)
    for index in np.random.default_rng(3).permutation(len(specs)).tolist():
        _assert_identical_results(
            results[index], result.result(index), f"replay {index}"
        )


# -- the synchronized least_loaded chain ------------------------------------------------

MEMORYLESS_GOVERNORS = ("ondemand", "performance", "powersave", "qos_tracker")


def _same_bits(got, expected):
    return got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@st.composite
def crash_schedules(draw, fleet_size, steps):
    """Crash-only schedules that leave at least one node up."""
    nodes = draw(
        st.lists(
            st.integers(min_value=0, max_value=fleet_size - 1),
            unique=True,
            max_size=fleet_size - 1,
        )
    )
    events = tuple(
        node_crash(node, draw(st.integers(min_value=0, max_value=steps - 1)))
        for node in nodes
    )
    return DisturbanceSchedule(events=events) if events else None


@st.composite
def synchronized_rows(draw, fleet_size):
    """One least_loaded row that never resets a node's DVFS history: a
    static fleet, or an autoscaled one on a falling load that never
    wakes; either may lose nodes to crashes."""
    utilization = draw(plateau_utilizations)
    autoscaler = draw(
        st.one_of(
            st.none(),
            st.builds(
                Autoscaler,
                min_servers=st.integers(min_value=1, max_value=fleet_size),
                wake_steps=st.integers(min_value=0, max_value=2),
            ),
        )
    )
    if autoscaler is not None:
        utilization = sorted(utilization, reverse=True)
    schedule = draw(crash_schedules(fleet_size, len(utilization)))
    mass = np.asarray(utilization) * fleet_size
    timeline = _row_timeline(mass, fleet_size, autoscaler, schedule)
    assume(timeline.wake is None and timeline.restart is None)
    return utilization, autoscaler, schedule


@st.composite
def synchronized_cases(draw):
    fleet_size = draw(st.integers(min_value=1, max_value=16))
    return (
        draw(st.sampled_from([WEB_SEARCH, DATA_SERVING])),
        draw(st.sampled_from(MEMORYLESS_GOVERNORS)),
        fleet_size,
        draw(st.lists(synchronized_rows(fleet_size), min_size=1, max_size=4)),
    )


def _assert_chain_equals_step_loops(table, governor, fleet_size, rows):
    """``_least_loaded_chain`` == the batched step loop, bit for bit, on
    every row alone (B=1) and on the rows stacked (ragged B)."""
    masses, timelines = [], []
    for utilization, autoscaler, schedule in rows:
        mass = np.asarray(utilization, dtype=np.float64) * fleet_size
        masses.append(mass)
        timelines.append(_row_timeline(mass, fleet_size, autoscaler, schedule))
    for mass, timeline in zip(masses, timelines):
        _assert_chain_equals_step_loop(
            table, governor, fleet_size, [mass], [timeline]
        )
    _assert_chain_equals_step_loop(
        table, governor, fleet_size, masses, timelines
    )


def _assert_chain_equals_step_loop(
    table, governor, fleet_size, masses, timelines
):
    lengths = [len(mass) for mass in masses]
    batch, steps = len(masses), max(lengths)
    mass2d = np.zeros((batch, steps))
    # Padded steps as FleetReplayBatch pads them: node 0 serving.
    state3d = np.full((batch, fleet_size, steps), _OFF, dtype=np.int8)
    state3d[:, 0, :] = _SERVING
    route3d = state3d.copy()
    for row, (mass, timeline) in enumerate(zip(masses, timelines)):
        mass2d[row, : len(mass)] = mass
        state3d[row, :, : len(mass)] = timeline.state
        route3d[row, :, : len(mass)] = timeline.route_state
    valid2d = np.arange(steps) < np.array(lengths)[:, np.newaxis]
    serving3d = state3d == _SERVING
    target3d = _route_targets(route3d == _SERVING, route3d != _OFF)
    shares_ref, idx_ref = _batched_sequential_selection(
        table, governor, mass2d, serving3d, np.zeros_like(serving3d),
        target3d, None, None,
    )
    shares, idx = _least_loaded_chain(
        table, governor, mass2d, target3d, valid2d
    )
    valid3d = np.broadcast_to(valid2d[:, np.newaxis, :], serving3d.shape)
    assert _same_bits(shares[valid3d], shares_ref[valid3d])
    read = serving3d & valid3d
    assert _same_bits(idx[read], idx_ref[read])


@settings(max_examples=80, deadline=None)
@given(case=synchronized_cases())
@example(case=(WEB_SEARCH, "qos_tracker", 1, [([0.7], None, None)]))
@example(
    case=(
        DATA_SERVING,
        "ondemand",
        5,
        [
            ([1.0] * 4 + [0.0] * 3, None, None),
            (
                [1.0, 0.6, 0.6, 0.0],
                Autoscaler(min_servers=2),
                DisturbanceSchedule(events=(node_crash(0, 1),)),
            ),
        ],
    )
)
def test_least_loaded_chain_equals_the_step_loops(case, default_context):
    """On synchronized rows the closed-form chain reproduces the step
    loop's shares and serving-node indices bit for bit, alone and
    stacked: one- to
    sixteen-node fleets, every memoryless governor, zero-load and
    saturated plateaus, single-step traces, crashes, and autoscaled
    rows that park but never wake."""
    workload, governor, fleet_size, rows = case
    _assert_chain_equals_step_loops(
        default_context.frequency_table(workload),
        governor_by_name(governor),
        fleet_size,
        rows,
    )


def test_least_loaded_chain_walks_where_candidates_disagree(default_context):
    """Eight Web Search targets at nominal each get exactly 0.125 of the
    mass, but at grid index 14 or 15 one ulp more.  A load on the
    covering boundary between those two shares makes a step's choice
    depend on the previous index, so the chain has to walk it."""
    table = default_context.frequency_table(WEB_SEARCH)
    governor = governor_by_name("qos_tracker")
    nominal = table.nominal_index
    ratio = _least_loaded_ratios(table, 8)[0][7]
    assert ratio[nominal] == 0.125 < min(ratio[14], ratio[15])

    def choice(share):
        share = np.array([share])
        return int(
            select_step_indices(
                governor, table, share, share * table.nominal_capacity_uips,
                np.full(1, nominal), nominal,
            )[0]
        )

    def straddling(index):
        """A utilization covered at ``index`` from nominal but needing
        ``index + 1`` from ``index``."""
        start = table.covers_capacity_uips[index] / table.nominal_capacity_uips
        for offset in range(-8, 9):
            utilization = start + offset * np.spacing(start)
            mass = utilization * 8
            if (
                choice(mass * ratio[nominal]) == index
                and choice(mass * ratio[index]) == index + 1
            ):
                return float(utilization)
        raise AssertionError(f"no load straddles grid index {index}")

    on_14, on_15 = straddling(14), straddling(15)
    utilization = [on_14, on_14, on_15]
    _assert_chain_equals_step_loops(
        table, governor, 8, [(utilization, None, None)]
    )
    mass = np.array(utilization) * 8
    _, idx = _least_loaded_chain(
        table, governor, mass[np.newaxis], np.ones((1, 8, 3), dtype=bool)
    )
    # The first candidate column alone would give 14, 14, 15.
    assert idx[0, 0].tolist() == [14, 15, 16]
    simulator = FleetSimulator(
        default_context, WEB_SEARCH, fleet_size=8, governor="qos_tracker"
    )
    trace = make_trace(utilization)
    kernel = simulator.run(trace, "least_loaded")
    reference = simulator.run(trace, "least_loaded", reference=True)
    assert kernel.node_column(0, "frequency_hz").tolist() == [
        table.frequencies_hz[index] for index in (14, 15, 16)
    ]
    _assert_fleet_results_equal(kernel, reference, "walk")


def _assert_fleet_results_equal(got, reference, label):
    for name in FLEET_COLUMNS:
        assert np.array_equal(
            got.column(name), reference.column(name), equal_nan=True
        ), f"{label}: fleet column {name}"
    for node in reference.node_ids:
        for name in NODE_COLUMNS:
            assert np.array_equal(
                got.node_column(node, name),
                reference.node_column(node, name),
                equal_nan=True,
            ), f"{label}: node {node} column {name}"
    assert got.summary() == reference.summary(), label


def test_ragged_least_loaded_batch_splits_chain_and_step_rows(
    default_context,
):
    """Synchronized rows share ragged groups with rows that wake,
    restore on a static fleet or carry a cap below nominal; the chain
    and the step loop each take their own rows, and every row is the
    object path's replay bit for bit, in either submission order."""
    grid = default_context.frequency_table(WEB_SEARCH).frequencies_hz
    bursty = LoadTrace.bursty(steps=40, seed=8)
    # (trace, autoscaler, events, synchronized)
    rows = [
        (bursty, None, (), True),
        (bursty.head(23), None, (), True),
        (bursty, None, (node_crash(2, 9),), True),
        (bursty, None, (thermal_cap(1, 4, grid[-1]),), True),
        (bursty, None, (node_crash(0, 5), node_restore(0, 11)), False),
        (bursty.head(31), None, (thermal_cap(3, 6, grid[4]),), False),
        (LoadTrace.constant(0.3, steps=17), Autoscaler(), (), True),
        (bursty, Autoscaler(), (), False),
        (bursty.head(15), Autoscaler(wake_steps=0), (), False),
    ]
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor=governor,
            fleet_size=4,
            routing="least_loaded",
            autoscaler=autoscaler,
            disturbances=DisturbanceSchedule(events) if events else None,
        )
        for governor in ("qos_tracker", "ondemand")
        for trace, autoscaler, events, _ in rows
    ]
    chain_rows = 2 * sum(synchronized for *_, synchronized in rows)
    references = [
        FleetSimulator(
            default_context,
            WEB_SEARCH,
            fleet_size=4,
            governor=spec.governor,
            autoscaler=spec.autoscaler,
        ).run(
            spec.trace, "least_loaded", reference=True,
            disturbances=spec.disturbances,
        )
        for spec in specs
    ]
    for order in (specs, specs[::-1]):
        with obs.capture() as window:
            result = BatchReplayRunner(default_context).run(order)
        counters = window.counter_deltas()
        assert counters["fleet.selection_chain_rows"] == chain_rows
        assert (
            counters["fleet.selection_step_rows"]
            == len(specs) - chain_rows
        )
        summaries = result.summaries()
        for position, spec in enumerate(order):
            index = specs.index(spec)
            label = f"row {index} at {position}"
            _assert_fleet_results_equal(
                result.result(position), references[index], label
            )
            assert summaries[position] == references[index].summary(), label


@pytest.mark.parametrize(
    "governor, chained", [("performance", True), ("powersave", False)]
)
def test_performance_least_loaded_rows_that_wake_take_the_chain(
    governor, chained, default_context
):
    """Under ``performance`` every choice and every restart is the
    nominal index, so autoscaled rows that wake nodes (``wake_steps`` 0
    and > 0) and a static row that crashes and restores a node all keep
    their targets on one index and take the chain -- bit for bit the
    object path, steps that route only booting nodes included.  Under
    ``powersave`` a woken node restarts at nominal while the others sit
    at index 0, so the same rows step."""
    ramp = make_trace([0.05] * 4 + [0.8] * 6 + [0.2] * 4 + [0.9] * 6)
    bursty = LoadTrace.bursty(steps=40, seed=8)
    rows = [
        # Node 0 serves alone, then crashes as nodes 1-3 start booting:
        # the next step routes the mass to booting nodes only.
        (ramp, Autoscaler(wake_steps=2), (node_crash(0, 4),)),
        (ramp, Autoscaler(wake_steps=0), (node_crash(0, 4),)),
        (bursty, Autoscaler(wake_steps=1), ()),
        (bursty.head(29), Autoscaler(wake_steps=0), ()),
        (bursty, None, (node_crash(0, 5), node_restore(0, 11))),
    ]
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor=governor,
            fleet_size=4,
            routing="least_loaded",
            autoscaler=autoscaler,
            disturbances=DisturbanceSchedule(events) if events else None,
        )
        for trace, autoscaler, events in rows
    ]
    references = [
        FleetSimulator(
            default_context,
            WEB_SEARCH,
            fleet_size=4,
            governor=governor,
            autoscaler=spec.autoscaler,
        ).run(
            spec.trace, "least_loaded", reference=True,
            disturbances=spec.disturbances,
        )
        for spec in specs
    ]
    # Every row restarts a node, and the first routes booting nodes alone.
    for reference in references[:-1]:
        assert reference.column("wake_events").sum() > 0
    booting_only = (references[0].column("serving_servers") == 0) & (
        references[0].column("booting_servers") > 0
    )
    assert booting_only.any()
    with obs.capture() as window:
        result = BatchReplayRunner(default_context).run(specs)
    counters = window.counter_deltas()
    assert counters.get("fleet.selection_chain_rows", 0) == (
        len(specs) if chained else 0
    )
    assert counters.get("fleet.selection_step_rows", 0) == (
        0 if chained else len(specs)
    )
    summaries = result.summaries()
    for row, reference in enumerate(references):
        _assert_fleet_results_equal(
            result.result(row), reference, f"{governor} row {row}"
        )
        assert summaries[row] == reference.summary(), f"{governor} row {row}"


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
    for fleet_size in (2.0, 2.5, True):
        with pytest.raises(SpecError, match="fleet_size must be an int"):
            ReplaySpec(
                workload=WEB_SEARCH,
                trace=trace,
                fleet_size=fleet_size,
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
    # A truthy stand-in would replay with queueing tails.
    for queueing in ("false", 1, None):
        for fleet in ({}, {"fleet_size": 2, "routing": "pack"}):
            with pytest.raises(
                SpecError, match="replay spec: queueing must be a bool"
            ):
                ReplaySpec(
                    workload=WEB_SEARCH, trace=trace, queueing=queueing,
                    **fleet,
                )
    # Unknown names fail at construction, not inside the runner.
    with pytest.raises(SpecError, match="replay spec: unknown governor 'nope'"):
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor="nope")
    with pytest.raises(
        SpecError, match="replay spec: unknown routing policy 'nope'"
    ):
        ReplaySpec(
            workload=WEB_SEARCH, trace=trace, fleet_size=2, routing="nope"
        )
    resolved = ReplaySpec(
        workload=WEB_SEARCH, trace=trace, governor="ondemand", fleet_size=2,
        routing="pack",
    )
    assert resolved.governor == governor_by_name("ondemand")
    assert resolved.routing == PackRouting()
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
