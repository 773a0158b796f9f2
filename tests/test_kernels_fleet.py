"""Kernel-vs-reference equivalence for the fleet replay kernels.

The acceptance criterion the tentpole pins: for **every** routing x
governor x autoscale combination, the kernel path's fleet-level and
per-node columns are bit-for-bit identical to the object-based
reference loop -- wake penalties, boot countdowns, queueing tails,
dropped-load violations and all.  Equality is ``np.array_equal`` on
the raw arrays; no tolerances.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.dvfs import GOVERNORS, LoadTrace, governor_by_name
from repro.dvfs.governors import LoadObservation, PlatformView
from repro.fleet import ROUTERS, Autoscaler, FleetSimulator
from repro.fleet.node import NodeState
from repro.fleet.result import FLEET_COLUMNS, NODE_COLUMNS
from repro.fleet.routing import SpreadRouting
from repro.kernels import fleet_kernel_supports, select_step_indices
from repro.kernels.fleet import _worst_tails, supports, tail_latencies
from repro.kernels.table import FrequencyTable
from repro.latency.queueing import MG1Queue, MM1Queue
from repro.workloads.banking_vm import VMS_HIGH_MEM
from repro.workloads.cloudsuite import WEB_SEARCH


def assert_fleets_bit_identical(kernel, reference) -> None:
    assert len(kernel) == len(reference)
    for name in FLEET_COLUMNS:
        assert np.array_equal(
            kernel.column(name), reference.column(name), equal_nan=True
        ), f"fleet column {name} differs between kernel and reference"
    assert kernel.node_ids == reference.node_ids
    for node_id in kernel.node_ids:
        for name in NODE_COLUMNS:
            assert np.array_equal(
                kernel.node_column(node_id, name),
                reference.node_column(node_id, name),
                equal_nan=True,
            ), f"node {node_id} column {name} differs"


@pytest.fixture(scope="module")
def short_bursty():
    """A 40-step slice: bursts, troughs and autoscaler flapping."""
    return LoadTrace.bursty().head(40)


@pytest.mark.parametrize("routing", sorted(ROUTERS))
@pytest.mark.parametrize("autoscaled", [False, True])
@pytest.mark.parametrize("governor", sorted(GOVERNORS))
def test_websearch_fleet_bit_identical(
    routing, autoscaled, governor, default_context, short_bursty
):
    simulator = FleetSimulator(
        default_context,
        WEB_SEARCH,
        fleet_size=5,
        governor=governor,
        autoscaler=Autoscaler() if autoscaled else None,
        off_power_w=7.5,
    )
    kernel = simulator.run(short_bursty, routing)
    reference = simulator.run(short_bursty, routing, reference=True)
    assert_fleets_bit_identical(kernel, reference)
    assert kernel.summary() == reference.summary()


@pytest.mark.parametrize("routing", sorted(ROUTERS))
def test_vm_fleet_bit_identical(routing, default_context, diurnal_trace):
    """VM workloads: no queueing tails, degradation-based QoS."""
    simulator = FleetSimulator(
        default_context,
        VMS_HIGH_MEM,
        fleet_size=6,
        autoscaler=Autoscaler(wake_steps=2, wake_energy_j=500.0),
    )
    kernel = simulator.run(diurnal_trace, routing)
    reference = simulator.run(diurnal_trace, routing, reference=True)
    assert_fleets_bit_identical(kernel, reference)


def test_instant_wakes_bit_identical(default_context, short_bursty):
    """wake_steps=0 exercises the boot-free wake transition."""
    simulator = FleetSimulator(
        default_context,
        WEB_SEARCH,
        fleet_size=4,
        autoscaler=Autoscaler(wake_steps=0),
    )
    for routing in ROUTERS:
        assert_fleets_bit_identical(
            simulator.run(short_bursty, routing),
            simulator.run(short_bursty, routing, reference=True),
        )


def test_compare_supports_reference_flag(default_context, short_bursty):
    simulator = FleetSimulator(
        default_context, WEB_SEARCH, fleet_size=3, autoscaler=Autoscaler()
    )
    kernel = simulator.compare(short_bursty)
    reference = simulator.compare(short_bursty, reference=True)
    assert list(kernel) == list(reference) == list(ROUTERS)
    for name in ROUTERS:
        assert_fleets_bit_identical(kernel[name], reference[name])


def test_repeated_runs_are_stateless_and_identical(
    default_context, short_bursty
):
    """The closed-form tail kernel keeps no per-simulator state."""
    simulator = FleetSimulator(
        default_context, WEB_SEARCH, fleet_size=3, autoscaler=Autoscaler()
    )
    first = simulator.run(short_bursty, "pack")
    # The old (index, demand) memo dict is gone: tails come from the
    # stateless vectorized kernel, so nothing accumulates on the
    # simulator and repeated runs are bit-identical by construction.
    assert not hasattr(simulator, "_tail_cache")
    second = simulator.run(short_bursty, "pack")
    assert_fleets_bit_identical(first, second)


def test_custom_routing_subclass_takes_the_reference_path(
    default_context, short_bursty
):
    """Exact-type dispatch: an overridden policy's assign really runs."""

    class ReverseSpread(SpreadRouting):
        name = "reverse_spread"

        def assign(self, mass, nodes):
            shares = super().assign(mass, nodes)
            return tuple(reversed(shares))

    routing = ReverseSpread()
    simulator = FleetSimulator(default_context, WEB_SEARCH, fleet_size=3)
    assert not supports(
        routing, simulator._make_governor(), simulator.autoscaler
    )
    result = simulator.run(short_bursty, routing)
    assert result.routing_name == "reverse_spread"
    # An even split reversed is still an even split, so the run is
    # identical to spread -- proving the subclass's assign was honoured.
    spread = simulator.run(short_bursty, "spread", reference=True)
    np.testing.assert_array_equal(
        result.column("energy_j"), spread.column("energy_j")
    )


def test_saturating_bursts_hit_the_queueing_tail_branches(
    default_context, short_bursty
):
    """Burst fronts on a booting fleet saturate queues (inf tails)."""
    simulator = FleetSimulator(
        default_context,
        WEB_SEARCH,
        fleet_size=4,
        governor="powersave",
        autoscaler=Autoscaler(wake_steps=3),
    )
    kernel = simulator.run(short_bursty, "round_robin")
    reference = simulator.run(short_bursty, "round_robin", reference=True)
    assert_fleets_bit_identical(kernel, reference)
    # The stress case actually stressed: some queue saturated.
    assert kernel.saturated_step_count > 0


# -- thermal caps: the step kernels on a grid cut at ``top`` -----------------------------


@pytest.mark.parametrize("governor", sorted(GOVERNORS))
def test_capped_step_kernels_match_select_on_the_capped_view(
    governor, websearch_simulator
):
    """For every cap top c: select_step_indices(top=c) == select on the cut grid.

    Sweeps demand from idle past the nominal capacity and, for the
    stateful ``conservative``, every previous index the cut grid allows.
    The scalar top and its per-element array form must agree.
    """
    policy = governor_by_name(governor)
    table = websearch_simulator.table
    full = websearch_simulator.platform
    grid = table.frequencies_hz.tolist()
    utilization = np.linspace(0.0, 1.1, 45)
    demand = utilization * table.nominal_capacity_uips
    for top in range(len(table)):
        capped = PlatformView(
            frequencies=full.frequencies[: top + 1],
            capacity_uips=full.capacity_uips,
            qos_ok=full.qos_ok,
        )
        for previous in range(top + 1):
            expected = [
                grid.index(
                    policy.select(
                        LoadObservation(
                            utilization=u,
                            demand_uips=d,
                            previous_frequency_hz=grid[previous],
                        ),
                        capped,
                    )
                )
                for u, d in zip(utilization.tolist(), demand.tolist())
            ]
            previous_index = np.full(utilization.shape, previous, dtype=np.int64)
            for cap in (top, np.full(utilization.shape, top, dtype=np.int64)):
                chosen = select_step_indices(
                    policy, table, utilization, demand, previous_index, cap
                )
                assert chosen.tolist() == expected, (
                    f"{governor}: top {top}, previous {previous}"
                )


# -- private kernel branches the simulators cannot reach --------------------------------


def test_least_loaded_zero_capacity_falls_back_to_even_split():
    import math

    from repro.dvfs.governors import governor_by_name
    from repro.kernels.fleet import fleet_replay_columns
    from repro.kernels.table import FrequencyTable
    from repro.fleet.routing import LeastLoadedRouting

    # A degenerate grid whose bottom point has zero capacity: once
    # powersave parks every node there, the least-loaded weights sum
    # to zero and the policy's even-split fallback engages.
    table = FrequencyTable(
        workload_name="probe",
        frequencies_hz=[1.0e9, 2.0e9],
        capacity_uips=[0.0, 1.0e9],
        power_w=[10.0, 20.0],
        qos_metric=[0.0, 0.0],
        qos_ok=[True, True],
        latency_seconds=[math.nan, math.nan],
    )
    trace = LoadTrace.constant(0.5, steps=3)
    fleet_columns, node_columns = fleet_replay_columns(
        table=table,
        workload=WEB_SEARCH,
        fleet_size=2,
        governor=governor_by_name("powersave"),
        routing=LeastLoadedRouting(),
        autoscaler=None,
        off_power_w=0.0,
        trace=trace,
        use_queueing=False,
    )
    # Even split of the mass at every step, fallback steps included.
    np.testing.assert_array_equal(node_columns["demand_uips"][0],
                                  node_columns["demand_uips"][1])
    # Nothing can be served at the zero-capacity point; the routed
    # load is dropped and recorded as a violation.
    assert np.all(fleet_columns["served_uips"] == 0.0)
    assert np.all(fleet_columns["violation"])


def test_least_loaded_zero_capacity_fallback_on_the_step_loop():
    from repro.fleet import DisturbanceSchedule, thermal_cap
    from repro.fleet.routing import LeastLoadedRouting
    from repro.kernels.fleet import fleet_replay_columns

    # The previous test's grid, with node 0 capped to the zero-capacity
    # bottom from step 0: a cap below nominal keeps the replay on the
    # step loop, where step 0 weighs node 0 at zero and from step 1 the
    # zero total takes the even-split fallback.
    table = FrequencyTable(
        workload_name="probe",
        frequencies_hz=[1.0e9, 2.0e9],
        capacity_uips=[0.0, 1.0e9],
        power_w=[10.0, 20.0],
        qos_metric=[0.0, 0.0],
        qos_ok=[True, True],
        latency_seconds=[math.nan, math.nan],
    )
    with obs.capture() as window:
        fleet_columns, node_columns = fleet_replay_columns(
            table=table,
            workload=WEB_SEARCH,
            fleet_size=2,
            governor=governor_by_name("powersave"),
            routing=LeastLoadedRouting(),
            autoscaler=None,
            off_power_w=0.0,
            trace=LoadTrace.constant(0.5, steps=3),
            use_queueing=False,
            disturbances=DisturbanceSchedule(
                events=(thermal_cap(0, 0, 1.5e9),)
            ),
        )
    counters = window.counter_deltas()
    assert counters["fleet.selection_step_rows"] == 1
    assert "fleet.selection_chain_rows" not in counters
    assert node_columns["demand_uips"].tolist() == [
        [0.0, 0.5e9, 0.5e9],
        [1.0e9, 0.5e9, 0.5e9],
    ]
    assert np.all(fleet_columns["served_uips"] == 0.0)


def test_routing_kernels_reject_an_empty_active_set(default_context):
    from repro.kernels.fleet import (
        _even_split_shares,
        _least_loaded_chain,
        _pack_shares,
    )

    def pack(*args):
        return _pack_shares(0.75, *args)

    def least_loaded_chain(mass, targets, valid=None):
        table = default_context.frequency_table(WEB_SEARCH)
        governor = governor_by_name("qos_tracker")
        if targets.ndim == 2:  # the chain takes (B, N, T) only
            mass, targets = mass[np.newaxis], targets[np.newaxis]
        return _least_loaded_chain(table, governor, mass, targets, valid)[0]

    # A ragged batch's padded steps may have no target at all; only the
    # valid (unpadded) steps must.
    targets = np.array([[[True, False], [False, False]]])
    mass = np.array([[1.0, 0.0]])
    valid = np.array([[True, False]])
    for route in (_even_split_shares, pack, least_loaded_chain):
        with pytest.raises(ValueError, match="no active node"):
            route(np.array([1.0]), np.zeros((2, 1), dtype=bool))
        with pytest.raises(ValueError, match="no active node"):
            route(mass, targets)
        assert route(mass, targets, valid).tolist() == [
            [[1.0, 0.0], [0.0, 0.0]]
        ]


# -- pack's closed-form spill vs PackRouting.assign -------------------------------------

_OFF, _BOOTING, _SERVING = (
    int(NodeState.OFF), int(NodeState.BOOTING), int(NodeState.SERVING)
)


def _state_column(fleet_size):
    """One step's node states with at least one active node; a third of
    the draws have no serving node, so booting nodes are the targets."""
    any_state = st.lists(
        st.sampled_from((_OFF, _BOOTING, _SERVING)),
        min_size=fleet_size,
        max_size=fleet_size,
    )
    booting_only = st.lists(
        st.sampled_from((_OFF, _BOOTING)),
        min_size=fleet_size,
        max_size=fleet_size,
    )
    return st.one_of(any_state, any_state, booting_only).filter(
        lambda column: any(state != _OFF for state in column)
    )


def _pack_mass(fleet_size, fill):
    """Exact multiples of the fill (zero included), overflow, and any."""
    return st.one_of(
        st.integers(0, fleet_size + 1).map(lambda k: k * fill),
        st.floats(
            fleet_size * fill, 2.0 * fleet_size + 1.0, exclude_min=True
        ),
        st.floats(0.0, fleet_size + 1.0),
    )


_FILLS = st.one_of(st.sampled_from((1.0, 0.1)), st.floats(0.01, 1.0))


@st.composite
def _pack_cases(draw, max_rows):
    """``(fill, states (B, N, T), mass (B, T), lengths)``, rows ragged;
    padded steps are all off (no target) with zero mass."""
    fill = draw(_FILLS)
    fleet_size = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=max_rows))
    states = np.full((len(lengths), fleet_size, max(lengths)), _OFF)
    mass = np.zeros((len(lengths), max(lengths)))
    for row, length in enumerate(lengths):
        for step in range(length):
            states[row, :, step] = draw(_state_column(fleet_size))
            mass[row, step] = draw(_pack_mass(fleet_size, fill))
    return fill, states, mass, lengths


def _pack_case(fill, columns, mass):
    """One unpadded row as a ``_pack_cases`` draw, each step's column of
    node states spelled S(erving) / B(ooting) / O(ff)."""
    code = {"S": _SERVING, "B": _BOOTING, "O": _OFF}
    states = np.array([[code[state] for state in column] for column in columns])
    return fill, states.T[np.newaxis], np.array([mass]), [len(mass)]


def _pack_targets(states):
    from repro.kernels.fleet import _route_targets

    return _route_targets(states == _SERVING, states != _OFF)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=150, deadline=None)
@given(case=_pack_cases(max_rows=1))
# fill 0.1, where rounding builds up: exact multiples (3 and 2 fills),
# zero mass, overflow past N * fill, and a booting-only step.
@example(
    case=_pack_case(
        0.1,
        ["SSS", "BOB", "SOS", "SBS"],
        [3 * 0.1, 2 * 0.1, 0.0, 7 * 0.1],
    )
)
# fill 1.0 on a single node: an exact fill, booting-only, an overflow.
@example(case=_pack_case(1.0, ["S", "B", "S"], [1.0, 0.0, 2.5]))
def test_pack_shares_equal_pack_routing_bit_for_bit(case):
    from repro.fleet.routing import NodeView, PackRouting
    from repro.kernels.fleet import _pack_shares

    fill, states3d, mass2d, _ = case
    states, mass = states3d[0], mass2d[0]
    fleet_size, steps = states.shape
    shares = _pack_shares(fill, mass, _pack_targets(states))
    routing = PackRouting(fill_fraction=fill)
    for step in range(steps):
        nodes = [
            NodeView(
                node_id=node,
                serving=bool(states[node, step] == _SERVING),
                booting=bool(states[node, step] == _BOOTING),
                nominal_capacity_uips=1.0,
                previous_capacity_uips=1.0,
            )
            for node in range(fleet_size)
        ]
        assert _bits(shares[:, step]) == _bits(
            routing.assign(float(mass[step]), nodes)
        ), f"step {step}: states {states[:, step]}, mass {mass[step]!r}"


@settings(max_examples=60, deadline=None)
@given(case=_pack_cases(max_rows=4))
def test_batched_pack_shares_equal_per_row_calls(case):
    from repro.kernels.fleet import _pack_shares

    fill, states3d, mass2d, lengths = case
    steps = max(lengths)
    valid2d = (
        np.arange(steps)[np.newaxis, :] < np.array(lengths)[:, np.newaxis]
    )
    targets3d = _pack_targets(states3d)
    shares3d = _pack_shares(fill, mass2d, targets3d, valid2d)
    for row, length in enumerate(lengths):
        alone = _pack_shares(
            fill, mass2d[row, :length], targets3d[row, :, :length]
        )
        assert _bits(shares3d[row, :, :length]) == _bits(alone)
        assert not shares3d[row, :, length:].any()


def test_custom_autoscaler_subclass_takes_the_reference_path(default_context):
    class EagerScaler(Autoscaler):
        pass

    simulator = FleetSimulator(
        default_context, WEB_SEARCH, fleet_size=3, autoscaler=EagerScaler()
    )
    governor = simulator._make_governor()
    from repro.fleet.routing import router_by_name

    assert not fleet_kernel_supports(
        router_by_name("pack"), governor, simulator.autoscaler
    )
    # The run still works (reference fallback) and stays deterministic.
    trace = LoadTrace.constant(0.5, steps=5)
    first = simulator.run(trace, "pack")
    second = simulator.run(trace, "pack")
    np.testing.assert_array_equal(
        first.column("energy_j"), second.column("energy_j")
    )


# -- closed-form tail kernel vs the scalar queue models ---------------------------------


def _scalar_tail(table, workload, index, demand):
    """FleetSimulator._node_tail_latency transcribed onto table columns.

    The same guards in the same order, and the *actual*
    :class:`MM1Queue` / :class:`MG1Queue` objects for the formula --
    the reference the vectorized kernel must match to the last bit.
    """
    base = float(table.latency_seconds[index])
    if math.isnan(base):
        return math.nan
    capacity = float(table.capacity_uips[index])
    if capacity <= 0.0:
        return math.inf
    utilization = demand / capacity
    if utilization >= 1.0 - 1e-9:
        return math.inf
    ipr = workload.instructions_per_request
    service_time = ipr / capacity
    arrival_rate = demand / ipr
    if workload.service_time_cv == 1.0:
        response_p99 = MM1Queue(
            arrival_rate=arrival_rate, service_rate=capacity / ipr
        ).response_time_percentile(99.0)
    else:
        response_p99 = MG1Queue(
            arrival_rate=arrival_rate,
            mean_service_time=service_time,
            service_time_cv=workload.service_time_cv,
        ).response_time_percentile(99.0, corrected=True)
    return base + max(0.0, response_p99 - service_time)


def _assert_tails_exactly_equal(table, workload, indices, demand):
    got = tail_latencies(table, workload, indices, demand)
    for index, one_demand, value in zip(
        indices.tolist(), demand.tolist(), got.tolist()
    ):
        expected = _scalar_tail(table, workload, index, one_demand)
        assert value == expected or (
            math.isnan(value) and math.isnan(expected)
        ), (
            f"tail at (index={index}, demand={one_demand}): "
            f"kernel {value!r} != scalar {expected!r}"
        )


waiting_fractions = st.one_of(
    # Just past the idle atom: utilisation barely above the 1% tail.
    st.floats(min_value=0.01, max_value=0.0105, exclude_min=True),
    st.floats(min_value=0.3, max_value=0.7),
    # Within 1e-9 of the saturation cut at 1 - 1e-9, on either side.
    st.floats(min_value=1.0 - 2e-9, max_value=1.0),
)


@settings(max_examples=60, deadline=None)
@given(
    drawn=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**6), waiting_fractions),
        min_size=1,
        max_size=64,
    )
)
@example(drawn=[(19, 0.0100000001), (0, 0.5), (7, 1.0 - 1e-9), (3, 1.0 - 1.5e-9)])
def test_mg1_tails_equal_scalar_queue_math(default_context, drawn):
    """Web Search (cv=1.2): the Marchal-corrected M/G/1 path, exactly.

    Fixed loads span idle, the idle-atom region, heavy load and
    saturation (>= 1 - epsilon maps to +inf in both paths); the drawn
    (grid index, load fraction) pairs sit densely in the waiting branch
    -- just past the idle atom, at mid-load and on either side of the
    saturation cut -- where the tail takes the shared log.
    """
    table = default_context.frequency_table(WEB_SEARCH)
    rng = np.random.default_rng(7)
    indices = rng.integers(0, len(table), size=500)
    fraction = rng.uniform(0.0, 1.2, size=500)
    drawn_indices = np.array([index % len(table) for index, _ in drawn])
    indices = np.concatenate([indices, drawn_indices])
    fraction = np.concatenate([fraction, [load for _, load in drawn]])
    demand = fraction * table.capacity_uips[indices]
    _assert_tails_exactly_equal(table, WEB_SEARCH, indices, demand)


def test_mm1_tails_equal_scalar_queue_math(default_context):
    """A cv=1.0 twin of Web Search drives the exact M/M/1 branch."""
    workload = dataclasses.replace(WEB_SEARCH, service_time_cv=1.0)
    table = default_context.frequency_table(WEB_SEARCH)
    rng = np.random.default_rng(11)
    indices = rng.integers(0, len(table), size=300)
    # Strictly positive, strictly stable loads: the scalar MM1Queue
    # constructor rejects arrival >= service, so the comparison runs
    # where both paths are defined.
    fraction = rng.uniform(0.05, 0.95, size=300)
    demand = fraction * table.capacity_uips[indices]
    _assert_tails_exactly_equal(table, workload, indices, demand)


def test_tail_guards_nan_base_and_zero_capacity():
    """NaN base latency wins over every other guard; 0 capacity is inf."""
    table = FrequencyTable(
        workload_name="synthetic",
        frequencies_hz=[1.0e9, 2.0e9, 3.0e9],
        capacity_uips=[0.0, 1.0e9, 2.0e9],
        power_w=[10.0, 20.0, 30.0],
        qos_metric=[np.nan, 1.0, 1.0],
        qos_ok=[True, True, True],
        latency_seconds=[0.01, np.nan, 0.005],
    )
    indices = np.array([0, 1, 2, 2])
    demand = np.array([0.5e9, 0.5e9, 0.4e9, 3.0e9])
    tails = tail_latencies(table, WEB_SEARCH, indices, demand)
    assert math.isinf(tails[0])  # zero capacity saturates
    assert math.isnan(tails[1])  # NaN base latency stays undefined
    assert math.isfinite(tails[2])
    assert math.isinf(tails[3])  # demand beyond capacity saturates
    _assert_tails_exactly_equal(table, WEB_SEARCH, indices, demand)


def test_tail_latencies_solve_every_pair_in_place(default_context):
    """Each handed (index, demand) pair is solved at its own position.

    One demand recurs at several indices and one index at several
    demands: identical pairs must give identical tails and distinct
    pairs distinct ones, and every pair counts once, repeats included.
    """
    table = default_context.frequency_table(WEB_SEARCH)
    top = table.nominal_index
    capacity = float(table.capacity_uips[-1])
    indices = np.array([top, top - 1, top, top - 1, top, top - 2, top - 3])
    demand = capacity * np.array([0.4, 0.4, 0.4, 0.3, 0.7, 0.4, 0.3])
    with obs.capture() as capture:
        tails = tail_latencies(table, WEB_SEARCH, indices, demand)
    pairs = list(zip(indices.tolist(), demand.tolist()))
    assert len(set(pairs)) == 6
    for first, second in itertools.combinations(range(len(pairs)), 2):
        same_pair = pairs[first] == pairs[second]
        assert bool(tails[first] == tails[second]) is same_pair, (first, second)
    _assert_tails_exactly_equal(table, WEB_SEARCH, indices, demand)
    counters = capture.counter_deltas()
    assert counters["fleet.tail_pairs"] == 7
    assert "fleet.tail_unique_pairs" not in counters
    assert tail_latencies(table, WEB_SEARCH, [], []).size == 0


# -- the per-step worst tail and its neighbour skip -------------------------------------

# Every tail branch on four grid points: zero capacity (inf), a NaN
# base latency, and two finite points, the nominal one last.
_TAIL_TABLE = FrequencyTable(
    workload_name="tails",
    frequencies_hz=[1.0e9, 1.5e9, 2.0e9, 3.0e9],
    capacity_uips=[0.0, 1.0e9, 1.5e9, 2.0e9],
    power_w=[10.0, 15.0, 20.0, 30.0],
    qos_metric=[0.0, 0.0, 0.0, 0.0],
    qos_ok=[True, True, True, True],
    latency_seconds=[0.01, np.nan, 0.008, 0.005],
)
# Zero, finite and saturating (>= a point's capacity) shares.
_TAIL_SHARES = (0.0, 0.25, 0.5, 0.8, 1.0)


@st.composite
def _tail_cases(draw):
    """``(serving, idx, shares)`` over a drawn ``(B, N, T)``: a node may
    repeat its previous neighbour's (index, share), and the small pools
    make equal non-neighbours common."""
    batch = draw(st.integers(min_value=1, max_value=3))
    fleet_size = draw(st.integers(min_value=1, max_value=6))
    steps = draw(st.integers(min_value=1, max_value=4))
    shape = (batch, fleet_size, steps)
    serving = np.empty(shape, dtype=bool)
    idx = np.empty(shape, dtype=np.int64)
    shares = np.empty(shape, dtype=np.float64)
    cell = st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=len(_TAIL_TABLE) - 1),
        st.sampled_from(_TAIL_SHARES),
        st.booleans(),
    )
    for row in range(batch):
        for step in range(steps):
            for node in range(fleet_size):
                up, index, share, repeat = draw(cell)
                if repeat and node:
                    index = idx[row, node - 1, step]
                    share = shares[row, node - 1, step]
                serving[row, node, step] = up
                idx[row, node, step] = index
                shares[row, node, step] = share
    return serving, idx, shares


def _tail_case(*nodes):
    """One step of a one-row batch, a ``(serving, index, share)`` per node."""
    serving, idx, shares = zip(*nodes)
    shape = (1, len(nodes), 1)
    return (
        np.array(serving, dtype=bool).reshape(shape),
        np.array(idx, dtype=np.int64).reshape(shape),
        np.array(shares, dtype=np.float64).reshape(shape),
    )


def _running_worst_tails(table, workload, serving, idx, shares):
    """The reference loop's per-step worst tail, one pair at a time."""
    batch, fleet_size, steps = shares.shape
    worst = np.empty((batch, steps), dtype=np.float64)
    for row in range(batch):
        for step in range(steps):
            running = math.nan
            for node in range(fleet_size):
                share = shares[row, node, step]
                if serving[row, node, step] and share > 0.0:
                    tail = float(
                        tail_latencies(
                            table,
                            workload,
                            [idx[row, node, step]],
                            [share * table.nominal_capacity_uips],
                        )[0]
                    )
                    if math.isnan(running) or tail > running:
                        running = tail
            worst[row, step] = running
    return worst


@settings(max_examples=200, deadline=None)
@given(case=_tail_cases())
# Same index, larger share on the second node: an index-only skip
# would drop the larger tail.
@example(case=_tail_case((True, 3, 0.25), (True, 3, 0.5)))
# Same share, slower point on the second node: a share-only skip would
# drop the larger tail.
@example(case=_tail_case((True, 3, 0.5), (True, 2, 0.5)))
# A run of three broken by an idle node, then a saturated pair.
@example(
    case=_tail_case(
        (True, 2, 0.25), (False, 2, 0.25), (True, 2, 0.25), (True, 2, 0.8)
    )
)
def test_worst_tails_equal_the_running_max(case):
    """Skipping a node loaded with its previous neighbour's (index,
    share) never changes a step's worst tail: the same floats, infs and
    NaNs as the reference loop's running max over every loaded node."""
    serving, idx, shares = case
    got = _worst_tails(_TAIL_TABLE, WEB_SEARCH, serving, shares, idx)
    expected = _running_worst_tails(
        _TAIL_TABLE, WEB_SEARCH, serving, idx, shares
    )
    assert np.array_equal(got, expected, equal_nan=True)


@pytest.mark.parametrize(
    "governor", ["ondemand", "performance", "powersave", "qos_tracker"]
)
def test_static_round_robin_hands_one_tail_pair_per_loaded_step(
    governor, default_context
):
    """A static round_robin fleet under a memoryless governor loads every
    node with one (index, share), so each loaded step is one pair."""
    trace = LoadTrace(
        name="gaps",
        step_seconds=60.0,
        utilization=(0.0, 0.3, 0.3, 0.0, 0.9, 0.5),
    )
    simulator = FleetSimulator(
        default_context, WEB_SEARCH, fleet_size=6, governor=governor
    )
    with obs.capture() as window:
        simulator.run(trace, "round_robin")
    assert window.counter_deltas()["fleet.tail_pairs"] == 4
