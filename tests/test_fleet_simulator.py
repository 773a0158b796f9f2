"""Tests for nodes, autoscaling, economics and the fleet simulator."""

import json
import math

import numpy as np
import pytest

from repro.dvfs import LoadTrace, governor_by_name
from repro.fleet import (
    FLEET_COLUMNS,
    Autoscaler,
    CostModel,
    FleetResult,
    FleetSimulator,
    NodeState,
    ServerNode,
)
from repro.workloads.banking_vm import VMS_LOW_MEM
from repro.workloads.cloudsuite import WEB_SEARCH


@pytest.fixture(scope="module")
def websearch_fleet(default_context):
    """A 4-server always-on Web Search fleet on the shared context."""
    return FleetSimulator(default_context, WEB_SEARCH, fleet_size=4)


# -- server node ------------------------------------------------------------------------


def test_node_state_transitions(websearch_simulator):
    node = ServerNode(
        node_id=0,
        governor=governor_by_name("qos_tracker"),
        simulator=websearch_simulator,
        serving=False,
    )
    assert node.state is NodeState.OFF
    node.wake(boot_steps=2)
    assert node.state is NodeState.BOOTING
    node.advance_boot()
    assert node.state is NodeState.BOOTING
    node.advance_boot()
    assert node.state is NodeState.SERVING
    node.shut_down()
    assert node.state is NodeState.OFF


def test_node_instant_wake(websearch_simulator):
    node = ServerNode(
        node_id=0,
        governor=governor_by_name("qos_tracker"),
        simulator=websearch_simulator,
        serving=False,
    )
    node.wake(boot_steps=0)
    assert node.state is NodeState.SERVING


def test_node_wake_resets_dvfs_history(websearch_simulator):
    node = ServerNode(
        node_id=0,
        governor=governor_by_name("powersave"),
        simulator=websearch_simulator,
    )
    node.step(utilization=0.1, step_seconds=60.0, off_power_w=0.0)
    platform = websearch_simulator.platform
    assert node.previous_frequency_hz == platform.min_frequency_hz
    node.shut_down()
    node.wake(boot_steps=0)
    assert node.previous_frequency_hz == platform.nominal_frequency_hz


def test_node_invalid_transitions(websearch_simulator):
    node = ServerNode(
        node_id=3,
        governor=governor_by_name("qos_tracker"),
        simulator=websearch_simulator,
    )
    with pytest.raises(ValueError, match="not off"):
        node.wake(boot_steps=1)
    node.shut_down()
    with pytest.raises(ValueError, match="already off"):
        node.shut_down()


def test_off_node_draws_off_power_and_drops_load(websearch_simulator):
    node = ServerNode(
        node_id=0,
        governor=governor_by_name("qos_tracker"),
        simulator=websearch_simulator,
        serving=False,
    )
    step = node.step(utilization=0.2, step_seconds=60.0, off_power_w=5.0)
    assert step.power_w == 5.0
    assert step.energy_j == pytest.approx(300.0)
    assert step.served_uips == 0.0
    assert step.violation  # routed load was dropped
    idle = node.step(utilization=0.0, step_seconds=60.0, off_power_w=5.0)
    assert not idle.violation


def test_booting_node_draws_lowest_vf_power(websearch_simulator):
    node = ServerNode(
        node_id=0,
        governor=governor_by_name("qos_tracker"),
        simulator=websearch_simulator,
        serving=False,
    )
    node.wake(boot_steps=3)
    step = node.step(utilization=0.0, step_seconds=60.0, off_power_w=0.0)
    platform = websearch_simulator.platform
    expected = websearch_simulator.record(platform.min_frequency_hz).server_power
    assert step.power_w == expected
    assert math.isnan(step.frequency_hz)
    assert step.served_uips == 0.0


# -- autoscaler -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"low": 0.0, "high": 0.8},
        {"low": 0.8, "high": 0.8},
        {"low": 0.3, "high": 1.2},
        {"min_servers": 0},
        {"wake_steps": -1},
        {"wake_energy_j": -1.0},
    ],
)
def test_autoscaler_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        Autoscaler(**kwargs)


def test_desired_active_targets_band_midpoint():
    scaler = Autoscaler(low=0.4, high=0.8, min_servers=1)
    assert scaler.target == pytest.approx(0.6)
    assert scaler.desired_active(0.0, fleet_size=8) == 1
    assert scaler.desired_active(1.2, fleet_size=8) == 2
    assert scaler.desired_active(3.0, fleet_size=8) == 5
    assert scaler.desired_active(100.0, fleet_size=8) == 8  # clamped


def make_nodes(simulator, states):
    nodes = [
        ServerNode(
            node_id=i,
            governor=governor_by_name("qos_tracker"),
            simulator=simulator,
            serving=state == "s",
        )
        for i, state in enumerate(states)
    ]
    for node, state in zip(nodes, states):
        if state == "b":
            node.wake(boot_steps=2)
    return nodes


def test_autoscaler_wakes_lowest_id_off_nodes(websearch_simulator):
    scaler = Autoscaler(low=0.35, high=0.75, wake_steps=1)
    nodes = make_nodes(websearch_simulator, "sooo")
    decision = scaler.scale(mass=1.5, nodes=nodes)  # util 1.5 > high
    assert decision.woken == (1, 2)  # ceil(1.5 / 0.55) = 3 active
    assert decision.wake_count == 2
    assert nodes[1].state is NodeState.BOOTING
    assert nodes[3].state is NodeState.OFF


def test_autoscaler_parks_highest_id_serving_nodes(websearch_simulator):
    scaler = Autoscaler(low=0.35, high=0.75)
    nodes = make_nodes(websearch_simulator, "ssss")
    decision = scaler.scale(mass=0.5, nodes=nodes)  # util 0.125 < low
    assert decision.woken == ()
    assert decision.parked == (3, 2, 1)  # down to ceil(0.5/0.55) = 1
    assert nodes[0].state is NodeState.SERVING


def test_autoscaler_boot_grace_keeps_in_flight_boots(websearch_simulator):
    scaler = Autoscaler(low=0.35, high=0.75)
    nodes = make_nodes(websearch_simulator, "ssb")
    decision = scaler.scale(mass=0.6, nodes=nodes)  # util 0.3 < low
    # desired = ceil(0.6 / 0.55) = 2 of 3 active, but desired still
    # covers the 2 serving nodes: the in-flight boot is left alone
    # instead of being parked (and re-woken, double-charging wake
    # energy) on a one-step dip.
    assert decision.parked == ()
    assert nodes[2].state is NodeState.BOOTING
    assert nodes[1].state is NodeState.SERVING
    assert nodes[0].state is NodeState.SERVING


def test_autoscaler_parks_booting_nodes_first_on_a_deep_dip(
    websearch_simulator,
):
    scaler = Autoscaler(low=0.35, high=0.75)
    nodes = make_nodes(websearch_simulator, "ssb")
    decision = scaler.scale(mass=0.2, nodes=nodes)  # util 0.1 < low
    # desired = ceil(0.2 / 0.55) = 1 < 2 serving: a real scale-down.
    # The booting node goes first (it serves nothing yet), then the
    # highest-id serving node; node 0 stays up.
    assert decision.parked == (2, 1)
    assert nodes[2].state is NodeState.OFF
    assert nodes[1].state is NodeState.OFF
    assert nodes[0].state is NodeState.SERVING


def test_autoscaler_holds_inside_the_band(websearch_simulator):
    scaler = Autoscaler(low=0.35, high=0.75)
    nodes = make_nodes(websearch_simulator, "sso")
    decision = scaler.scale(mass=1.0, nodes=nodes)  # util 0.5 in band
    assert decision.woken == () and decision.parked == ()


def test_autoscaler_respects_min_servers(websearch_simulator):
    scaler = Autoscaler(low=0.35, high=0.75, min_servers=2)
    nodes = make_nodes(websearch_simulator, "sss")
    scaler.scale(mass=0.0, nodes=nodes)
    assert sum(1 for n in nodes if n.state is NodeState.SERVING) == 2


# -- fleet simulator --------------------------------------------------------------------


def test_fleet_rejects_bad_construction(default_context):
    with pytest.raises(ValueError, match="fleet_size"):
        FleetSimulator(default_context, WEB_SEARCH, fleet_size=0)
    # Floats (even integral ones) and bools fail here, not mid-replay.
    for fleet_size in (2.0, 2.5, True):
        with pytest.raises(ValueError, match="fleet_size must be an int"):
            FleetSimulator(default_context, WEB_SEARCH, fleet_size=fleet_size)
    with pytest.raises(ValueError, match="min_servers"):
        FleetSimulator(
            default_context,
            WEB_SEARCH,
            fleet_size=2,
            autoscaler=Autoscaler(min_servers=3),
        )
    for off_power_w in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="off_power_w"):
            FleetSimulator(
                default_context,
                WEB_SEARCH,
                fleet_size=2,
                off_power_w=off_power_w,
            )
    # A truthy stand-in such as "false" would replay with queueing tails.
    for queueing in ("false", 1, None):
        with pytest.raises(ValueError, match="queueing must be a bool"):
            FleetSimulator(
                default_context, WEB_SEARCH, fleet_size=2, queueing=queueing
            )


def test_fleet_energy_column_is_sum_of_node_energies(websearch_fleet, diurnal_trace):
    result = websearch_fleet.run(diurnal_trace, "spread")
    total = sum(
        result.node_column(node_id, "energy_j") for node_id in result.node_ids
    )
    np.testing.assert_array_equal(result.column("energy_j"), total)
    assert result.total_energy_j == pytest.approx(
        sum(result.node_energy_j(node_id) for node_id in result.node_ids),
        rel=1e-12,
    )


def test_wake_energy_is_charged_to_the_woken_node(default_context, diurnal_trace):
    base = FleetSimulator(
        default_context,
        WEB_SEARCH,
        fleet_size=4,
        autoscaler=Autoscaler(wake_energy_j=0.0),
    ).run(diurnal_trace, "pack")
    charged = FleetSimulator(
        default_context,
        WEB_SEARCH,
        fleet_size=4,
        autoscaler=Autoscaler(wake_energy_j=1000.0),
    ).run(diurnal_trace, "pack")
    assert charged.wake_count == base.wake_count
    assert charged.wake_count > 0
    assert charged.total_energy_j == pytest.approx(
        base.total_energy_j + 1000.0 * charged.wake_count, rel=1e-12
    )


def test_off_power_accrues_to_parked_nodes(default_context, diurnal_trace):
    dark = FleetSimulator(
        default_context, WEB_SEARCH, fleet_size=4, autoscaler=Autoscaler()
    ).run(diurnal_trace, "pack")
    trickle = FleetSimulator(
        default_context,
        WEB_SEARCH,
        fleet_size=4,
        autoscaler=Autoscaler(),
        off_power_w=10.0,
    ).run(diurnal_trace, "pack")
    off_steps = int(
        (4 - dark.column("active_servers")).sum()
    )  # node-steps spent off
    assert off_steps > 0
    assert trickle.total_energy_j == pytest.approx(
        dark.total_energy_j + 10.0 * off_steps * diurnal_trace.step_seconds,
        rel=1e-12,
    )


def test_autoscaled_fleet_parks_the_night_trough(default_context, diurnal_trace):
    result = FleetSimulator(
        default_context, WEB_SEARCH, fleet_size=8, autoscaler=Autoscaler()
    ).run(diurnal_trace, "pack")
    serving = result.column("serving_servers")
    assert serving.min() < serving.max() <= 8
    assert result.wake_count > 0
    assert result.mean_active_servers < 8.0


def test_always_on_fleet_never_scales(websearch_fleet, diurnal_trace):
    result = websearch_fleet.run(diurnal_trace, "round_robin")
    assert not result.autoscaled
    assert result.wake_count == 0
    np.testing.assert_array_equal(
        result.column("serving_servers"), np.full(len(result), 4)
    )


def test_compare_rejects_duplicate_routings(websearch_fleet, diurnal_trace):
    with pytest.raises(ValueError, match="duplicate routing"):
        websearch_fleet.compare(diurnal_trace, ["pack", "pack"])


def test_run_rejects_unknown_routing(websearch_fleet, diurnal_trace):
    with pytest.raises(ValueError, match="unknown routing policy"):
        websearch_fleet.run(diurnal_trace, "random")


def test_compare_defaults_to_every_registered_routing(
    websearch_fleet, bursty_trace
):
    results = websearch_fleet.compare(bursty_trace.head(8))
    assert list(results) == ["round_robin", "least_loaded", "pack", "spread"]


# -- queueing tails ---------------------------------------------------------------------


def test_tail_latency_exceeds_base_latency(websearch_fleet, diurnal_trace):
    result = websearch_fleet.run(diurnal_trace, "spread")
    tails = result.column("tail_latency_s")
    finite = tails[np.isfinite(tails)]
    assert finite.size > 0
    # The queueing model only ever adds contention on top of the
    # operating point's near-zero-contention 99th percentile.
    assert (finite > 0.0).all()
    assert result.max_tail_latency_s == pytest.approx(float(finite.max()))


def test_vm_fleet_has_no_queueing_tail(default_context, diurnal_trace):
    result = FleetSimulator(
        default_context, VMS_LOW_MEM, fleet_size=2
    ).run(diurnal_trace, "spread")
    assert np.isnan(result.column("tail_latency_s")).all()
    assert result.to_columns()["tail_latency_s"] == [None] * len(diurnal_trace)
    assert result.queue_violation_count == 0
    assert result.max_tail_latency_s is None
    assert result.total_requests is None
    assert result.energy_per_request_j is None
    assert result.mean_qps is None


def test_saturated_queue_is_reported(default_context):
    # A full-throttle step leaves zero queueing headroom at the chosen
    # operating point: the M/M/1 layer flags it as saturated.
    trace = LoadTrace.constant(1.0, steps=3, step_seconds=60.0)
    result = FleetSimulator(
        default_context, WEB_SEARCH, fleet_size=2, governor="performance"
    ).run(trace, "spread")
    assert result.saturated_step_count == len(trace)
    columns = result.to_columns()
    assert tuple(columns) == FLEET_COLUMNS
    assert columns["tail_latency_s"] == ["saturated"] * len(trace)
    json.dumps(columns, allow_nan=False)  # strict-JSON serialisable


# -- fleet result validation ------------------------------------------------------------


def test_result_accessors_and_errors(websearch_fleet, diurnal_trace):
    result = websearch_fleet.run(diurnal_trace, "pack")
    assert len(result) == len(diurnal_trace)
    assert result.node_ids == [0, 1, 2, 3]
    assert result.duration_seconds == pytest.approx(
        diurnal_trace.duration_seconds
    )
    with pytest.raises(KeyError, match="unknown fleet column"):
        result.column("nope")
    with pytest.raises(KeyError, match="unknown node 9"):
        result.node_column(9, "energy_j")
    with pytest.raises(KeyError, match="unknown node column"):
        result.node_column(0, "nope")
    summary = result.summary()
    assert summary["routing"] == "pack"
    assert summary["fleet_size"] == 4
    json.dumps(summary)


def test_result_validates_column_shapes(websearch_fleet, diurnal_trace):
    result = websearch_fleet.run(diurnal_trace, "pack")
    columns = {name: result.column(name) for name in result._columns}
    nodes = {
        node_id: {
            name: result.node_column(node_id, name)
            for name in result._node_columns[node_id]
        }
        for node_id in result.node_ids
    }

    def build(columns=columns, nodes=nodes, fleet_size=4):
        return FleetResult(
            routing_name="pack",
            governor_name="qos_tracker",
            workload_name="Web Search",
            trace_name="diurnal",
            fleet_size=fleet_size,
            step_seconds=1800.0,
            instructions_per_request=WEB_SEARCH.instructions_per_request,
            autoscaled=False,
            columns=columns,
            node_columns=nodes,
        )

    with pytest.raises(ValueError, match="missing fleet columns"):
        build(columns={k: v for k, v in columns.items() if k != "energy_j"})
    with pytest.raises(ValueError, match="unequal lengths"):
        build(columns={**columns, "energy_j": columns["energy_j"][:-1]})
    with pytest.raises(ValueError, match="node tables for 5 nodes"):
        build(fleet_size=5)
    with pytest.raises(ValueError, match="missing columns"):
        build(
            nodes={
                **nodes,
                0: {k: v for k, v in nodes[0].items() if k != "power_w"},
            }
        )
    with pytest.raises(ValueError, match="do not match"):
        build(
            nodes={**nodes, 0: {**nodes[0], "power_w": nodes[0]["power_w"][:-1]}}
        )


# -- cost model -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"energy_price_per_kwh": 0.0},
        {"server_capex": -1.0},
        {"amortization_years": 0.0},
        {"pue": 0.9},
    ],
)
def test_cost_model_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        CostModel(**kwargs)


def test_energy_cost_arithmetic():
    model = CostModel(energy_price_per_kwh=0.10, pue=1.5)
    # 1 kWh of IT energy at PUE 1.5 meters 1.5 kWh.
    assert model.energy_cost(3.6e6) == pytest.approx(0.15)


def test_rollup_capex_covers_owned_servers(websearch_fleet, diurnal_trace):
    model = CostModel()
    result = websearch_fleet.run(diurnal_trace, "spread")
    rollup = model.rollup(result.summary())
    expected_capex = (
        4 * model.capex_rate_per_server_second * result.duration_seconds
    )
    assert rollup["capex_cost"] == pytest.approx(expected_capex)
    assert rollup["total_cost"] == pytest.approx(
        rollup["energy_cost"] + rollup["capex_cost"]
    )
    assert rollup["mean_qps"] == pytest.approx(result.mean_qps)
    assert rollup["joules_per_request"] == pytest.approx(
        result.energy_per_request_j
    )
    assert rollup["cost_per_qps_year"] == pytest.approx(
        rollup["annual_tco"] / rollup["mean_qps"]
    )
    json.dumps(rollup)


def test_rollup_request_economics_undefined_for_vms(default_context, diurnal_trace):
    result = FleetSimulator(default_context, VMS_LOW_MEM, fleet_size=2).run(
        diurnal_trace, "spread"
    )
    rollup = CostModel().rollup(result.summary())
    assert rollup["mean_qps"] is None
    assert rollup["cost_per_qps_year"] is None
    assert rollup["cost_per_million_requests"] is None
    assert rollup["joules_per_request"] is None
    assert rollup["joules_per_giga_instruction"] > 0


def test_integer_step_trace_summarises_like_float_step_trace(websearch_fleet):
    """An int ``step_seconds`` reaches summaries and rollups as a float."""
    load = (0.2, 0.5, 0.8)
    by_int = websearch_fleet.run(LoadTrace("probe", 60, load), "pack").summary()
    by_float = websearch_fleet.run(LoadTrace("probe", 60.0, load), "pack").summary()
    assert by_int == by_float
    assert type(by_int["step_seconds"]) is float
    model = CostModel()
    rollup = model.rollup(by_int)
    assert rollup == model.rollup(by_float)
    assert rollup["duration_s"] == 180.0
    assert type(rollup["duration_s"]) is float


# -- simulator guard rails --------------------------------------------------------------


def test_run_accepts_policy_and_governor_instances(default_context, diurnal_trace):
    from repro.fleet import SpreadRouting

    simulator = FleetSimulator(
        default_context,
        WEB_SEARCH,
        fleet_size=2,
        governor=governor_by_name("powersave"),
    )
    assert simulator.governor_name == "powersave"
    result = simulator.run(diurnal_trace.head(4), SpreadRouting())
    assert result.routing_name == "spread"
    assert result.governor_name == "powersave"


def test_non_conserving_routing_is_rejected(websearch_fleet, diurnal_trace):
    from repro.fleet import RoutingPolicy

    class Lossy(RoutingPolicy):
        name = "lossy"

        def assign(self, mass, nodes):
            return tuple(0.0 for _ in nodes)

    with pytest.raises(ValueError, match="does not conserve load"):
        websearch_fleet.run(diurnal_trace, Lossy())


def test_wrong_share_count_is_rejected(websearch_fleet, diurnal_trace):
    from repro.fleet import RoutingPolicy

    class Short(RoutingPolicy):
        name = "short"

        def assign(self, mass, nodes):
            return (mass,)

    with pytest.raises(ValueError, match="returned 1 shares for 4 nodes"):
        websearch_fleet.run(diurnal_trace, Short())


def test_mm1_tail_is_used_for_cv_one_services(default_context, diurnal_trace):
    import dataclasses

    smooth = dataclasses.replace(
        WEB_SEARCH, name="Web Search (smooth)", service_time_cv=1.0
    )
    result = FleetSimulator(default_context, smooth, fleet_size=2).run(
        diurnal_trace, "spread"
    )
    tails = result.column("tail_latency_s")
    assert np.isfinite(tails).any()
