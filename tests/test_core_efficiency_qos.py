"""Efficiency optima and QoS floors as sweep reductions (Figures 2-4 behaviour)."""

import pytest

from repro.core.efficiency import SCOPE_POWER_COLUMN, EfficiencyScope
from repro.sweep import SweepRunner
from repro.utils.units import ghz, mhz
from repro.workloads.banking_vm import (
    DEGRADATION_LIMIT_RELAXED,
    DEGRADATION_LIMIT_STRICT,
    VMS_HIGH_MEM,
    VMS_LOW_MEM,
)
from repro.workloads.cloudsuite import DATA_SERVING, WEB_SEARCH, scale_out_workloads


# The default-server sweep is session-scoped in tests/conftest.py so every
# module probing the default server shares one model stack.


@pytest.fixture
def rows(default_sweep):
    """One workload's rows of the shared sweep, in ascending grid order."""
    return lambda workload: default_sweep.filter(workload_name=workload.name)


# -- efficiency ---------------------------------------------------------------------


def test_power_ordering_cores_soc_server(default_context):
    for frequency in (mhz(300), ghz(1), ghz(2)):
        record = default_context.evaluate(WEB_SEARCH, frequency)
        assert record.core_power < record.soc_power < record.server_power


def test_cores_efficiency_monotonically_improves_toward_low_frequency(rows):
    values = rows(DATA_SERVING).efficiency(EfficiencyScope.CORES).tolist()
    # The grid ascends in frequency; efficiency must fall.
    assert all(earlier >= later for earlier, later in zip(values, values[1:]))


def test_cores_optimum_at_lowest_reachable_frequency(rows, default_context):
    optimum = rows(DATA_SERVING).scope_optima()["cores"]
    assert optimum == default_context.reachable_frequencies()[0]


def test_soc_optimum_near_1ghz(rows):
    for workload in scale_out_workloads().values():
        assert mhz(600) <= rows(workload).scope_optima()["soc"] <= mhz(1400)


def test_server_optimum_at_or_above_soc_optimum(rows):
    for workload in list(scale_out_workloads().values()) + [VMS_LOW_MEM, VMS_HIGH_MEM]:
        optima = rows(workload).scope_optima()
        assert optima["server"] >= optima["soc"]


def test_server_optimum_for_scale_out_near_1_2ghz(rows):
    assert mhz(900) <= rows(DATA_SERVING).scope_optima()["server"] <= mhz(1500)


def test_efficiency_point_units(default_context):
    """Efficiency at every scope is chip UIPS per watt of that scope."""
    record = default_context.evaluate(WEB_SEARCH, ghz(1))
    for scope, column in SCOPE_POWER_COLUMN.items():
        assert record.efficiency(scope) == record.chip_uips / getattr(record, column)


def test_optimal_frequencies_all_scopes_keys(rows):
    """One optimum per scope: the first row of peak efficiency."""
    web = rows(WEB_SEARCH)
    optima = web.scope_optima()
    assert list(optima) == ["cores", "soc", "server"]
    for scope in EfficiencyScope:
        efficiency = web.efficiency(scope).tolist()
        first = efficiency.index(max(efficiency))
        assert optima[scope.value] == web.column("frequency_hz")[first]


def test_reachable_frequencies_sorted_and_within_grid(default_context):
    grid = list(default_context.reachable_frequencies())
    assert grid == sorted(grid)
    assert min(grid) >= mhz(100)
    assert max(grid) <= ghz(2)


def test_curve_with_custom_grid(default_context):
    sweep = SweepRunner(context=default_context).run([WEB_SEARCH], [mhz(500), ghz(1)])
    assert sweep.column("frequency_hz").tolist() == [mhz(500), ghz(1)]


# -- QoS -------------------------------------------------------------------------------


def test_all_scale_out_floors_in_200_to_500mhz(rows):
    for workload in scale_out_workloads().values():
        floor = rows(workload).qos_floor()
        assert floor is not None
        assert mhz(200) <= floor <= mhz(500)


def test_latency_curve_monotone_decreasing_with_frequency(rows):
    latencies = rows(DATA_SERVING).column("latency_seconds").tolist()
    assert all(earlier >= later for earlier, later in zip(latencies, latencies[1:]))


def test_latency_normalized_below_one_at_nominal(rows):
    web = rows(WEB_SEARCH)
    assert web.column("frequency_hz")[-1] == ghz(2)
    assert web.column("latency_normalized_to_qos")[-1] < 1.0


def test_latency_violates_qos_at_100mhz(rows):
    data_serving = rows(DATA_SERVING)
    assert data_serving.column("frequency_hz")[0] == mhz(100)
    assert data_serving.column("latency_normalized_to_qos")[0] > 1.0


def test_qos_floor_consistent_with_meets_qos_list(rows):
    web = rows(WEB_SEARCH)
    assert web.qos_floor() == min(web.filter(meets_qos=True).column("frequency_hz"))


def test_vm_relaxed_floor_at_or_below_500mhz(rows):
    for workload in (VMS_LOW_MEM, VMS_HIGH_MEM):
        floor = rows(workload).qos_floor(DEGRADATION_LIMIT_RELAXED)
        assert floor is not None
        assert floor <= mhz(500)


def test_vm_strict_floor_at_or_below_1ghz(rows):
    for workload in (VMS_LOW_MEM, VMS_HIGH_MEM):
        floor = rows(workload).qos_floor(DEGRADATION_LIMIT_STRICT)
        assert floor is not None
        assert floor <= ghz(1)


def test_strict_floor_above_relaxed_floor(rows):
    vms = rows(VMS_LOW_MEM)
    strict = vms.qos_floor(DEGRADATION_LIMIT_STRICT)
    assert strict >= vms.qos_floor(DEGRADATION_LIMIT_RELAXED)


def test_degradation_curve_monotone(rows):
    degradations = rows(VMS_LOW_MEM).column("degradation").tolist()
    assert degradations == sorted(degradations, reverse=True)


def test_degradation_at_nominal_is_one(rows):
    vms = rows(VMS_HIGH_MEM)
    assert vms.column("frequency_hz")[-1] == ghz(2)
    assert vms.column("degradation")[-1] == pytest.approx(1.0)


def test_frequency_floor_dispatches_by_class(rows, default_context):
    """A record's QoS verdict is its class's: the latency limit for a
    scale-out workload, the context's degradation bound for a VM."""
    data_serving = rows(DATA_SERVING)
    normalized = data_serving.column("latency_normalized_to_qos")
    assert data_serving.column("meets_qos").tolist() == (
        normalized <= 1.0 + 1e-9
    ).tolist()
    vms = rows(VMS_LOW_MEM)
    degradation = vms.column("degradation")
    assert vms.column("meets_qos").tolist() == (
        degradation <= default_context.degradation_bound + 1e-9
    ).tolist()
    assert vms.qos_floor() == vms.qos_floor(default_context.degradation_bound)
