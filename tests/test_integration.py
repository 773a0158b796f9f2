"""End-to-end integration tests across the library's layers."""

import pytest

from repro.core.config import default_server
from repro.core.efficiency import EfficiencyScope
from repro.core.performance import ServerPerformanceModel
from repro.sim.cluster import ClusterSimConfig, ClusterSimulator
from repro.sweep import SweepRunner
from repro.utils.units import ghz, mhz
from repro.workloads.cloudsuite import (
    DATA_SERVING,
    MEDIA_STREAMING,
    WEB_SEARCH,
    WEB_SERVING,
)


def test_detailed_simulator_and_interval_model_agree_on_frequency_trend():
    """Both performance paths must show UIPC rising as frequency falls."""
    analytical = ServerPerformanceModel(default_server())
    ratios = {}
    for label, frequency in (("low", mhz(300)), ("high", ghz(2))):
        config = ClusterSimConfig(
            workload=DATA_SERVING, frequency_hz=frequency, records_per_core=1200
        )
        detailed = ClusterSimulator(config).run()
        interval = analytical.performance(DATA_SERVING, frequency)
        ratios[label] = (detailed.uipc / 4.0, interval.uipc)
    detailed_gain = ratios["low"][0] / ratios["high"][0]
    interval_gain = ratios["low"][1] / ratios["high"][1]
    assert detailed_gain > 1.0
    assert interval_gain > 1.0


def test_detailed_simulator_uipc_within_factor_two_of_interval_model():
    analytical = ServerPerformanceModel(default_server())
    config = ClusterSimConfig(
        workload=WEB_SEARCH, frequency_hz=ghz(1), records_per_core=1500
    )
    detailed_uipc = ClusterSimulator(config).run().uipc / 4.0
    interval_uipc = analytical.performance(WEB_SEARCH, ghz(1)).uipc
    assert 0.4 <= detailed_uipc / interval_uipc <= 2.5


@pytest.mark.parametrize(
    "workload, ratio_100mhz, ratio_2ghz",
    [
        pytest.param(DATA_SERVING, 0.761, 1.188, id="data_serving"),
        pytest.param(WEB_SEARCH, 0.756, 1.186, id="web_search"),
        pytest.param(WEB_SERVING, 0.760, 1.182, id="web_serving"),
        pytest.param(MEDIA_STREAMING, 0.747, 1.127, id="media_streaming"),
    ],
)
def test_detailed_to_interval_uipc_ratio_at_grid_ends(
    workload, ratio_100mhz, ratio_2ghz
):
    """Pin the detailed/interval per-core UIPC calibration gap.

    The detailed simulator is the interval model's calibration
    reference: scaling the interval UIPC by this ratio moves the
    scale-out QoS floors out of the paper's 200-500 MHz claim, so a
    model change that shifts the gap at either end of the frequency
    grid must show up here.
    """
    analytical = ServerPerformanceModel(default_server())
    for frequency, expected in ((mhz(100), ratio_100mhz), (ghz(2), ratio_2ghz)):
        config = ClusterSimConfig(
            workload=workload, frequency_hz=frequency, records_per_core=2000
        )
        detailed_uipc = ClusterSimulator(config).run().uipc / config.core_count
        interval_uipc = analytical.performance(workload, frequency).uipc
        assert detailed_uipc / interval_uipc == pytest.approx(expected, abs=0.005)


def test_qos_constrained_best_point_is_more_efficient_than_nominal(
    default_sweep, default_context
):
    """Running at the QoS-respecting efficiency optimum beats 2GHz."""
    summary = SweepRunner.summarize_workload(default_sweep, WEB_SEARCH.name)
    best = default_context.evaluate(WEB_SEARCH, summary.best_qos_respecting_frequency)
    nominal = default_context.evaluate(WEB_SEARCH, ghz(2))
    assert best.server_efficiency > nominal.server_efficiency
    assert best.meets_qos


def test_full_stack_power_budget_respected_at_nominal(
    default_context, default_configuration
):
    for workload in (DATA_SERVING, WEB_SEARCH):
        record = default_context.evaluate(workload, ghz(2))
        assert record.soc_power < default_configuration.power_budget_watts


def test_qos_floor_below_soc_optimum(default_sweep):
    """The QoS floor never forces operation above the efficiency optimum."""
    for workload in (DATA_SERVING, WEB_SEARCH):
        rows = default_sweep.filter(workload_name=workload.name)
        soc_optimum = rows.scope_optima()[EfficiencyScope.SOC.value]
        assert rows.qos_floor() <= soc_optimum


def test_uncore_voltage_scaling_ablation_moves_soc_optimum_down():
    """If the uncore scaled with core voltage, low frequencies get better."""
    from dataclasses import replace

    def soc_optimum(configuration):
        sweep = SweepRunner.for_configuration(configuration).run([WEB_SEARCH])
        return sweep.scope_optima()[EfficiencyScope.SOC.value]

    scaled = replace(default_server(), uncore_voltage_scales_with_core=True)
    assert soc_optimum(scaled) <= soc_optimum(default_server())
