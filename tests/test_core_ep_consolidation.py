"""Tests for energy-proportionality analysis and consolidation planning."""

import pytest

from repro.core.config import default_server
from repro.core.consolidation import ConsolidationAnalyzer
from repro.core.energy_proportionality import EnergyProportionalityAnalyzer
from repro.power.dram_power import LPDDR4_4GBIT_X8
from repro.sweep.context import ModelContext
from repro.utils.units import ghz, mhz
from repro.workloads.banking_vm import VMS_HIGH_MEM, VMS_LOW_MEM
from repro.workloads.cloudsuite import DATA_SERVING, WEB_SEARCH


# -- energy proportionality -----------------------------------------------------------


@pytest.fixture(scope="module")
def ep(default_configuration):
    return EnergyProportionalityAnalyzer(ModelContext(default_configuration))


def test_proportionality_index_between_zero_and_one(ep):
    index = ep.proportionality_index(DATA_SERVING)
    assert 0.0 <= index <= 1.0


def test_fixed_power_fraction_grows_at_low_frequency(ep):
    low = ep.fixed_power_fraction(DATA_SERVING, mhz(200))
    high = ep.fixed_power_fraction(DATA_SERVING, ghz(2))
    assert low > high


def test_report_fields(ep):
    report = ep.report(WEB_SEARCH)
    assert report.workload_name == "Web Search"
    assert 0.0 <= report.proportionality_index <= 1.0
    assert report.fixed_power_fraction_at_floor > report.fixed_power_fraction_at_nominal
    assert report.server_optimum_hz >= mhz(800)


def test_lpddr4_improves_proportionality(ep):
    comparison = ep.memory_technology_comparison(DATA_SERVING)
    ddr4 = comparison["ddr4-4gbit-x8"]
    lpddr4 = comparison["lpddr4-4gbit-x8"]
    assert lpddr4.proportionality_index > ddr4.proportionality_index


def test_lpddr4_moves_server_optimum_down_or_equal(ep):
    comparison = ep.memory_technology_comparison(DATA_SERVING)
    assert (
        comparison["lpddr4-4gbit-x8"].server_optimum_hz
        <= comparison["ddr4-4gbit-x8"].server_optimum_hz
    )


def test_custom_alternative_chip(ep):
    comparison = ep.memory_technology_comparison(WEB_SEARCH, LPDDR4_4GBIT_X8)
    assert set(comparison) == {"ddr4-4gbit-x8", "lpddr4-4gbit-x8"}


# -- consolidation -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def consolidation(default_configuration):
    return ConsolidationAnalyzer(ModelContext(default_configuration))


def test_plan_counts_vms_and_power(consolidation):
    plan = consolidation.plan(VMS_LOW_MEM, ghz(1), vms_per_core=1)
    assert plan.vm_count == 36
    assert plan.server_power > 0
    assert plan.energy_per_giga_instructions > 0
    assert not plan.memory_capacity_limited


def test_high_mem_vms_limited_by_memory_capacity(consolidation):
    plan = consolidation.plan(VMS_HIGH_MEM, ghz(1), vms_per_core=3)
    # 108 VMs x 700MB = ~74GB exceeds the 64GB server.
    assert plan.memory_capacity_limited
    assert plan.vm_count < 108


def test_max_vms_per_core_grows_at_high_frequency(consolidation):
    low = consolidation.max_vms_per_core(VMS_LOW_MEM, mhz(500))
    high = consolidation.max_vms_per_core(VMS_LOW_MEM, ghz(2))
    assert high >= low
    assert high >= 3


def test_max_vms_per_core_zero_when_bound_already_violated():
    analyzer = ConsolidationAnalyzer(
        ModelContext(default_server(), degradation_bound=1.05)
    )
    assert analyzer.max_vms_per_core(VMS_LOW_MEM, mhz(200)) == 0


def test_best_plan_meets_degradation_bound(consolidation):
    plan = consolidation.best_plan(VMS_LOW_MEM)
    assert plan.degradation <= 4.0 + 1e-9
    assert plan.vm_count >= 36


def test_best_plan_beats_naive_nominal_plan(consolidation):
    best = consolidation.best_plan(VMS_LOW_MEM)
    naive = consolidation.plan(VMS_LOW_MEM, ghz(2), vms_per_core=1)
    assert best.energy_per_giga_instructions <= naive.energy_per_giga_instructions


def test_plan_rejects_zero_vms_per_core(consolidation):
    with pytest.raises(ValueError):
        consolidation.plan(VMS_LOW_MEM, ghz(1), vms_per_core=0)


def test_qos_floor_for_scale_out_via_consolidation(consolidation):
    floor = consolidation.qos_floor(DATA_SERVING)
    assert floor is not None
    assert floor <= mhz(500)
