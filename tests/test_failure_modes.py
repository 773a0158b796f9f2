"""Failure-injection and edge-case tests across the library."""

import pytest

from repro.core.config import ServerConfiguration, default_server
from repro.core.consolidation import ConsolidationAnalyzer
from repro.dram.commands import MemoryRequest, RequestType
from repro.power.dram_power import MemoryOrganization, MemoryPowerModel
from repro.sweep import ModelContext, SweepRunner
from repro.technology.a57_model import CortexA57PowerModel
from repro.technology.process import BULK_28NM
from repro.utils.units import ghz, mhz
from repro.workloads.banking_vm import VMS_LOW_MEM
from repro.workloads.cloudsuite import DATA_SERVING


def test_bulk_server_has_reduced_frequency_grid():
    """A bulk-technology server cannot reach the lowest NTC grid points."""
    configuration = default_server().with_technology(BULK_28NM)
    reachable = ModelContext(configuration).reachable_frequencies()
    assert min(reachable) >= mhz(100)
    # Bulk cannot use the 100MHz point that FD-SOI reaches at 0.5V...
    fdsoi_reachable = ModelContext(default_server()).reachable_frequencies()
    assert len(reachable) <= len(fdsoi_reachable)


def test_qos_floor_is_none_when_no_frequency_meets_qos():
    """A workload with almost no QoS headroom cannot meet QoS anywhere below nominal."""
    from dataclasses import replace

    tight = replace(
        DATA_SERVING,
        name="Tight QoS",
        minimum_latency_99th_seconds=19.9e-3,
        qos_limit_seconds=20.0e-3,
    )
    runner = SweepRunner.for_configuration(default_server())
    assert runner.run([tight], [mhz(200), mhz(500)]).qos_floor() is None


def test_consolidation_best_plan_raises_when_bound_unreachable():
    analyzer = ConsolidationAnalyzer(
        ModelContext(default_server(), degradation_bound=0.5)
    )
    with pytest.raises(ValueError, match="degradation bound"):
        analyzer.best_plan(VMS_LOW_MEM)


def test_memory_request_rejects_negative_address():
    with pytest.raises(ValueError):
        MemoryRequest(address=-1, request_type=RequestType.READ, arrival_cycle=0)


def test_memory_request_rejects_zero_size():
    with pytest.raises(ValueError):
        MemoryRequest(
            address=0, request_type=RequestType.READ, arrival_cycle=0, size_bytes=0
        )


def test_memory_model_with_single_channel_has_lower_peak():
    small = MemoryPowerModel(organization=MemoryOrganization(channels=1))
    assert small.organization.peak_bandwidth == pytest.approx(25.6e9)
    with pytest.raises(ValueError):
        small.dynamic_power(read_bandwidth=30e9)


def test_unreachable_frequency_in_efficiency_curve_is_skipped():
    configuration = default_server().with_technology(BULK_28NM)
    sweep = SweepRunner.for_configuration(configuration).run(
        [DATA_SERVING], [mhz(100), ghz(1), 5e9]
    )
    assert 5e9 not in sweep.column("frequency_hz")


def test_core_model_activity_bounds_enforced():
    model = CortexA57PowerModel()
    with pytest.raises(ValueError):
        model.operating_point(ghz(1), activity=-0.1)


def test_server_configuration_rejects_negative_frequency_grid():
    with pytest.raises(ValueError):
        ServerConfiguration(frequency_grid=(1e9, -1.0))


def test_server_configuration_rejects_a_repeated_grid_frequency():
    with pytest.raises(
        ValueError, match=r"frequency_grid \(Hz\) repeats 1000000000\.0$"
    ):
        ServerConfiguration(frequency_grid=(5e8, 1e9, 1e9, 2e9))


def test_degradation_bound_zero_rejected():
    from repro.scenarios import ScenarioSpec

    with pytest.raises(ValueError, match="degradation bound must be >= 1"):
        ScenarioSpec(name="bad", title="t", degradation_bound=0.0)


# -- scenario layer ---------------------------------------------------------------


def test_unknown_scenario_name_lists_alternatives():
    from repro.scenarios import ScenarioRunner

    with pytest.raises(ValueError, match="unknown scenario 'no_such'.*fig2_qos"):
        ScenarioRunner().run("no_such")


def test_scenario_empty_frequency_grid_rejected():
    from repro.scenarios import ScenarioSpec

    with pytest.raises(ValueError, match="frequency grid must not be empty"):
        ScenarioSpec(name="bad", title="t", frequency_grid_hz=())


def test_scenario_negative_frequency_rejected():
    from repro.scenarios import ScenarioSpec

    with pytest.raises(ValueError, match="must be positive"):
        ScenarioSpec(name="bad", title="t", frequency_grid_hz=(1e9, -2e9))


def test_scenario_repeated_grid_frequency_rejected():
    from repro.scenarios import ScenarioSpec, get_scenario

    with pytest.raises(
        ValueError,
        match=r"scenario 'fig2_qos': frequency grid \(Hz\) repeats 1000000000\.0$",
    ):
        get_scenario("fig2_qos").with_overrides(frequency_grid_hz=(5e8, 1e9, 1e9, 2e9))
    # The order is free: a descending grid constructs.
    ScenarioSpec(name="ok", title="t", frequency_grid_hz=(2e9, 1e9, 5e8))


def test_scenario_degradation_bound_below_one_rejected():
    from repro.scenarios import ScenarioSpec

    with pytest.raises(ValueError, match="degradation bound must be >= 1"):
        ScenarioSpec(name="bad", title="t", degradation_bound=-4.0)


def test_scenario_unknown_workload_set_rejected():
    from repro.scenarios import ScenarioSpec

    with pytest.raises(ValueError, match="unknown workload set 'gpu'"):
        ScenarioSpec(name="bad", title="t", workload_set="gpu")


def test_scenario_unknown_workload_name_rejected():
    from repro.scenarios import ScenarioSpec

    with pytest.raises(ValueError, match=r"workloads \['SPECint'\] are not in"):
        ScenarioSpec(name="bad", title="t", workload_names=("SPECint",))


def test_scenario_unknown_technology_rejected():
    from repro.scenarios import ScenarioSpec

    with pytest.raises(ValueError, match="unknown technology 'finfet-7nm'"):
        ScenarioSpec(name="bad", title="t", technology="finfet-7nm")


def test_scenario_unknown_memory_chip_rejected():
    from repro.scenarios import ScenarioSpec

    with pytest.raises(ValueError, match="unknown memory_chip 'hbm2'"):
        ScenarioSpec(name="bad", title="t", memory_chip="hbm2")


def test_scenario_unknown_analysis_rejected():
    from repro.scenarios import ScenarioSpec

    with pytest.raises(ValueError, match=r"unknown analyses \['sharding'\]"):
        ScenarioSpec(name="bad", title="t", analyses=("sharding",))


def test_scenario_unreachable_grid_raises_at_run():
    """A grid no flavour point can reach fails with a precise error."""
    from repro.scenarios import ScenarioRunner, ScenarioSpec

    spec = ScenarioSpec(
        name="unreachable",
        title="t",
        technology="bulk-28nm",
        frequency_grid_hz=(ghz(10),),
    )
    with pytest.raises(ValueError, match="no frequency in the grid is reachable"):
        ScenarioRunner().run(spec)


def test_scenario_duplicate_workload_names_rejected():
    from repro.scenarios import ScenarioSpec

    with pytest.raises(ValueError, match="contains duplicates"):
        ScenarioSpec(
            name="bad", title="t", workload_names=("Web Search", "Web Search")
        )


def test_duplicate_scenario_registration_rejected():
    from repro.scenarios import ScenarioRegistry, ScenarioSpec

    registry = ScenarioRegistry()
    registry.register(ScenarioSpec(name="dup", title="t"))
    with pytest.raises(ValueError, match="already registered"):
        registry.register(ScenarioSpec(name="dup", title="t"))


def test_scenario_unknown_load_trace_rejected():
    from repro.scenarios import ScenarioSpec

    with pytest.raises(ValueError, match="unknown load trace 'tidal'"):
        ScenarioSpec(name="bad", title="t", load_trace="tidal")


def test_scenario_unknown_governor_rejected():
    from repro.scenarios import ScenarioSpec

    with pytest.raises(ValueError, match="unknown governors"):
        ScenarioSpec(
            name="bad",
            title="t",
            load_trace="diurnal",
            governors=("performance", "schedutil"),
        )


def test_scenario_duplicate_governors_rejected():
    from repro.scenarios import ScenarioSpec

    with pytest.raises(ValueError, match="governors contains duplicates"):
        ScenarioSpec(
            name="bad",
            title="t",
            load_trace="diurnal",
            governors=("performance", "performance"),
        )


def test_scenario_memory_technology_requires_a_compare_chip():
    from repro.scenarios import get_scenario

    with pytest.raises(
        ValueError,
        match="scenario 'ablation_memory_tech': the memory_technology analysis "
        "needs compare_memory_chip",
    ):
        get_scenario("ablation_memory_tech").with_overrides(compare_memory_chip=None)


def test_scenario_dvfs_replay_requires_a_load_trace():
    from repro.scenarios import ScenarioSpec

    with pytest.raises(ValueError, match="needs load_trace"):
        ScenarioSpec(name="bad", title="t", analyses=("dvfs_replay",))
