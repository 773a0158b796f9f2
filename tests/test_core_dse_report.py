"""Tests for design-point evaluation, sweep summaries and report rendering."""

import pytest

from repro.core.config import default_server
from repro.core.report import render_operating_points, render_summary
from repro.sweep import ModelContext, SweepRunner
from repro.technology.a57_model import BodyBiasPolicy
from repro.technology.process import BULK_28NM, FDSOI_28NM_FBB
from repro.utils.units import ghz, mhz
from repro.workloads.banking_vm import VMS_LOW_MEM
from repro.workloads.cloudsuite import DATA_SERVING, WEB_SEARCH, scale_out_workloads


# The context and its sweep are session-scoped in tests/conftest.py: their
# model caches are shared with every other module probing the default server.


@pytest.fixture
def summary(default_sweep):
    return lambda workload: SweepRunner.summarize_workload(default_sweep, workload.name)


def test_evaluate_produces_consistent_record(default_context):
    record = default_context.evaluate(WEB_SEARCH, ghz(1))
    assert record.workload_name == "Web Search"
    assert record.frequency_hz == pytest.approx(ghz(1))
    assert record.core_power < record.soc_power < record.server_power
    assert record.cores_efficiency > record.soc_efficiency > record.server_efficiency
    assert record.latency_seconds is not None
    assert record.degradation is None


def test_evaluate_vm_record_has_degradation(default_context):
    record = default_context.evaluate(VMS_LOW_MEM, ghz(1))
    assert record.degradation is not None
    assert record.latency_seconds is None


def test_explore_covers_grid_for_all_workloads(default_context):
    workloads = list(scale_out_workloads().values())
    records = SweepRunner(context=default_context).run(
        workloads, [mhz(500), ghz(1), ghz(2)]
    )
    assert len(records) == len(workloads) * 3


def test_summary_contains_optima_and_floor(summary):
    result = summary(DATA_SERVING)
    assert result.qos_floor_hz is not None
    assert set(result.optimal_frequency_by_scope) == {"cores", "soc", "server"}
    assert result.best_qos_respecting_frequency is not None
    assert result.best_qos_respecting_frequency >= result.qos_floor_hz


def test_best_qos_respecting_point_meets_qos(summary, default_context):
    frequency = summary(WEB_SEARCH).best_qos_respecting_frequency
    assert default_context.evaluate(WEB_SEARCH, frequency).meets_qos


def test_compare_technologies_orders_power():
    configurations = {
        "bulk": default_server().with_technology(BULK_28NM),
        "fdsoi": default_server(),
        "fdsoi-fbb": default_server().with_technology(
            FDSOI_28NM_FBB, BodyBiasPolicy.OPTIMAL
        ),
    }
    results = {
        label: ModelContext(configuration).evaluate(WEB_SEARCH, ghz(1))
        for label, configuration in configurations.items()
    }
    assert results["bulk"].core_power > results["fdsoi"].core_power
    assert results["fdsoi"].core_power >= results["fdsoi-fbb"].core_power
    # Throughput is technology independent (same frequency).
    assert results["bulk"].chip_uips == pytest.approx(results["fdsoi"].chip_uips)


def test_compare_technologies_skips_unreachable():
    bulk = ModelContext(default_server().with_technology(BULK_28NM))
    assert not bulk.is_reachable(3.4e9)
    assert len(SweepRunner(context=bulk).run([WEB_SEARCH], [3.4e9])) == 0


def test_meets_qos_flag_false_at_very_low_frequency(default_context):
    record = default_context.evaluate(DATA_SERVING, mhz(100))
    assert not record.meets_qos


def test_render_operating_points_table(default_context):
    records = [
        default_context.evaluate(WEB_SEARCH, ghz(1)),
        default_context.evaluate(WEB_SEARCH, ghz(2)),
    ]
    text = render_operating_points(records)
    assert "Web Search" in text
    assert "1000" in text and "2000" in text


def test_render_summary_table(summary):
    text = render_summary([summary(DATA_SERVING)])
    assert "Data Serving" in text
    assert "QoS floor" in text
