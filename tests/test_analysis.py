"""Tests for the paper's figures, Table I and the paper-claim validation.

Every figure is read from a registered scenario: Figure 1 from
``ablation_body_bias``'s ``figure1`` analysis, Figures 2-4 from the
sweep columns of ``fig2_qos``, ``fig3_scaleout`` and
``fig4_virtualized`` re-pointed at each test's grid.
"""

import pytest

from repro import obs
from repro.analysis.tables import memory_power_summary, table1_rows
from repro.analysis.validation import claims_as_dict, validate_paper_claims
from repro.core.efficiency import EfficiencyScope
from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.analyses import FIGURE1_FREQUENCIES_HZ
from repro.technology.a57_model import default_flavour_models
from repro.utils.units import mhz


def _figure1(frequencies_mhz):
    """Figure 1's series per flavour, at the grid points the flavour reaches."""
    grid = {mhz(f) for f in frequencies_mhz}
    figure = ScenarioRunner().run("ablation_body_bias").extras["figure1"]
    return {
        label: {
            key: [
                value
                for frequency, value in zip(flavour["frequency_hz"], flavour[key])
                if frequency in grid
            ]
            for key in ("frequency_hz", "vdd_v", "chip_core_power_w")
        }
        for label, flavour in figure.items()
    }


def _by_workload(scenario, frequencies_mhz):
    """Per-workload rows of ``scenario``'s sweep over a grid given in MHz."""
    spec = get_scenario(scenario).with_overrides(
        frequency_grid_hz=tuple(mhz(f) for f in frequencies_mhz)
    )
    return ScenarioRunner().run(spec).sweep.group_by("workload_name")


# -- Figure 1 -----------------------------------------------------------------------


def test_figure1_contains_three_flavours():
    figure = ScenarioRunner().run("ablation_body_bias").extras["figure1"]
    assert set(figure) == {"bulk", "fdsoi", "fdsoi-fbb"}
    for flavour in figure.values():
        assert set(flavour) == {
            "min_functional_vdd_v",
            "frequency_at_min_vdd_hz",
            "frequency_hz",
            "vdd_v",
            "chip_core_power_w",
        }
    for flavour in _figure1((200, 500, 1000, 2000)).values():
        assert flavour["frequency_hz"] == [mhz(f) for f in (200, 500, 1000, 2000)]


def test_figure1_power_and_vdd_monotone_in_frequency():
    series = _figure1(range(200, 2001, 200))
    for flavour in series.values():
        assert flavour["chip_core_power_w"] == sorted(flavour["chip_core_power_w"])
        assert flavour["vdd_v"] == sorted(flavour["vdd_v"])


def test_figure1_fdsoi_below_bulk_power():
    series = _figure1((500, 1000, 2000))
    bulk = series["bulk"]["chip_core_power_w"]
    fdsoi = series["fdsoi"]["chip_core_power_w"]
    assert series["bulk"]["frequency_hz"] == series["fdsoi"]["frequency_hz"]
    assert all(f < b for f, b in zip(fdsoi, bulk))


def test_figure1_equals_the_solver():
    figure = ScenarioRunner().run("ablation_body_bias").extras["figure1"]
    models = default_flavour_models()
    assert set(figure) == set(models)
    for label, model in models.items():
        flavour = figure[label]
        reached, vdds, powers = [], [], []
        for frequency in FIGURE1_FREQUENCIES_HZ:
            try:
                point = model.operating_point(frequency)
            except ValueError:
                continue
            reached.append(frequency)
            vdds.append(point.vdd)
            powers.append(point.total_power * 36)
        assert flavour["frequency_hz"] == reached, label
        assert flavour["vdd_v"] == vdds, label
        assert flavour["chip_core_power_w"] == powers, label
        assert flavour["min_functional_vdd_v"] == model.technology.min_functional_vdd
        assert flavour["frequency_at_min_vdd_hz"] == model.min_voltage_frequency()
    bulk = figure["bulk"]["frequency_hz"]
    assert (len(FIGURE1_FREQUENCIES_HZ), len(bulk)) == (35, 30)
    assert max(bulk) < 3.5e9
    # Every point of a second run is read back from the solve memo.
    with obs.capture() as capture:
        ScenarioRunner().run("ablation_body_bias")
    deltas = capture.counter_deltas()
    assert deltas.get("context.operating_point_solves", 0) == 0
    assert deltas["context.operating_point_hits"] == sum(
        len(flavour["frequency_hz"]) for flavour in figure.values()
    )


# -- Figure 2 -----------------------------------------------------------------------


def test_figure2_has_four_workloads():
    series = _by_workload("fig2_qos", (200, 500, 1000, 2000))
    assert len(series) == 4


def test_figure2_normalized_latency_decreases_with_frequency():
    series = _by_workload("fig2_qos", (200, 500, 1000, 2000))
    for rows in series.values():
        latency = list(rows.column("latency_normalized_to_qos"))
        assert latency == sorted(latency, reverse=True)


def test_figure2_meets_qos_at_2ghz():
    series = _by_workload("fig2_qos", (2000,))
    for rows in series.values():
        assert rows.column("latency_normalized_to_qos")[0] < 1.0


# -- Figures 3 and 4 -------------------------------------------------------------------


def test_figure3_scopes_have_expected_shapes():
    series = _by_workload("fig3_scaleout", (200, 500, 1000, 1500, 2000))
    for rows in series.values():
        # Cores: efficiency decreases with frequency.
        cores = list(rows.efficiency(EfficiencyScope.CORES))
        assert cores == sorted(cores, reverse=True)
        # SoC: interior maximum (not at either end for this grid).
        soc_values = list(rows.efficiency(EfficiencyScope.SOC))
        assert max(soc_values) not in (soc_values[0],)


def test_figure4_has_two_vm_classes():
    series = _by_workload("fig4_virtualized", (500, 1000, 2000))
    assert set(series) == {"VMs low-mem", "VMs high-mem"}


def test_figure4_high_mem_above_low_mem_efficiency():
    series = _by_workload("fig4_virtualized", (1000, 2000))
    high = series["VMs high-mem"].efficiency(EfficiencyScope.SERVER)
    low = series["VMs low-mem"].efficiency(EfficiencyScope.SERVER)
    assert all(h > l for h, l in zip(high, low))


# -- Table I and validation ---------------------------------------------------------------


def test_table1_values_match_paper():
    row = table1_rows()[0]
    assert row["E_IDLE (nJ/cycle)"] == pytest.approx(0.0728)
    assert row["E_READ (nJ/byte)"] == pytest.approx(0.2566)
    assert row["E_WRITE (nJ/byte)"] == pytest.approx(0.2495)


def test_memory_power_summary_fields():
    summary = memory_power_summary()
    assert summary["chips"] == 128
    assert summary["capacity_gb"] == pytest.approx(64.0)
    assert summary["total_power_w"] == pytest.approx(
        summary["background_power_w"] + summary["dynamic_power_w"]
    )


def test_all_paper_claims_pass():
    checks = validate_paper_claims()
    failed = [check.claim for check in checks if not check.passed]
    assert failed == []


def test_claims_as_dict_shape():
    claims = claims_as_dict()
    assert len(claims) >= 10
    assert all(isinstance(value, bool) for value in claims.values())
