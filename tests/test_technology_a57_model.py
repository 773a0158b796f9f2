"""Tests for the calibrated Cortex-A57 power model (Figure 1 anchors)."""

import math

import pytest

from repro.core.config import default_frequency_grid
from repro.technology.a57_model import (
    BodyBiasPolicy,
    CortexA57PowerModel,
    default_flavour_models,
)
from repro.technology.process import BULK_28NM, FDSOI_28NM, FDSOI_28NM_FBB
from repro.utils.units import ghz, mhz


@pytest.fixture(scope="module")
def models():
    return default_flavour_models()


def test_default_flavours_present(models):
    assert set(models) == {"bulk", "fdsoi", "fdsoi-fbb"}


def test_fdsoi_max_frequency_about_3_5ghz(models):
    assert models["fdsoi"].max_frequency() == pytest.approx(3.5e9, rel=0.05)


def test_fdsoi_min_voltage_frequency_near_100mhz(models):
    assert 50e6 <= models["fdsoi"].min_voltage_frequency() <= 250e6


def test_fbb_min_voltage_frequency_exceeds_500mhz(models):
    assert models["fdsoi-fbb"].min_voltage_frequency() > 500e6


def test_bulk_max_frequency_lower_than_fdsoi(models):
    assert models["bulk"].max_frequency() < models["fdsoi"].max_frequency()


def test_power_ordering_bulk_fdsoi_fbb(models):
    for frequency in (mhz(300), mhz(500), ghz(1), ghz(2)):
        p_bulk = models["bulk"].core_power(frequency)
        p_fdsoi = models["fdsoi"].core_power(frequency)
        p_fbb = models["fdsoi-fbb"].core_power(frequency)
        assert p_bulk > p_fdsoi
        assert p_fdsoi >= p_fbb - 1e-12


def test_fdsoi_gain_over_bulk_grows_toward_low_frequency(models):
    gain_low = 1 - models["fdsoi"].core_power(mhz(300)) / models["bulk"].core_power(mhz(300))
    gain_high = 1 - models["fdsoi"].core_power(ghz(2)) / models["bulk"].core_power(ghz(2))
    assert gain_low > gain_high


def test_voltage_ordering_at_iso_frequency(models):
    for frequency in (mhz(500), ghz(1), ghz(2)):
        v_bulk = models["bulk"].operating_point(frequency).vdd
        v_fdsoi = models["fdsoi"].operating_point(frequency).vdd
        v_fbb = models["fdsoi-fbb"].operating_point(frequency).vdd
        assert v_bulk > v_fdsoi >= v_fbb


def test_chip_power_within_budget_at_2ghz(models):
    # 36 FD-SOI cores at the nominal 2GHz point leave room for the
    # ~22W uncore inside the 100W chip budget.
    assert models["fdsoi"].chip_core_power(ghz(2), 36) < 80.0


def test_chip_power_near_175w_at_top_frequency(models):
    power = models["fdsoi"].chip_core_power(3.4e9, 36)
    assert 120.0 < power < 200.0


def test_voltage_clamped_at_min_functional(models):
    operating_point = models["fdsoi"].operating_point(mhz(100))
    assert operating_point.vdd >= FDSOI_28NM.min_functional_vdd - 1e-9


def test_power_monotone_in_frequency(models):
    frequencies = [mhz(value) for value in (200, 400, 800, 1200, 1600, 2000)]
    for model in models.values():
        powers = [model.core_power(frequency) for frequency in frequencies]
        assert powers == sorted(powers)


def test_unreachable_frequency_raises(models):
    with pytest.raises(ValueError, match="cannot reach"):
        models["bulk"].operating_point(5e9)


def test_is_reachable(models):
    assert models["fdsoi"].is_reachable(ghz(2))
    assert not models["bulk"].is_reachable(ghz(4))


REACHABILITY_MODELS = {
    "bulk": CortexA57PowerModel(technology=BULK_28NM),
    "fdsoi": CortexA57PowerModel(technology=FDSOI_28NM),
    "fdsoi-fbb-fixed": CortexA57PowerModel(
        technology=FDSOI_28NM_FBB, bias_policy=BodyBiasPolicy.FIXED
    ),
    "fdsoi-fbb-optimal": CortexA57PowerModel(
        technology=FDSOI_28NM_FBB, bias_policy=BodyBiasPolicy.OPTIMAL
    ),
}


def _solver_reaches(model, frequency_hz):
    try:
        model.operating_point(frequency_hz)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(REACHABILITY_MODELS))
def test_closed_form_reachability_agrees_with_the_solver(name):
    """``is_reachable``'s closed form answers as the solver does."""
    model = REACHABILITY_MODELS[name]
    maximum = model.max_frequency()
    frequencies = (
        *default_frequency_grid(),
        *(mhz(100 * step) for step in range(1, 36)),
        maximum,
        math.nextafter(maximum, math.inf),
        0.0,
        -1.0,
        math.nan,
        math.inf,
    )
    for frequency in frequencies:
        assert model.is_reachable(frequency) == _solver_reaches(model, frequency), (
            name,
            frequency,
        )
    # The edges hold on both sides.
    assert model.is_reachable(maximum)
    assert not model.is_reachable(math.nextafter(maximum, math.inf))


def test_activity_reduces_dynamic_power(models):
    busy = models["fdsoi"].operating_point(ghz(1), activity=1.0)
    light = models["fdsoi"].operating_point(ghz(1), activity=0.3)
    assert light.dynamic_power < busy.dynamic_power
    assert light.leakage_power == pytest.approx(busy.leakage_power)


def test_operating_point_properties(models):
    point = models["fdsoi"].operating_point(ghz(1))
    assert point.total_power == pytest.approx(point.dynamic_power + point.leakage_power)
    assert 0.0 < point.leakage_fraction < 1.0
    assert point.energy_per_cycle == pytest.approx(point.total_power / ghz(1))


def test_optimal_policy_never_worse_than_none():
    plain = CortexA57PowerModel(technology=FDSOI_28NM, bias_policy=BodyBiasPolicy.NONE)
    optimal = CortexA57PowerModel(
        technology=FDSOI_28NM_FBB, bias_policy=BodyBiasPolicy.OPTIMAL
    )
    for frequency in (mhz(200), mhz(500), ghz(1), ghz(2)):
        assert optimal.core_power(frequency) <= plain.core_power(frequency) + 1e-12


def test_fixed_policy_uses_requested_bias():
    fixed = CortexA57PowerModel(
        technology=FDSOI_28NM_FBB,
        bias_policy=BodyBiasPolicy.FIXED,
        fixed_body_bias=1.5,
    )
    point = fixed.operating_point(ghz(1))
    assert point.body_bias == pytest.approx(1.5)


def test_fixed_policy_bias_outside_range_rejected():
    with pytest.raises(ValueError):
        CortexA57PowerModel(
            technology=BULK_28NM,
            bias_policy=BodyBiasPolicy.FIXED,
            fixed_body_bias=2.0,
        )


def test_chip_core_power_requires_positive_core_count(models):
    with pytest.raises(ValueError):
        models["fdsoi"].chip_core_power(ghz(1), 0)
