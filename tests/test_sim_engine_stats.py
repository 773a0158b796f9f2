"""Tests for the sample statistics and SMARTS sampling."""

import pytest

from repro.sim.sampling import SmartsSampler
from repro.sim.statistics import SampleStatistics, UipsMeasurement, confidence_interval


# -- statistics ---------------------------------------------------------------------


def test_confidence_interval_of_constant_sample_is_zero_width():
    mean, half_width = confidence_interval([2.0, 2.0, 2.0, 2.0])
    assert mean == pytest.approx(2.0)
    assert half_width == pytest.approx(0.0)


def test_confidence_interval_single_value():
    mean, half_width = confidence_interval([3.0])
    assert mean == 3.0
    assert half_width == 0.0


def test_confidence_interval_empty_rejected():
    with pytest.raises(ValueError):
        confidence_interval([])


def test_sample_statistics_relative_error():
    statistics = SampleStatistics.from_values([1.0, 1.02, 0.98, 1.01, 0.99] * 10)
    assert statistics.relative_error < 0.02
    assert statistics.meets_error_target()


def test_uips_measurement_scaling():
    measurement = UipsMeasurement(frequency_hz=1.0e9, uipc=0.5, core_count=36)
    assert measurement.core_uips == pytest.approx(0.5e9)
    assert measurement.chip_uips == pytest.approx(18e9)


# -- SMARTS sampling -----------------------------------------------------------------


def test_sampler_converges_quickly_on_low_variance():
    sampler = SmartsSampler(initial_units=8, max_units=50)
    result = sampler.run(lambda index: 1.0 + 0.001 * (index % 2))
    assert result.converged
    assert len(result.values) == 8


def test_sampler_adds_units_for_high_variance():
    sampler = SmartsSampler(initial_units=8, max_units=40, error_target=0.01)
    values = [1.0, 5.0, 0.2, 3.0, 7.0, 0.5, 2.0, 9.0]
    result = sampler.run(lambda index: values[index % len(values)])
    assert len(result.values) > 8


def test_sampler_respects_max_units():
    sampler = SmartsSampler(initial_units=4, max_units=10, error_target=0.0001)
    result = sampler.run(lambda index: float(index % 7))
    assert len(result.values) <= 10
    assert not result.converged


def test_sampler_rejects_bad_budget():
    with pytest.raises(ValueError):
        SmartsSampler(initial_units=10, max_units=5)
