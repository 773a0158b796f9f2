"""Tests for argument validation helpers."""

import math

import pytest

from repro.utils.validation import (
    check_fraction,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability_sum,
)


def test_check_positive_accepts_positive():
    assert check_positive("x", 0.1) == 0.1


def test_check_positive_rejects_zero():
    with pytest.raises(ValueError, match="x must be > 0"):
        check_positive("x", 0.0)


def test_check_positive_rejects_negative():
    with pytest.raises(ValueError):
        check_positive("x", -1.0)


def test_check_non_negative_accepts_zero():
    assert check_non_negative("x", 0.0) == 0.0


def test_check_non_negative_rejects_negative():
    with pytest.raises(ValueError):
        check_non_negative("x", -0.001)


def test_check_non_negative_rejects_nan():
    with pytest.raises(ValueError, match="x must be >= 0, got nan"):
        check_non_negative("x", math.nan)


def test_check_non_negative_accepts_infinity_like_check_positive():
    assert check_non_negative("x", math.inf) == math.inf
    assert check_positive("x", math.inf) == math.inf


def test_check_positive_rejects_nan():
    with pytest.raises(ValueError, match="x must be > 0, got nan"):
        check_positive("x", math.nan)


def test_check_in_range_bounds_inclusive():
    assert check_in_range("x", 0.5, 0.5, 1.0) == 0.5
    assert check_in_range("x", 1.0, 0.5, 1.0) == 1.0


def test_check_in_range_rejects_outside():
    with pytest.raises(ValueError):
        check_in_range("x", 1.01, 0.0, 1.0)


def test_check_fraction_accepts_half():
    assert check_fraction("x", 0.5) == 0.5


def test_check_fraction_rejects_above_one():
    with pytest.raises(ValueError):
        check_fraction("x", 1.5)


def test_check_probability_sum_accepts_valid():
    values = [0.2, 0.3, 0.5]
    assert check_probability_sum("mix", values) == values


def test_check_probability_sum_rejects_invalid():
    with pytest.raises(ValueError):
        check_probability_sum("mix", [0.2, 0.2])
