"""Consistent argument validation helpers.

All model constructors in the library validate their physical parameters
through these helpers so error messages are uniform and informative.
"""

from __future__ import annotations

import math


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if strictly positive, otherwise raise ``ValueError``."""
    if not value > 0.0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Return ``value`` if >= 0, otherwise raise ``ValueError``."""
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(name: str, value: float, low: float, high: float) -> float:
    """Return ``value`` if inside the closed interval [low, high]."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Return ``value`` if it is a valid fraction in [0, 1]."""
    return check_in_range(name, value, 0.0, 1.0)


def check_probability_sum(name: str, values, tolerance: float = 1e-6):
    """Check that an iterable of fractions sums to 1 within ``tolerance``."""
    total = float(sum(values))
    if abs(total - 1.0) > tolerance:
        raise ValueError(f"{name} must sum to 1.0 (got {total:.6f})")
    return values


def check_flag(name: str, value: bool) -> bool:
    """Return ``value`` if it is a ``bool``, otherwise raise ``ValueError``.

    A truthy stand-in would switch the flag on whatever it says:
    ``queueing="false"`` replays *with* queueing tails.
    """
    if not isinstance(value, bool):
        raise ValueError(
            f"{name} must be a bool, got {value!r} ({type(value).__name__})"
        )
    return value


def check_fleet(fleet_size: int, off_power_w: float, autoscaler=None) -> None:
    """Check a fleet's size, parked-server draw and autoscaler floor.

    ``fleet_size`` must be an ``int`` >= 1: the engines allocate and
    index by it, so a float (even ``2.0``) or a ``bool`` is rejected
    here rather than failing mid-replay.  ``off_power_w`` must be
    finite and >= 0, and the autoscaler's ``min_servers`` (when one is
    given) must fit in the fleet.
    """
    if isinstance(fleet_size, bool) or not isinstance(fleet_size, int):
        raise ValueError(
            f"fleet_size must be an int, got {fleet_size!r} "
            f"({type(fleet_size).__name__})"
        )
    if fleet_size < 1:
        raise ValueError(f"fleet_size must be >= 1, got {fleet_size}")
    # NaN slips through the < 0 check, and a NaN or inf draw would
    # poison every replay's energy columns.
    if not math.isfinite(off_power_w):
        raise ValueError(f"off_power_w must be finite, got {off_power_w}")
    check_non_negative("off_power_w", off_power_w)
    if autoscaler is not None and autoscaler.min_servers > fleet_size:
        raise ValueError(
            f"autoscaler min_servers ({autoscaler.min_servers}) "
            f"exceeds the fleet size ({fleet_size})"
        )
