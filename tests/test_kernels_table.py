"""Tests for the kernels' frozen frequency tables.

Covers the ISSUE's edge-case checklist -- single-frequency grids,
unreachable frequencies excluded, NaN-free columns, equality with the
per-point ``evaluate`` path -- plus the exactly-once
``evaluated_points`` contract under bulk table builds.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import default_server
from repro.dvfs import GovernorSimulator, LoadTrace
from repro.fleet import FleetSimulator
from repro.kernels import FrequencyTable
from repro.sweep.context import ModelContext
from repro.workloads.banking_vm import VMS_LOW_MEM
from repro.workloads.cloudsuite import WEB_SEARCH


# -- construction and edge cases --------------------------------------------------------


def test_table_matches_per_point_evaluate(default_context):
    """Every column equals the record fields, workload by workload."""
    for workload in (WEB_SEARCH, VMS_LOW_MEM):
        table = default_context.frequency_table(workload)
        assert len(table) == len(default_context.reachable_frequencies())
        for index, frequency in enumerate(table.frequencies()):
            record = default_context.evaluate(workload, frequency)
            assert table.power_w[index] == record.server_power
            assert table.capacity_uips[index] == record.chip_uips
            assert bool(table.qos_ok[index]) == record.meets_qos
            expected_metric = (
                record.degradation
                if record.degradation is not None
                else record.latency_normalized_to_qos
            )
            if expected_metric is None:
                assert np.isnan(table.qos_metric[index])
            else:
                assert table.qos_metric[index] == pytest.approx(
                    expected_metric, rel=1e-12
                )
            if record.latency_seconds is None:
                assert np.isnan(table.latency_seconds[index])
            else:
                assert table.latency_seconds[index] == record.latency_seconds


def test_table_columns_are_nan_free_and_frozen(default_context):
    table = default_context.frequency_table(WEB_SEARCH)
    for name in ("frequencies_hz", "capacity_uips", "power_w"):
        column = getattr(table, name)
        assert np.all(np.isfinite(column)), name
        with pytest.raises(ValueError):
            column[0] = 0.0
    assert np.all(table.capacity_uips > 0)
    assert np.all(table.energy_per_instruction_j > 0)
    assert np.all(np.isfinite(table.energy_per_instruction_j))


def test_single_frequency_grid(default_context):
    frequency = default_context.reachable_frequencies()[0]
    table = default_context.frequency_table(WEB_SEARCH, frequencies=(frequency,))
    assert len(table) == 1
    assert table.nominal_index == 0
    assert table.nominal_frequency_hz == frequency
    assert table.min_frequency_hz == frequency
    # Selection collapses to index 0 or the (same) nominal fallback.
    indices = table.lowest_covering_indices(np.array([0.0, 1e30]))
    assert indices[0] == 0
    assert indices[1] == -1  # beyond capacity: caller falls back to nominal
    # A single-point grid still replays every governor.
    simulator = GovernorSimulator(
        default_context, WEB_SEARCH, frequencies=(frequency,)
    )
    trace = LoadTrace.constant(0.4, steps=4)
    replay = simulator.replay(trace, "conservative")
    assert set(replay.column("frequency_hz")) == {frequency}


def test_unreachable_frequencies_are_excluded(default_context):
    grid = default_context.reachable_frequencies()
    table = default_context.frequency_table(
        WEB_SEARCH, frequencies=(grid[0], 100e9)
    )
    assert table.frequencies() == (grid[0],)


def test_fully_unreachable_grid_is_rejected(default_context):
    with pytest.raises(ValueError, match="no reachable frequency"):
        default_context.frequency_table(WEB_SEARCH, frequencies=(100e9,))


def test_constructor_validation():
    with pytest.raises(ValueError, match="at least one frequency"):
        FrequencyTable(
            workload_name="w",
            frequencies_hz=[],
            capacity_uips=[],
            power_w=[],
            qos_metric=[],
            qos_ok=[],
            latency_seconds=[],
        )
    with pytest.raises(ValueError, match="strictly ascending"):
        FrequencyTable(
            workload_name="w",
            frequencies_hz=[2.0, 1.0],
            capacity_uips=[1.0, 1.0],
            power_w=[1.0, 1.0],
            qos_metric=[0.0, 0.0],
            qos_ok=[True, True],
            latency_seconds=[0.0, 0.0],
        )
    with pytest.raises(ValueError, match="power_w"):
        FrequencyTable(
            workload_name="w",
            frequencies_hz=[1.0, 2.0],
            capacity_uips=[1.0, 2.0],
            power_w=[1.0],
            qos_metric=[0.0, 0.0],
            qos_ok=[True, True],
            latency_seconds=[0.0, 0.0],
        )
    with pytest.raises(ValueError, match="must be finite"):
        FrequencyTable(
            workload_name="w",
            frequencies_hz=[1.0, 2.0],
            capacity_uips=[1.0, float("nan")],
            power_w=[1.0, 2.0],
            qos_metric=[0.0, 0.0],
            qos_ok=[True, True],
            latency_seconds=[0.0, 0.0],
        )
    with pytest.raises(ValueError, match="qos_ok"):
        FrequencyTable(
            workload_name="w",
            frequencies_hz=[1.0, 2.0],
            capacity_uips=[1.0, 2.0],
            power_w=[1.0, 2.0],
            qos_metric=[0.0, 0.0],
            qos_ok=[True],
            latency_seconds=[0.0, 0.0],
        )


def test_table_is_memoized_per_workload_and_grid(default_context):
    first = default_context.frequency_table(WEB_SEARCH)
    assert default_context.frequency_table(WEB_SEARCH) is first
    grid = default_context.reachable_frequencies()[:2]
    sub = default_context.frequency_table(WEB_SEARCH, frequencies=grid)
    assert sub is not first
    assert default_context.frequency_table(WEB_SEARCH, frequencies=grid) is sub


# -- the covering search ---------------------------------------------------------------


def _cover_matrix_indices(table, demand, require_qos):
    """The oracle: an M x G ``covers >= demand`` matrix and its argmax."""
    demand = np.asarray(demand, dtype=np.float64)
    flat = demand.reshape(-1)
    covers = table.covers_capacity_uips[np.newaxis, :] >= flat[:, np.newaxis]
    if require_qos:
        covers = covers & table.qos_ok[np.newaxis, :]
    found = covers.any(axis=1)
    return np.where(found, covers.argmax(axis=1), -1).reshape(demand.shape)


def _table(capacities, qos_ok):
    return FrequencyTable(
        workload_name="drawn",
        frequencies_hz=[1.0e8 * (index + 1) for index in range(len(qos_ok))],
        capacity_uips=capacities,
        power_w=[1.0] * len(qos_ok),
        qos_metric=[0.0] * len(qos_ok),
        qos_ok=qos_ok,
        latency_seconds=[0.0] * len(qos_ok),
    )


@st.composite
def _tables(draw):
    """Small grids whose capacities repeat, dip and rise, with a
    non-monotone QoS flag."""
    size = draw(st.integers(1, 7))
    capacity = st.one_of(
        st.sampled_from((0.0, 1.0e9, 2.0e9, 2.0e9, 3.5e9)),
        st.floats(1.0, 4.0e9),
    )
    return _table(
        draw(st.lists(capacity, min_size=size, max_size=size)),
        draw(st.lists(st.booleans(), min_size=size, max_size=size)),
    )


@settings(max_examples=150, deadline=None)
@given(
    table=_tables(),
    picks=st.lists(
        st.one_of(st.integers(0, 999), st.floats(0.0, 5.0e9)),
        min_size=6,
        max_size=6,
    ),
)
# Equal neighbouring capacities, a dip, and QoS flags that flip twice.
@example(
    table=_table(
        [1.0e9, 2.0e9, 2.0e9, 1.5e9, 3.0e9], [False, True, False, True, True]
    ),
    picks=[0, 6, 12, 18, 22, 2.0e9],
)
def test_covering_search_matches_the_cover_matrix(table, picks):
    """The searchsorted lookup equals the cover-matrix argmax exactly.

    Demands sit exactly on, and one ulp either side of, every covering
    capacity, plus 0.0, NaN and the infinities, in every shape the
    kernels pass: a vector, an empty array and a ``(B, T)`` tensor
    (integer picks index the special demands, floats are demands).
    """
    on_grid = table.covers_capacity_uips.tolist()
    specials = (
        on_grid
        + np.nextafter(on_grid, np.inf).tolist()
        + np.nextafter(on_grid, -np.inf).tolist()
        + [0.0, np.nan, np.inf, -np.inf]
    )
    tensor = np.array(
        [
            specials[pick % len(specials)] if isinstance(pick, int) else pick
            for pick in picks
        ]
    ).reshape(2, 3)
    for demands in (np.array(specials), np.array([]), tensor):
        for require_qos in (False, True):
            got = table.lowest_covering_indices(demands, require_qos)
            assert got.dtype == np.int64 and got.shape == demands.shape
            assert np.array_equal(
                got, _cover_matrix_indices(table, demands, require_qos)
            ), f"require_qos={require_qos}, demands={demands.tolist()}"


# -- the exactly-once accounting contract -----------------------------------------------


def test_evaluated_points_counts_table_builds_exactly_once():
    """Bulk table builds, replays and fleets never double-count points.

    Regression for the kernels' accounting contract: every grid point
    is resolved through the context's memoized ``evaluate``, so one
    workload's whole kernel stack -- repeated table builds, platform
    construction, kernel and reference replays, fleet runs -- costs
    exactly one evaluation per reachable grid frequency.
    """
    context = ModelContext(default_server())
    assert context.evaluated_points == 0
    table = context.frequency_table(WEB_SEARCH)
    grid_points = len(table)
    assert grid_points == len(context.reachable_frequencies())
    assert context.evaluated_points == grid_points

    context.frequency_table(WEB_SEARCH)  # rebuild: memoized, no recount
    assert context.evaluated_points == grid_points

    simulator = GovernorSimulator(context, WEB_SEARCH)
    trace = LoadTrace.diurnal()
    simulator.replay(trace, "qos_tracker")
    simulator.replay(trace, "qos_tracker", reference=True)
    assert context.evaluated_points == grid_points

    fleet = FleetSimulator(context, WEB_SEARCH, fleet_size=3)
    fleet.run(trace, "pack")
    fleet.run(trace, "pack", reference=True)
    assert context.evaluated_points == grid_points

    # A second workload adds exactly its own grid, nothing more.
    context.frequency_table(VMS_LOW_MEM)
    assert context.evaluated_points == 2 * grid_points
