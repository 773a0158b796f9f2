"""Property tests over the scenario registry.

For every registered scenario: row ordering is deterministic
(workload-major in spec order, grid-ascending within a workload, and
bit-identical on a rerun), the set of frequencies satisfying a
degradation bound grows monotonically with the bound, and the power
scopes nest (CORES <= SOC <= SERVER) at every operating point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import ScenarioRunner, get_scenario, scenario_names
from repro.sweep.result import (
    COLUMNS,
    _BOOL_COLUMNS,
    _STRING_COLUMNS,
    SweepResult,
)


def assert_sweeps_identical(left: SweepResult, right: SweepResult) -> None:
    assert len(left) == len(right)
    for name in COLUMNS:
        a, b = left.column(name), right.column(name)
        if name in _STRING_COLUMNS:
            assert list(a) == list(b), f"column {name} differs"
        elif name in _BOOL_COLUMNS:
            assert np.array_equal(a, b), f"column {name} differs"
        else:
            assert np.array_equal(a, b, equal_nan=True), f"column {name} differs"


@pytest.mark.parametrize("name", scenario_names())
def test_rows_deterministically_ordered(name, scenario_results):
    result = scenario_results(name)
    spec = get_scenario(name)
    workload_names = list(spec.workloads())
    frequencies = result.sweep.column("frequency_hz")
    rows_per_workload = len(result.sweep) // len(workload_names)

    # Workload-major in spec order, one equal contiguous chunk each.
    expected_names = [
        name_
        for name_ in workload_names
        for _ in range(rows_per_workload)
    ]
    assert list(result.sweep.column("workload_name")) == expected_names

    # Grid-ascending within each workload chunk (the default grids are
    # ascending; reachability filtering preserves order).
    for index in range(len(workload_names)):
        chunk = frequencies[index * rows_per_workload : (index + 1) * rows_per_workload]
        assert np.all(np.diff(chunk) > 0)

    # A fresh run reproduces the table bit-for-bit.
    rerun = ScenarioRunner().run(name)
    assert_sweeps_identical(result.sweep, rerun.sweep)


@pytest.mark.parametrize("name", scenario_names())
def test_power_scopes_nest(name, scenario_results):
    """CORES <= SOC <= SERVER power at every swept operating point."""
    sweep = scenario_results(name).sweep
    core = sweep.column("core_power")
    soc = sweep.column("soc_power")
    server = sweep.column("server_power")
    assert np.all(core > 0)
    assert np.all(core <= soc + 1e-12)
    assert np.all(soc <= server + 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    bounds=st.tuples(
        st.floats(min_value=1.0, max_value=10.0),
        st.floats(min_value=1.0, max_value=10.0),
    )
)
def test_feasible_frequency_set_monotone_in_degradation_bound(bounds):
    """Relaxing the degradation bound can only grow the feasible set."""
    lo, hi = sorted(bounds)
    sweep = _virtualized_sweep()
    for _, rows in sweep.group_by("workload_name").items():
        degradation = rows.column("degradation")
        frequencies = rows.column("frequency_hz")
        feasible_lo = set(frequencies[degradation <= lo + 1e-9])
        feasible_hi = set(frequencies[degradation <= hi + 1e-9])
        assert feasible_lo <= feasible_hi
        # The floor is therefore non-increasing in the bound.
        floor_lo = rows.qos_floor(lo)
        floor_hi = rows.qos_floor(hi)
        if floor_lo is not None:
            assert floor_hi is not None and floor_hi <= floor_lo


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sampled_points_match_context_evaluation(data):
    """Sweep rows are exactly the per-point context evaluations."""
    sweep = _virtualized_sweep()
    index = data.draw(st.integers(min_value=0, max_value=len(sweep) - 1))
    record = sweep.record(index)
    spec = get_scenario("consolidation_oversubscribe")
    workload = spec.workloads()[record.workload_name]
    fresh = ScenarioRunner().resolve(spec)
    context_record = _CONTEXT_CACHE.setdefault(
        "context", _fresh_context(fresh)
    ).evaluate(workload, record.frequency_hz)
    assert context_record == record


_SWEEP_CACHE = {}
_CONTEXT_CACHE = {}


def _virtualized_sweep() -> SweepResult:
    # Hypothesis re-invokes the test many times; compute the sweep once.
    if "sweep" not in _SWEEP_CACHE:
        _SWEEP_CACHE["sweep"] = (
            ScenarioRunner().run("consolidation_oversubscribe").sweep
        )
    return _SWEEP_CACHE["sweep"]


def _fresh_context(spec):
    from repro.sweep.context import ModelContext

    return ModelContext(
        spec.configuration(), degradation_bound=spec.degradation_bound
    )
