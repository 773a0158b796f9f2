"""Property-based tests of cross-model invariants.

These check the physical invariants the study relies on, over randomly
drawn operating points and workload characteristics, with hypothesis.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import default_server
from repro.core.performance import ServerPerformanceModel
from repro.sweep.context import ModelContext
from repro.technology.a57_model import CortexA57PowerModel
from repro.technology.process import FDSOI_28NM
from repro.uarch.core_model import IntervalCoreModel
from repro.workloads.base import WorkloadCharacteristics, WorkloadClass


frequencies = st.floats(min_value=1.5e8, max_value=2.0e9)


def _workload(base_cpi, l1_mpki, llc_fraction, mlp, activity):
    return WorkloadCharacteristics(
        name="random-workload",
        workload_class=WorkloadClass.VIRTUALIZED,
        base_cpi=base_cpi,
        branch_fraction=0.15,
        branch_predictability=0.9,
        l1_mpki=l1_mpki,
        llc_mpki=l1_mpki * llc_fraction,
        memory_level_parallelism=mlp,
        activity_factor=activity,
        write_fraction=0.3,
    )


workloads = st.builds(
    _workload,
    base_cpi=st.floats(min_value=0.4, max_value=1.5),
    l1_mpki=st.floats(min_value=1.0, max_value=60.0),
    llc_fraction=st.floats(min_value=0.05, max_value=1.0),
    mlp=st.floats(min_value=1.0, max_value=6.0),
    activity=st.floats(min_value=0.3, max_value=1.0),
)


@settings(max_examples=25, deadline=None)
@given(frequency=frequencies)
def test_core_power_components_non_negative(frequency):
    model = CortexA57PowerModel(technology=FDSOI_28NM)
    point = model.operating_point(frequency)
    assert point.dynamic_power >= 0.0
    assert point.leakage_power > 0.0
    assert point.vdd >= FDSOI_28NM.min_functional_vdd - 1e-9
    assert point.vdd <= FDSOI_28NM.nominal_vdd + 1e-9


@settings(max_examples=25, deadline=None)
@given(workload=workloads, frequency=frequencies)
def test_uips_never_exceeds_issue_width_times_frequency(workload, frequency):
    model = IntervalCoreModel()
    stack = model.cpi_stack(
        frequency,
        base_cpi=workload.base_cpi,
        branch_fraction=workload.branch_fraction,
        branch_predictability=workload.branch_predictability,
        l1_mpki=workload.l1_mpki,
        llc_mpki=workload.llc_mpki,
        memory_level_parallelism=workload.memory_level_parallelism,
    )
    assert 0.0 < stack.uipc <= model.config.issue_width
    assert stack.total >= workload.base_cpi


@settings(max_examples=20, deadline=None)
@given(workload=workloads, frequency=frequencies)
@example(
    # Regression: a memory-hungry workload whose DRAM demand exceeded the
    # 102.4GB/s channel peak made the server-power scope raise instead of
    # saturating the bandwidth (hypothesis-discovered seed failure).
    workload=_workload(
        base_cpi=0.400390625,
        l1_mpki=42.0,
        llc_fraction=1.0,
        mlp=6.0,
        activity=1.0,
    ),
    frequency=913990701.0,
)
def test_scope_power_ordering_holds_for_random_workloads(workload, frequency):
    record = ModelContext(default_server()).evaluate(workload, frequency)
    assert 0.0 < record.core_power < record.soc_power < record.server_power


@settings(max_examples=20, deadline=None)
@given(workload=workloads)
def test_throughput_ratio_to_nominal_at_least_frequency_ratio_inverse(workload):
    """Memory latency hiding means slowdown <= frequency ratio."""
    performance = ServerPerformanceModel(default_server())
    slow = 0.25e9
    ratio = performance.throughput_ratio_to_nominal(workload, slow)
    frequency_ratio = default_server().nominal_frequency_hz / slow
    assert 1.0 <= ratio <= frequency_ratio + 1e-9


@settings(max_examples=20, deadline=None)
@given(workload=workloads, frequency=frequencies)
def test_memory_bandwidth_consistent_with_uips(workload, frequency):
    performance = ServerPerformanceModel(default_server())
    point = performance.performance(workload, frequency)
    read_bandwidth = performance.memory_read_bandwidth(workload, frequency)
    expected = workload.llc_mpki / 1000.0 * point.chip_uips * 64
    # The DDR channels saturate: demand beyond the aggregate peak is
    # capped with the read/write mix preserved.
    peak = default_server().memory_organization.peak_bandwidth
    demand = expected * (1.0 + workload.write_fraction)
    if demand > peak:
        expected *= peak / demand
    assert read_bandwidth == pytest.approx(expected)
    write_bandwidth = performance.memory_write_bandwidth(workload, frequency)
    assert read_bandwidth + write_bandwidth <= peak * (1.0 + 1e-9)
