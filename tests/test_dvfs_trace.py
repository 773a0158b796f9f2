"""Tests for the load-trace abstraction and its generators."""

import dataclasses

import numpy as np
import pytest

from repro.dvfs import (
    LOAD_TRACES,
    GovernorSimulator,
    LoadTrace,
    load_trace_by_name,
)
from repro.fleet import Autoscaler, FleetSimulator
from repro.kernels import BatchReplayRunner, ReplaySpec
from repro.workloads.bitbrains import BitbrainsTraceModel
from repro.workloads.cloudsuite import WEB_SEARCH


# -- validation / failure modes --------------------------------------------------------


def test_empty_trace_is_rejected():
    with pytest.raises(ValueError, match="at least one step"):
        LoadTrace(name="empty", step_seconds=60.0, utilization=())


@pytest.mark.parametrize("duration", [0.0, -60.0, float("nan"), float("inf")])
def test_non_positive_or_non_finite_duration_is_rejected(duration):
    with pytest.raises(ValueError, match="step duration"):
        LoadTrace(name="bad", step_seconds=duration, utilization=(0.5,))


@pytest.mark.parametrize("duration", [True, "60", None])
def test_non_numeric_duration_is_rejected(duration):
    with pytest.raises(ValueError, match="trace 'bad': step duration must be a number"):
        LoadTrace(name="bad", step_seconds=duration, utilization=(0.5,))


def test_integer_duration_is_stored_as_float():
    trace = LoadTrace(name="int", step_seconds=60, utilization=(0.5,))
    assert type(trace.step_seconds) is float
    assert trace == LoadTrace(name="int", step_seconds=60.0, utilization=(0.5,))


def test_utilization_above_one_is_rejected():
    with pytest.raises(ValueError, match="exceeds 1"):
        LoadTrace(name="over", step_seconds=60.0, utilization=(0.5, 1.2))


@pytest.mark.parametrize("value", [-0.1, float("nan")])
def test_negative_or_nan_utilization_is_rejected(value):
    with pytest.raises(ValueError, match="finite and non-negative"):
        LoadTrace(name="bad", step_seconds=60.0, utilization=(value,))


def test_unknown_named_trace_lists_known_ones():
    with pytest.raises(ValueError, match="unknown load trace") as error:
        load_trace_by_name("tidal")
    for known in LOAD_TRACES:
        assert known in str(error.value)


# -- views ------------------------------------------------------------------------------


def test_trace_views():
    trace = LoadTrace(name="t", step_seconds=30.0, utilization=(0.2, 0.4, 0.9))
    assert len(trace) == trace.steps == 3
    assert trace.duration_seconds == 90.0
    assert list(trace.times()) == [0.0, 30.0, 60.0]
    assert trace.mean_utilization == pytest.approx(0.5)
    assert trace.peak_utilization == 0.9
    assert trace.head(2).utilization == (0.2, 0.4)
    summary = trace.summary()
    assert summary["steps"] == 3 and summary["duration_seconds"] == 90.0


def test_head_needs_at_least_one_step():
    trace = LoadTrace.constant(0.5, steps=4)
    with pytest.raises(ValueError):
        trace.head(0)


def test_permuted_reorders_steps_and_validates():
    trace = LoadTrace(name="t", step_seconds=10.0, utilization=(0.1, 0.2, 0.3))
    swapped = trace.permuted([2, 0, 1])
    assert swapped.utilization == (0.3, 0.1, 0.2)
    with pytest.raises(ValueError, match="permutation"):
        trace.permuted([0, 0, 1])


# -- composition ------------------------------------------------------------------------


def test_surge_step_multiplies_the_window():
    trace = LoadTrace(
        name="t", step_seconds=60.0, utilization=(0.1, 0.2, 0.3, 0.4)
    )
    surged = trace.with_surge(start=1, steps=2, factor=2.0)
    assert surged.name == "t+surge"
    assert surged.step_seconds == 60.0
    assert surged.utilization == (0.1, 0.4, 0.6, 0.4)


def test_surge_window_is_clamped_to_the_trace_bounds():
    trace = LoadTrace(name="t", step_seconds=60.0, utilization=(0.2, 0.2, 0.2))
    # A window starting before the trace and running past its end only
    # touches the steps that exist.
    surged = trace.with_surge(start=-2, steps=10, factor=2.0)
    assert surged.utilization == (0.4, 0.4, 0.4)
    # A window entirely beyond the end is a no-op.
    assert trace.with_surge(start=7, steps=3, factor=2.0).utilization == (
        trace.utilization
    )


def test_saturated_surge_clips_at_one():
    trace = LoadTrace(name="t", step_seconds=60.0, utilization=(0.6, 0.9))
    surged = trace.with_surge(start=0, steps=2, factor=3.0)
    assert surged.utilization == (1.0, 1.0)


def test_ramp_surge_builds_linearly_to_the_factor():
    trace = LoadTrace(
        name="t", step_seconds=60.0, utilization=(0.1, 0.1, 0.1, 0.1)
    )
    surged = trace.with_surge(start=0, steps=4, factor=3.0, shape="ramp")
    assert surged.utilization == pytest.approx((0.15, 0.2, 0.25, 0.3))


def test_surge_rejects_bad_parameters():
    trace = LoadTrace.constant(0.5, steps=4)
    with pytest.raises(ValueError, match="at least one step"):
        trace.with_surge(start=0, steps=0, factor=2.0)
    with pytest.raises(ValueError, match="positive and finite"):
        trace.with_surge(start=0, steps=2, factor=-1.0)
    with pytest.raises(ValueError, match="unknown surge shape"):
        trace.with_surge(start=0, steps=2, factor=2.0, shape="cliff")


def test_concat_appends_and_checks_resolution():
    left = LoadTrace(name="l", step_seconds=60.0, utilization=(0.1, 0.2))
    right = LoadTrace(name="r", step_seconds=60.0, utilization=(0.3,))
    joined = left.concat(right)
    assert joined.name == "l+r"
    assert joined.utilization == (0.1, 0.2, 0.3)
    mismatched = LoadTrace(name="m", step_seconds=30.0, utilization=(0.3,))
    with pytest.raises(ValueError, match="mismatched step_seconds"):
        left.concat(mismatched)


def test_scale_multiplies_and_clips():
    trace = LoadTrace(name="t", step_seconds=60.0, utilization=(0.3, 0.8))
    scaled = trace.scale(1.5)
    assert scaled.name == "tx1.5"
    assert scaled.utilization == pytest.approx((0.45, 1.0))
    with pytest.raises(ValueError, match="positive and finite"):
        trace.scale(0.0)


def test_composed_traces_are_deterministic_in_the_seed():
    def build(seed):
        return (
            LoadTrace.diurnal(seed=seed)
            .with_surge(start=10, steps=6, factor=2.0, shape="ramp")
            .concat(LoadTrace.diurnal(seed=seed).scale(1.3))
        )

    assert build(7) == build(7)
    assert build(7) != build(8)


def test_bitbrains_all_idle_population_raises_a_precise_error():
    class AllIdleModel:
        def cpu_utilization(self):
            return np.zeros(16)

    with pytest.raises(ValueError, match="all-idle"):
        LoadTrace.from_bitbrains(steps=4, model=AllIdleModel(), seed=1)


# -- generators -------------------------------------------------------------------------


def test_constant_trace_is_flat():
    trace = LoadTrace.constant(0.6, steps=10, step_seconds=5.0)
    assert trace.utilization == (0.6,) * 10


@pytest.mark.parametrize("name", sorted(LOAD_TRACES))
def test_named_generators_produce_valid_traces(name):
    trace = load_trace_by_name(name)
    assert len(trace) >= 1
    assert all(0.0 <= value <= 1.0 for value in trace.utilization)


@pytest.mark.parametrize(
    "factory",
    [LoadTrace.diurnal, LoadTrace.bursty, LoadTrace.from_bitbrains],
    ids=["diurnal", "bursty", "bitbrains"],
)
def test_generators_are_deterministic_in_the_seed(factory):
    """Same seed -> identical trace; different seed -> different trace."""
    assert factory(seed=7) == factory(seed=7)
    assert factory(seed=7) != factory(seed=8)


def test_diurnal_shape_peaks_mid_trace():
    trace = LoadTrace.diurnal(noise=0.0)
    values = np.array(trace.utilization)
    mid = len(values) // 2
    assert values[mid] > values[0]
    assert values.max() <= 0.9 + 1e-9
    assert values.min() >= 0.15 - 1e-9


def test_bursty_visits_both_states():
    trace = LoadTrace.bursty(steps=300, noise=0.0, seed=3)
    values = set(trace.utilization)
    assert values == {0.2, 0.95}


def test_bitbrains_trace_follows_population_seed():
    model = BitbrainsTraceModel(vm_count=200, seed=11)
    left = LoadTrace.from_bitbrains(steps=24, model=model, seed=5)
    right = LoadTrace.from_bitbrains(steps=24, model=model, seed=5)
    assert left == right
    other_population = LoadTrace.from_bitbrains(
        steps=24, model=BitbrainsTraceModel(vm_count=200, seed=12), seed=5
    )
    assert left != other_population


# -- the cached utilisation array --------------------------------------------------------


def test_utilization_array_is_one_read_only_float64_copy():
    trace = LoadTrace(name="t", step_seconds=60, utilization=(0.25, 1, 0.5))
    array = trace.utilization_array
    assert array.dtype == np.float64
    assert array.tolist() == [0.25, 1.0, 0.5]
    assert not array.flags.writeable
    assert trace.utilization_array is array
    with pytest.raises(ValueError):
        array[0] = 0.0


def test_utilization_array_leaves_value_semantics_unchanged():
    read = LoadTrace.bursty(steps=30, seed=4)
    fresh = LoadTrace.bursty(steps=30, seed=4)
    text, digest = repr(read), hash(read)
    assert read.utilization_array.size == 30
    assert read == fresh
    assert hash(read) == hash(fresh) == digest
    assert repr(read) == repr(fresh) == text
    assert "utilization_array" not in {
        field.name for field in dataclasses.fields(LoadTrace)
    }
    replaced = dataclasses.replace(read, name="renamed")
    assert replaced == dataclasses.replace(fresh, name="renamed")
    assert replaced.utilization_array is not read.utilization_array


def test_no_result_column_aliases_the_cached_array(default_context):
    trace = LoadTrace.bursty(steps=24, seed=9)
    cached = trace.utilization_array
    single = GovernorSimulator(default_context, WEB_SEARCH)
    fleet = FleetSimulator(
        default_context, WEB_SEARCH, fleet_size=3, autoscaler=Autoscaler()
    )
    batch = BatchReplayRunner(default_context).run(
        [
            ReplaySpec(workload=WEB_SEARCH, trace=trace),
            ReplaySpec(
                workload=WEB_SEARCH, trace=trace, fleet_size=2, routing="pack"
            ),
            ReplaySpec(
                workload=WEB_SEARCH, trace=trace, fleet_size=3, routing="pack"
            ),
        ]
    )
    results = [
        single.replay(trace, "ondemand"),
        single.replay(trace, "ondemand", reference=True),
        fleet.run(trace, "spread"),
        fleet.run(trace, "spread", reference=True),
        *batch.results(),
    ]
    for result in results:
        column = result.column("utilization")
        assert column.tolist() == list(trace.utilization)
        assert not np.shares_memory(column, cached), type(result).__name__
