"""Tests for the governor simulator and its columnar replay tables."""

import numpy as np
import pytest

from repro.core.config import default_server
from repro.dvfs import (
    GOVERNORS,
    MEMORYLESS_GOVERNORS,
    REPLAY_COLUMNS,
    GovernorSimulator,
    LoadTrace,
)
from repro.dvfs.replay import ReplayResult
from repro.sweep.context import ModelContext
from repro.workloads.banking_vm import VMS_HIGH_MEM
from repro.workloads.cloudsuite import WEB_SEARCH


def assert_replays_identical(left, right) -> None:
    assert len(left) == len(right)
    for name in REPLAY_COLUMNS:
        assert np.array_equal(
            left.column(name), right.column(name), equal_nan=True
        ), f"column {name} differs"


# -- table mechanics --------------------------------------------------------------------


def test_replay_table_shape_and_columns(websearch_simulator, diurnal_trace):
    replay = websearch_simulator.replay(diurnal_trace, "qos_tracker")
    assert len(replay) == len(diurnal_trace)
    assert replay.governor_name == "qos_tracker"
    assert replay.workload_name == "Web Search"
    assert replay.trace_name == "diurnal"
    columns = replay.to_columns()
    assert tuple(columns) == REPLAY_COLUMNS
    assert columns["step"] == list(range(len(diurnal_trace)))
    # Each column holds the plain Python values of its array, in step
    # order (what the per-element float()/int()/bool() casts gave).
    for name, values in columns.items():
        array = replay.column(name)
        assert values == [array[index].item() for index in range(len(replay))]
        kind = {"i": int, "f": float, "b": bool}[array.dtype.kind]
        assert all(type(value) is kind for value in values), name
    # An undefined QoS metric serialises as None (strict JSON).
    arrays = {name: replay.column(name).copy() for name in REPLAY_COLUMNS}
    arrays["qos_metric"][1] = np.nan
    undefined = ReplayResult(
        governor_name="qos_tracker",
        workload_name="Web Search",
        trace_name="diurnal",
        step_seconds=diurnal_trace.step_seconds,
        instructions_per_request=WEB_SEARCH.instructions_per_request,
        columns=arrays,
    ).to_columns()
    assert undefined["qos_metric"][1] is None
    assert undefined["qos_metric"][0] == columns["qos_metric"][0]
    # Energy is power x step duration, row by row.
    assert np.allclose(
        replay.column("energy_j"),
        replay.column("power_w") * diurnal_trace.step_seconds,
    )
    # Served work never exceeds demand or capacity.
    assert np.all(
        replay.column("served_uips") <= replay.column("demand_uips") + 1e-9
    )
    assert np.all(
        replay.column("served_uips") <= replay.column("capacity_uips") + 1e-9
    )


def test_replay_column_access_errors(websearch_simulator, diurnal_trace):
    replay = websearch_simulator.replay(diurnal_trace, "performance")
    with pytest.raises(KeyError, match="unknown replay column"):
        replay.column("wattage")


def test_replay_result_rejects_malformed_columns():
    with pytest.raises(ValueError, match="missing replay columns"):
        ReplayResult(
            governor_name="g",
            workload_name="w",
            trace_name="t",
            step_seconds=1.0,
            instructions_per_request=0.0,
            columns={},
        )
    good = {name: np.zeros(2) for name in REPLAY_COLUMNS}
    good["frequency_hz"] = np.zeros(3)  # unequal length
    with pytest.raises(ValueError, match="unequal lengths"):
        ReplayResult(
            governor_name="g",
            workload_name="w",
            trace_name="t",
            step_seconds=1.0,
            instructions_per_request=0.0,
            columns=good,
        )


def test_residency_and_summary(websearch_simulator, diurnal_trace):
    replay = websearch_simulator.replay(diurnal_trace, "performance")
    residency = replay.residency()
    assert residency == {max(websearch_simulator.platform.frequencies): 1.0}
    summary = replay.summary()
    assert summary["governor"] == "performance"
    assert summary["steps"] == len(diurnal_trace)
    assert summary["violation_count"] == 0
    assert summary["total_energy_j"] == pytest.approx(replay.total_energy_j)
    # Web Search has a request size, so per-request energy is defined.
    assert summary["energy_per_request_j"] > 0


def test_vm_replay_has_no_request_metric(vm_simulator, diurnal_trace):
    replay = vm_simulator.replay(diurnal_trace, "qos_tracker")
    assert replay.total_requests is None
    assert replay.energy_per_request_j is None
    assert replay.energy_per_giga_instruction_j > 0


def test_zero_load_trace_serves_no_work(websearch_simulator):
    idle = LoadTrace.constant(0.0, steps=4, name="idle")
    replay = websearch_simulator.replay(idle, "powersave")
    assert replay.total_giga_instructions == 0.0
    assert replay.energy_per_giga_instruction_j is None
    assert replay.energy_per_request_j is None
    assert replay.total_energy_j > 0  # the server still burns power


# -- simulator behaviour ----------------------------------------------------------------


def test_unknown_governor_name_raises(websearch_simulator, diurnal_trace):
    with pytest.raises(ValueError, match="unknown governor"):
        websearch_simulator.replay(diurnal_trace, "schedutil")


def test_record_requires_grid_frequency(websearch_simulator):
    with pytest.raises(ValueError, match="not on the replay grid"):
        websearch_simulator.record(123.0)


def test_unreachable_grid_is_rejected():
    """A grid beyond the technology's reach cannot be replayed."""
    context = ModelContext(default_server())
    simulator = GovernorSimulator(
        context, WEB_SEARCH, frequencies=(100e9,)  # 100GHz: no vdd reaches it
    )
    with pytest.raises(ValueError, match="no reachable frequency"):
        simulator.platform


def test_compare_runs_all_registered_governors(
    websearch_simulator, bursty_trace
):
    replays = websearch_simulator.compare(bursty_trace)
    assert list(replays) == list(GOVERNORS)
    for replay in replays.values():
        assert len(replay) == len(bursty_trace)


def test_compare_rejects_duplicate_governors(websearch_simulator, bursty_trace):
    with pytest.raises(ValueError, match="duplicate governor"):
        websearch_simulator.compare(
            bursty_trace, ["performance", "performance"]
        )


def test_platform_is_shared_with_the_context(default_context):
    """Replay evaluations reuse the context's memoized design points."""
    simulator = GovernorSimulator(default_context, WEB_SEARCH)
    before = default_context.evaluated_points
    simulator.platform  # builds once, evaluating each grid frequency
    between = default_context.evaluated_points
    simulator.replay(LoadTrace.diurnal(), "ondemand")
    after = default_context.evaluated_points
    assert between >= before
    assert after == between  # replays add no new evaluations


# -- determinism (seeding audit regression) --------------------------------------------


def test_replay_tables_identical_across_runs_with_same_seed():
    """The whole path trace -> governor -> table is bit-reproducible."""

    def build():
        context = ModelContext(default_server())
        simulator = GovernorSimulator(context, WEB_SEARCH)
        trace = LoadTrace.diurnal(seed=99)
        return {
            name: simulator.replay(trace, name) for name in GOVERNORS
        }

    first, second = build(), build()
    for name in GOVERNORS:
        assert_replays_identical(first[name], second[name])
        assert first[name].summary() == second[name].summary()


def test_constant_load_replay_matches_single_point_evaluation(
    websearch_simulator, default_context
):
    """At constant load every memoryless governor collapses to one point.

    (``conservative`` ramps through a transient first; its per-step
    point-equivalence is covered by the property tests.)
    """
    trace = LoadTrace.constant(0.45, steps=6, step_seconds=120.0)
    for name in MEMORYLESS_GOVERNORS:
        replay = websearch_simulator.replay(trace, name)
        frequencies = set(replay.column("frequency_hz"))
        assert len(frequencies) == 1, f"{name} moved at constant load"
        frequency = frequencies.pop()
        record = default_context.evaluate(WEB_SEARCH, frequency)
        assert np.all(replay.column("power_w") == record.server_power)
        assert np.all(replay.column("capacity_uips") == record.chip_uips)
        assert replay.total_energy_j == pytest.approx(
            record.server_power * trace.duration_seconds
        )


# -- the long Bitbrains replay ----------------------------------------------------------


def test_week_long_bitbrains_replay_is_deterministic_and_bounded():
    """A full week of 300-second Bitbrains steps, all five governors.

    Tier-1 since the kernel path landed: the vectorized replay makes
    2016-step weeks cheap enough to run on every push (the object-based
    reference variant below stays behind ``--runslow``).
    """
    context = ModelContext(default_server(), degradation_bound=4.0)
    simulator = GovernorSimulator(context, VMS_HIGH_MEM)
    trace = LoadTrace.from_bitbrains(steps=2016, seed=77)

    replays = simulator.compare(trace)
    rerun = GovernorSimulator(
        ModelContext(default_server(), degradation_bound=4.0), VMS_HIGH_MEM
    ).compare(LoadTrace.from_bitbrains(steps=2016, seed=77))
    for name in GOVERNORS:
        assert_replays_identical(replays[name], rerun[name])

    performance = replays["performance"]
    for name, replay in replays.items():
        assert replay.total_energy_j <= performance.total_energy_j + 1e-6, name
    tracker = replays["qos_tracker"]
    assert tracker.violation_count == 0
    assert tracker.total_energy_j < performance.total_energy_j
    degradation = tracker.column("qos_metric")
    assert np.all(degradation <= 4.0 + 1e-9)


@pytest.mark.slow
def test_week_long_bitbrains_replay_reference_path_matches_kernels():
    """The object-based step loop reproduces the kernel week bit for bit."""
    context = ModelContext(default_server(), degradation_bound=4.0)
    simulator = GovernorSimulator(context, VMS_HIGH_MEM)
    trace = LoadTrace.from_bitbrains(steps=2016, seed=77)
    kernel = simulator.compare(trace)
    reference = simulator.compare(trace, reference=True)
    for name in GOVERNORS:
        assert_replays_identical(kernel[name], reference[name])
