"""The one summary reduction per result kind, on hand-built columns.

:func:`repro.fleet.result.fleet_summaries` and
:func:`repro.dvfs.replay.replay_summaries` are the only arithmetic
behind every replay summary key: the result objects call them on one
row, the batch engine once per trace-length group.  These tests pin
every key on columns whose values are exactly representable, so the
expected numbers are written out rather than recomputed, and cover
each ``None`` branch:

* no request size (``instructions_per_request == 0``);
* no loaded step (every tail NaN, so ``max_tail_latency_s is None``);
* an all-saturated step (an infinite tail);
* zero offered load (``served_fraction == 1.0``);
* a one-step row (``distinct_frequencies == 1``).

A ragged stack -- rows zero-padded to the longest -- reduced through
the batch engine's per-length grouping equals one call per row.
"""

import numpy as np

from repro.dvfs.replay import (
    REPLAY_SUMMARY_COLUMNS,
    replay_summaries,
    row_means,
)
from repro.fleet.result import FLEET_SUMMARY_COLUMNS, fleet_summaries
from repro.kernels.batch import _summaries_by_length

NAN = np.nan
INF = np.inf

# Three fleet replays padded to four steps: a busy row, a one-step
# row and an idle row (no offered load, so no loaded step).
FLEET_LENGTHS = np.array([4, 1, 4])
FLEET_PADDED = {
    "energy_j": np.array(
        [[1.0, 2.0, 3.0, 2.0], [6.0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]]
    ),
    "total_power_w": np.array(
        [[0.5, 1.0, 1.5, 1.0], [3.0, 0, 0, 0], [0.25, 0.25, 0.25, 0.25]]
    ),
    "active_servers": np.array([[2, 2, 3, 1], [4, 0, 0, 0], [1, 1, 1, 1]]),
    "serving_servers": np.array([[1, 2, 3, 2], [4, 0, 0, 0], [1, 1, 1, 1]]),
    "used_servers": np.array([[1, 1, 2, 0], [3, 0, 0, 0], [0, 0, 0, 0]]),
    "wake_events": np.array([[0, 1, 1, 0], [2, 0, 0, 0], [0, 0, 0, 0]]),
    "served_uips": np.array(
        [[1e9, 2e9, 1e9, 0.0], [3e9, 0, 0, 0], [0.0, 0.0, 0.0, 0.0]]
    ),
    "offered_uips": np.array(
        [[1e9, 2e9, 2e9, 0.0], [4e9, 0, 0, 0], [0.0, 0.0, 0.0, 0.0]]
    ),
    "violation": np.array(
        [
            [False, True, False, False],
            [True, False, False, False],
            [False, False, False, False],
        ]
    ),
    "queue_ok": np.array(
        [
            [True, True, False, True],
            [False, True, True, True],
            [True, True, True, True],
        ]
    ),
    "tail_latency_s": np.array(
        [[0.5, NAN, INF, 0.25], [INF, 0, 0, 0], [NAN, NAN, NAN, NAN]]
    ),
}
FLEET_TRACES = ["busy", "single", "idle"]
FLEET_LABELS = {
    "routing": "pack",
    "governor": "qos_tracker",
    "workload": "Web Search",
    "fleet_size": 4,
    "autoscaled": True,
    "instructions_per_request": 1.0e6,
}
# The label keys lead every summary, in the order the goldens pin.
FLEET_HEADS = [
    {
        "routing": "pack",
        "governor": "qos_tracker",
        "workload": "Web Search",
        "trace": name,
        "fleet_size": 4,
        "autoscaled": True,
    }
    for name in FLEET_TRACES
]
FLEET_EXPECTED = [
    {
        **FLEET_HEADS[0],
        "steps": 4,
        "step_seconds": 2.0,
        "total_energy_j": 8.0,
        "mean_power_w": 1.0,
        "mean_active_servers": 2.0,
        "mean_serving_servers": 2.0,
        "mean_used_servers": 1.0,
        "peak_serving_servers": 3,
        "wake_count": 2,
        "served_fraction": 0.8,
        "total_giga_instructions": 8.0,
        "energy_per_giga_instruction_j": 1.0,
        "total_requests": 8000.0,
        "mean_qps": 1000.0,
        "energy_per_request_j": 0.001,
        "violation_count": 1,
        "violation_fraction": 0.25,
        "queue_violation_count": 1,
        "saturated_step_count": 1,
        "max_tail_latency_s": 0.5,
    },
    {
        # One step, saturated: the infinite tail is counted, never the max.
        **FLEET_HEADS[1],
        "steps": 1,
        "step_seconds": 4.0,
        "total_energy_j": 6.0,
        "mean_power_w": 3.0,
        "mean_active_servers": 4.0,
        "mean_serving_servers": 4.0,
        "mean_used_servers": 3.0,
        "peak_serving_servers": 4,
        "wake_count": 2,
        "served_fraction": 0.75,
        "total_giga_instructions": 12.0,
        "energy_per_giga_instruction_j": 0.5,
        "total_requests": 12000.0,
        "mean_qps": 3000.0,
        "energy_per_request_j": 0.0005,
        "violation_count": 1,
        "violation_fraction": 1.0,
        "queue_violation_count": 1,
        "saturated_step_count": 1,
        "max_tail_latency_s": None,
    },
    {
        # Nothing offered, nothing served, no loaded node.
        **FLEET_HEADS[2],
        "steps": 4,
        "step_seconds": 1.0,
        "total_energy_j": 2.0,
        "mean_power_w": 0.25,
        "mean_active_servers": 1.0,
        "mean_serving_servers": 1.0,
        "mean_used_servers": 0.0,
        "peak_serving_servers": 1,
        "wake_count": 0,
        "served_fraction": 1.0,
        "total_giga_instructions": 0.0,
        "energy_per_giga_instruction_j": None,
        "total_requests": 0.0,
        "mean_qps": 0.0,
        "energy_per_request_j": None,
        "violation_count": 0,
        "violation_fraction": 0.0,
        "queue_violation_count": 0,
        "saturated_step_count": 0,
        "max_tail_latency_s": None,
    },
]
FLEET_STEP_SECONDS = [2.0, 4.0, 1.0]


def _row(padded, lengths, row):
    """One row's exact-length ``(1, L)`` blocks."""
    return {
        name: column[row : row + 1, : lengths[row]]
        for name, column in padded.items()
    }


def _assert_identical(actual, expected):
    """Same keys in the same order, same values and same types."""
    assert list(actual) == list(expected)
    for key, value in expected.items():
        assert actual[key] == value, key
        assert type(actual[key]) is type(value), key


def test_fleet_summaries_explicit_values():
    for row, expected in enumerate(FLEET_EXPECTED):
        (summary,) = fleet_summaries(
            _row(FLEET_PADDED, FLEET_LENGTHS, row),
            [FLEET_TRACES[row]],
            [FLEET_STEP_SECONDS[row]],
            **FLEET_LABELS,
        )
        _assert_identical(summary, expected)


def test_fleet_summaries_without_request_size():
    (summary,) = fleet_summaries(
        _row(FLEET_PADDED, FLEET_LENGTHS, 0),
        ["busy"],
        [2.0],
        **{**FLEET_LABELS, "instructions_per_request": 0.0},
    )
    assert summary["total_requests"] is None
    assert summary["mean_qps"] is None
    assert summary["energy_per_request_j"] is None
    assert summary["energy_per_giga_instruction_j"] == 1.0


def test_fleet_summaries_multi_row_and_ragged_calls_equal_per_row_calls():
    whole = {name: column[[0, 2]] for name, column in FLEET_PADDED.items()}
    stacked = fleet_summaries(
        whole, ["busy", "idle"], [2.0, 1.0], **FLEET_LABELS
    )
    assert stacked == [FLEET_EXPECTED[0], FLEET_EXPECTED[2]]
    ragged = _summaries_by_length(
        fleet_summaries,
        FLEET_SUMMARY_COLUMNS,
        FLEET_PADDED,
        FLEET_LENGTHS,
        FLEET_TRACES,
        FLEET_STEP_SECONDS,
        **FLEET_LABELS,
    )
    for row, summary in enumerate(ragged):
        _assert_identical(summary, FLEET_EXPECTED[row])


# Two governor replays padded to four steps: a busy row and a one-step
# row that served nothing.
REPLAY_LENGTHS = np.array([4, 1])
REPLAY_PADDED = {
    "energy_j": np.array([[1.0, 2.0, 3.0, 2.0], [3.0, 0, 0, 0]]),
    "power_w": np.array([[0.5, 1.0, 1.5, 1.0], [1.5, 0, 0, 0]]),
    "frequency_hz": np.array([[1e9, 2e9, 1e9, 5e8], [1e9, 0, 0, 0]]),
    "served_uips": np.array([[1e9, 2e9, 1e9, 0.0], [0.0, 0, 0, 0]]),
    "violation": np.array(
        [[False, True, False, False], [True, False, False, False]]
    ),
}
REPLAY_TRACES = ["busy", "single"]
REPLAY_LABELS = {
    "governor": "ondemand",
    "workload": "Web Search",
    "instructions_per_request": 1.0e6,
}
REPLAY_HEADS = [
    {"governor": "ondemand", "workload": "Web Search", "trace": name}
    for name in REPLAY_TRACES
]
REPLAY_EXPECTED = [
    {
        **REPLAY_HEADS[0],
        "steps": 4,
        "step_seconds": 2.0,
        "total_energy_j": 8.0,
        "mean_power_w": 1.0,
        "mean_frequency_hz": 1.125e9,
        "distinct_frequencies": 3,
        "total_giga_instructions": 8.0,
        "energy_per_giga_instruction_j": 1.0,
        "total_requests": 8000.0,
        "energy_per_request_j": 0.001,
        "violation_count": 1,
        "violation_fraction": 0.25,
    },
    {
        **REPLAY_HEADS[1],
        "steps": 1,
        "step_seconds": 2.0,
        "total_energy_j": 3.0,
        "mean_power_w": 1.5,
        "mean_frequency_hz": 1e9,
        "distinct_frequencies": 1,
        "total_giga_instructions": 0.0,
        "energy_per_giga_instruction_j": None,
        "total_requests": 0.0,
        "energy_per_request_j": None,
        "violation_count": 1,
        "violation_fraction": 1.0,
    },
]


def test_replay_summaries_explicit_values():
    for row, expected in enumerate(REPLAY_EXPECTED):
        (summary,) = replay_summaries(
            _row(REPLAY_PADDED, REPLAY_LENGTHS, row),
            [REPLAY_TRACES[row]],
            [2.0],
            **REPLAY_LABELS,
        )
        _assert_identical(summary, expected)


def test_replay_summaries_without_request_size():
    (summary,) = replay_summaries(
        _row(REPLAY_PADDED, REPLAY_LENGTHS, 0),
        ["busy"],
        [2.0],
        **{**REPLAY_LABELS, "instructions_per_request": 0},
    )
    assert summary["total_requests"] is None
    assert summary["energy_per_request_j"] is None
    assert summary["energy_per_giga_instruction_j"] == 1.0


def test_replay_summaries_ragged_call_equals_per_row_calls():
    ragged = _summaries_by_length(
        replay_summaries,
        REPLAY_SUMMARY_COLUMNS,
        REPLAY_PADDED,
        REPLAY_LENGTHS,
        REPLAY_TRACES,
        [2.0, 2.0],
        **REPLAY_LABELS,
    )
    for row, summary in enumerate(ragged):
        _assert_identical(summary, REPLAY_EXPECTED[row])


def test_row_means_equal_ndarray_mean_byte_for_byte():
    """The means helper is ``ndarray.mean(axis=1)`` minus its wrapper."""
    rng = np.random.default_rng(5)
    blocks = [
        rng.uniform(0.0, 300.0, size=(3, 288)),
        rng.uniform(-1.0, 1.0, size=(2, 1)),  # one-step rows
        rng.integers(0, 9, size=(4, 2016)),
        rng.integers(0, 9, size=(1, 1)),
        rng.random(size=(3, 48)) < 0.3,
        np.array([[True], [False]]),
    ]
    for block in blocks:
        means = row_means(block)
        assert means.dtype == np.float64, block.dtype
        assert means.tobytes() == block.mean(axis=1).tobytes(), block.dtype
