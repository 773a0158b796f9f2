"""Tests for the queueing, tail-latency and degradation models."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.latency.degradation import BatchDegradationModel
from repro.latency.queueing import MG1Queue, MM1Queue, waiting_tail_log
from repro.latency.tail import TailLatencyModel
from repro.workloads.banking_vm import VMS_LOW_MEM
from repro.workloads.cloudsuite import DATA_SERVING, WEB_SEARCH


# -- queueing -----------------------------------------------------------------------


def test_mm1_utilization():
    queue = MM1Queue(arrival_rate=50.0, service_rate=100.0)
    assert queue.utilization == pytest.approx(0.5)


def test_mm1_mean_response_time():
    queue = MM1Queue(arrival_rate=50.0, service_rate=100.0)
    assert queue.mean_response_time == pytest.approx(1.0 / 50.0)


def test_mm1_unstable_rejected():
    with pytest.raises(ValueError, match="unstable"):
        MM1Queue(arrival_rate=100.0, service_rate=100.0)


def test_mm1_percentile_above_mean():
    queue = MM1Queue(arrival_rate=30.0, service_rate=100.0)
    assert queue.response_time_percentile(99.0) > queue.mean_response_time


def test_mm1_waiting_plus_service_equals_response():
    queue = MM1Queue(arrival_rate=40.0, service_rate=100.0)
    assert queue.mean_waiting_time + 1.0 / 100.0 == pytest.approx(
        queue.mean_response_time
    )


def test_mg1_matches_mm1_for_cv_one():
    mm1 = MM1Queue(arrival_rate=40.0, service_rate=100.0)
    mg1 = MG1Queue(arrival_rate=40.0, mean_service_time=0.01, service_time_cv=1.0)
    assert mg1.mean_waiting_time == pytest.approx(mm1.mean_waiting_time, rel=1e-9)


def test_mg1_higher_variance_means_longer_waits():
    low = MG1Queue(arrival_rate=40.0, mean_service_time=0.01, service_time_cv=0.5)
    high = MG1Queue(arrival_rate=40.0, mean_service_time=0.01, service_time_cv=2.0)
    assert high.mean_waiting_time > low.mean_waiting_time


def test_mg1_unstable_rejected():
    with pytest.raises(ValueError):
        MG1Queue(arrival_rate=200.0, mean_service_time=0.01)


def test_mg1_max_stable_arrival_rate():
    queue = MG1Queue(arrival_rate=10.0, mean_service_time=0.01)
    assert queue.max_stable_arrival_rate(0.05) == pytest.approx(95.0)


# -- M/G/1 two-moment (Marchal-style) tail correction -----------------------------------


def test_corrected_percentile_defaults_to_current_behaviour():
    queue = MG1Queue(arrival_rate=40.0, mean_service_time=0.01, service_time_cv=2.0)
    import math

    expected = -math.log(0.01) * queue.mean_response_time
    assert queue.response_time_percentile(99.0) == pytest.approx(expected)
    assert queue.response_time_percentile(
        99.0, corrected=False
    ) == pytest.approx(expected)


def test_corrected_percentile_approaches_exact_mm1_at_heavy_load():
    # For CV=1 the corrected approximation converges to the exact
    # M/M/1 percentile as rho -> 1.
    mm1 = MM1Queue(arrival_rate=95.0, service_rate=100.0)
    mg1 = MG1Queue(arrival_rate=95.0, mean_service_time=0.01, service_time_cv=1.0)
    exact = mm1.response_time_percentile(99.0)
    corrected = mg1.response_time_percentile(99.0, corrected=True)
    assert corrected == pytest.approx(exact, rel=2e-3)


def test_corrected_tail_is_heavier_for_high_cv_services():
    # The uncorrected tail only sees the CV through the P-K mean; the
    # corrected one scales the tail itself, so a bursty (CV=3) service
    # at heavy load gets a strictly heavier 99th percentile.
    queue = MG1Queue(arrival_rate=90.0, mean_service_time=0.01, service_time_cv=3.0)
    assert queue.response_time_percentile(
        99.0, corrected=True
    ) > queue.response_time_percentile(99.0)


def test_corrected_tail_is_lighter_for_smooth_light_load():
    # At low utilisation most requests never wait (the 1 - rho idle
    # atom), which the mean-fitted exponential cannot represent.
    queue = MG1Queue(arrival_rate=30.0, mean_service_time=0.01, service_time_cv=0.3)
    assert queue.response_time_percentile(
        99.0, corrected=True
    ) < queue.response_time_percentile(99.0)


def test_corrected_percentile_inside_idle_atom_is_pure_service():
    # rho = 0.2: more than 80% of requests find the server idle, so the
    # 50th percentile is a no-wait service time.
    queue = MG1Queue(arrival_rate=20.0, mean_service_time=0.01, service_time_cv=2.0)
    assert queue.response_time_percentile(
        50.0, corrected=True
    ) == pytest.approx(queue.mean_service_time)


def test_corrected_percentile_grows_with_cv_at_fixed_load():
    percentiles = [
        MG1Queue(
            arrival_rate=80.0, mean_service_time=0.01, service_time_cv=cv
        ).response_time_percentile(99.0, corrected=True)
        for cv in (0.5, 1.0, 2.0, 4.0)
    ]
    assert percentiles == sorted(percentiles)
    assert percentiles[-1] > 3.0 * percentiles[0]


def test_waiting_tail_log_of_a_float_equals_its_log_in_an_array():
    """The corrected tail's one log, applied by MG1Queue to a Python
    float and by the fleet tail kernel to an array of waiting ratios,
    gives each ratio the same bits either way, whichever SIMD path
    NumPy dispatches to on the running host."""
    rng = np.random.default_rng(30)
    # Waiting ratios rho / 0.01 lie in (1, 100]: uniform draws, draws
    # crowded just above 1, and both ends.
    ratios = np.concatenate(
        [
            rng.uniform(1.0, 100.0, size=100_000),
            1.0 + rng.uniform(0.0, 1e-3, size=20_000),
            [np.nextafter(1.0, 2.0), 100.0],
        ]
    )
    assert ratios.min() > 1.0 and ratios.max() <= 100.0
    scalar = [waiting_tail_log(ratio) for ratio in ratios.tolist()]
    assert np.array_equal(waiting_tail_log(ratios), np.array(scalar))
    queue = MG1Queue(arrival_rate=80.0, mean_service_time=0.01, service_time_cv=2.0)
    assert type(queue.response_time_percentile(99.0, corrected=True)) is float


@pytest.mark.parametrize("percentile", [0.0, 100.0, -5.0, 120.0])
def test_corrected_percentile_validates_range(percentile):
    queue = MG1Queue(arrival_rate=40.0, mean_service_time=0.01)
    with pytest.raises(ValueError, match="percentile"):
        queue.response_time_percentile(percentile, corrected=True)


# -- queueing edge coverage -------------------------------------------------------------


@pytest.mark.parametrize("margin", [-0.1, 1.0, 1.5])
def test_max_stable_arrival_rate_rejects_bad_margins(margin):
    queue = MG1Queue(arrival_rate=10.0, mean_service_time=0.01)
    with pytest.raises(ValueError, match="safety_margin"):
        queue.max_stable_arrival_rate(margin)


def test_max_stable_arrival_rate_margin_bounds():
    queue = MG1Queue(arrival_rate=10.0, mean_service_time=0.01)
    # Zero margin is the stability boundary itself ...
    assert queue.max_stable_arrival_rate(0.0) == pytest.approx(100.0)
    # ... and any positive margin admits a constructible stable queue.
    for margin in (0.01, 0.5, 0.99):
        rate = queue.max_stable_arrival_rate(margin)
        stable = MG1Queue(arrival_rate=rate, mean_service_time=0.01)
        assert stable.utilization == pytest.approx(1.0 - margin)
        assert stable.utilization < 1.0


def test_mm1_near_saturation_blows_up_monotonically():
    responses = [
        MM1Queue(arrival_rate=rho * 100.0, service_rate=100.0).mean_response_time
        for rho in (0.99, 0.999, 0.9999)
    ]
    assert responses == sorted(responses)
    # 1 / (mu - lambda): at rho = 0.9999 the mean response is 10^4
    # service times -- finite, but four orders above the unloaded value.
    assert responses[-1] == pytest.approx(100.0, rel=1e-6)
    percentile = MM1Queue(
        arrival_rate=99.99, service_rate=100.0
    ).response_time_percentile(99.0)
    assert percentile > responses[-1]


def test_mm1_rejects_saturation_exactly_at_capacity():
    with pytest.raises(ValueError, match="unstable"):
        MM1Queue(arrival_rate=100.0 + 1e-9, service_rate=100.0)


@given(st.floats(min_value=0.01, max_value=0.95))
def test_mm1_response_grows_with_utilization(rho):
    base = MM1Queue(arrival_rate=rho * 100.0, service_rate=100.0)
    higher = MM1Queue(arrival_rate=min(0.99, rho * 1.02) * 100.0, service_rate=100.0)
    assert higher.mean_response_time >= base.mean_response_time - 1e-12


# -- tail latency ----------------------------------------------------------------------


def test_latency_scales_inversely_with_throughput():
    model = TailLatencyModel(DATA_SERVING)
    nominal = model.latency(2.0e9, core_uips=1.0e9, core_uips_nominal=1.0e9)
    half = model.latency(1.0e9, core_uips=0.5e9, core_uips_nominal=1.0e9)
    assert half.latency_seconds == pytest.approx(2.0 * nominal.latency_seconds)


def test_latency_at_nominal_equals_baseline():
    model = TailLatencyModel(WEB_SEARCH)
    point = model.latency(2.0e9, core_uips=1.2e9, core_uips_nominal=1.2e9)
    assert point.latency_seconds == pytest.approx(
        WEB_SEARCH.minimum_latency_99th_seconds
    )
    assert point.meets_qos


def test_normalized_latency_uses_qos_limit():
    model = TailLatencyModel(DATA_SERVING)
    point = model.latency(2.0e9, core_uips=1.0e9, core_uips_nominal=1.0e9)
    assert point.normalized_to_qos == pytest.approx(
        DATA_SERVING.minimum_latency_99th_seconds / DATA_SERVING.qos_limit_seconds
    )


def test_qos_violation_detected_for_large_slowdown():
    model = TailLatencyModel(DATA_SERVING)
    slow = model.latency(0.1e9, core_uips=0.05e9, core_uips_nominal=1.0e9)
    assert not slow.meets_qos
    assert slow.normalized_to_qos > 1.0


def test_slowdown_budget_is_qos_headroom():
    model = TailLatencyModel(WEB_SEARCH)
    assert model.slowdown_budget() == pytest.approx(WEB_SEARCH.qos_headroom_at_nominal)


def test_tail_model_rejects_vm_workload():
    with pytest.raises(ValueError):
        TailLatencyModel(VMS_LOW_MEM)


# -- degradation ------------------------------------------------------------------------


def test_degradation_is_throughput_ratio():
    model = BatchDegradationModel(VMS_LOW_MEM)
    assert model.degradation(core_uips=0.5e9, core_uips_nominal=2.0e9) == pytest.approx(4.0)


def test_degradation_bounds_dictionary():
    bounds = BatchDegradationModel.bounds()
    assert bounds["strict"] == 2.0
    assert bounds["relaxed"] == 4.0


def test_meets_bound():
    model = BatchDegradationModel(VMS_LOW_MEM)
    assert model.meets_bound(1.0e9, 2.0e9, bound=2.0)
    assert not model.meets_bound(0.4e9, 2.0e9, bound=2.0)


def test_degradation_model_rejects_scale_out_workload():
    with pytest.raises(ValueError):
        BatchDegradationModel(DATA_SERVING)
