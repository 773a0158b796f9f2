"""Tests for workload characterisations, generators and trace synthesis."""

import dataclasses

import numpy as np
import pytest

from repro.utils.units import MB
from repro.workloads.banking_vm import (
    BankingVmGenerator,
    DEGRADATION_LIMIT_RELAXED,
    DEGRADATION_LIMIT_STRICT,
    VMS_HIGH_MEM,
    VMS_LOW_MEM,
    virtualized_workloads,
)
from repro.workloads.base import WorkloadCharacteristics, WorkloadClass
from repro.workloads.bitbrains import BitbrainsTraceModel
from repro.workloads.cloudsuite import (
    DATA_SERVING,
    MEDIA_STREAMING,
    WEB_SEARCH,
    WEB_SERVING,
    qos_limits_ms,
    scale_out_workloads,
)
from repro.workloads.request_model import RequestServiceModel
from repro.workloads.trace_gen import SyntheticTraceGenerator


# -- characteristics ---------------------------------------------------------------


def test_four_scale_out_workloads():
    assert len(scale_out_workloads()) == 4


def test_qos_limits_match_paper():
    limits = qos_limits_ms()
    assert limits["Data Serving"] == pytest.approx(20.0)
    assert limits["Web Search"] == pytest.approx(200.0)
    assert limits["Web Serving"] == pytest.approx(200.0)
    assert limits["Media Streaming"] == pytest.approx(100.0)


def test_scale_out_baseline_latency_below_qos():
    for workload in scale_out_workloads().values():
        assert workload.minimum_latency_99th_seconds < workload.qos_limit_seconds
        assert workload.qos_headroom_at_nominal > 1.0


def test_vm_memory_provisioning_matches_paper():
    assert VMS_LOW_MEM.memory_footprint_bytes == 100 * MB
    assert VMS_HIGH_MEM.memory_footprint_bytes == 700 * MB


def test_vm_classes_are_virtualized():
    for workload in virtualized_workloads().values():
        assert workload.is_virtualized
        assert not workload.is_scale_out


def test_degradation_limits():
    assert DEGRADATION_LIMIT_STRICT == 2.0
    assert DEGRADATION_LIMIT_RELAXED == 4.0


def test_data_serving_most_memory_bound():
    assert DATA_SERVING.llc_mpki >= max(
        WEB_SEARCH.llc_mpki, WEB_SERVING.llc_mpki
    )


def test_media_streaming_has_highest_mlp():
    others = (DATA_SERVING, WEB_SEARCH, WEB_SERVING)
    assert MEDIA_STREAMING.memory_level_parallelism > max(
        workload.memory_level_parallelism for workload in others
    )


def test_off_chip_bytes_per_instruction_includes_writebacks():
    value = DATA_SERVING.off_chip_bytes_per_instruction()
    expected = (12.0 / 1000.0) * (1.0 + 0.30) * 64
    assert value == pytest.approx(expected)


def test_scaled_intensity_preserves_ratio():
    scaled = WEB_SEARCH.scaled_intensity(2.0)
    assert scaled.l1_mpki == pytest.approx(2 * WEB_SEARCH.l1_mpki)
    assert scaled.llc_mpki == pytest.approx(2 * WEB_SEARCH.llc_mpki)


def test_llc_mpki_above_l1_rejected():
    with pytest.raises(ValueError):
        WorkloadCharacteristics(
            name="broken",
            workload_class=WorkloadClass.VIRTUALIZED,
            base_cpi=0.5,
            branch_fraction=0.1,
            branch_predictability=0.9,
            l1_mpki=1.0,
            llc_mpki=2.0,
            memory_level_parallelism=2.0,
            activity_factor=0.8,
            write_fraction=0.3,
        )


def test_scale_out_requires_qos():
    with pytest.raises(ValueError, match="QoS"):
        WorkloadCharacteristics(
            name="broken",
            workload_class=WorkloadClass.SCALE_OUT,
            base_cpi=0.5,
            branch_fraction=0.1,
            branch_predictability=0.9,
            l1_mpki=10.0,
            llc_mpki=2.0,
            memory_level_parallelism=2.0,
            activity_factor=0.8,
            write_fraction=0.3,
        )


@pytest.mark.parametrize(
    "field",
    [
        "l1_mpki",
        "llc_mpki",
        "instructions_per_request",
        "minimum_latency_99th_seconds",
        "qos_limit_seconds",
    ],
)
def test_nan_counts_and_latencies_rejected_by_name(field):
    # NaN compares false with everything, so a bare ``< 0`` check lets
    # it through to fail (or silently pass) deep inside a replay.
    with pytest.raises(ValueError, match=f"^{field} must be >= 0, got nan$"):
        dataclasses.replace(WEB_SEARCH, **{field: float("nan")})


# -- banking VM generator -----------------------------------------------------------


def test_vm_generator_default_build():
    vm = BankingVmGenerator().build("test-vm")
    assert vm.name == "test-vm"
    assert vm.is_virtualized


def test_vm_generator_lower_utilization_raises_cpi():
    busy = BankingVmGenerator(cpu_utilization=1.0).build()
    idle = BankingVmGenerator(cpu_utilization=0.5).build()
    assert idle.base_cpi > busy.base_cpi
    assert idle.activity_factor < busy.activity_factor


def test_vm_generator_memory_intensity_scales_mpki():
    heavy = BankingVmGenerator(memory_intensity=3.0).build()
    assert heavy.llc_mpki == pytest.approx(3.0 * VMS_LOW_MEM.llc_mpki)


def test_vm_generator_sweep():
    vms = BankingVmGenerator().sweep([0.25, 0.5, 1.0])
    assert len(vms) == 3
    assert vms[0].base_cpi > vms[-1].base_cpi


# -- Bitbrains model -----------------------------------------------------------------


def test_bitbrains_population_size():
    model = BitbrainsTraceModel(vm_count=200)
    assert len(model.samples()) == 200


def test_bitbrains_deterministic_for_seed():
    first = BitbrainsTraceModel(vm_count=100, seed=3).samples()
    second = BitbrainsTraceModel(vm_count=100, seed=3).samples()
    assert first[10].memory_bytes == second[10].memory_bytes


def test_bitbrains_classes_near_paper_values():
    classes = BitbrainsTraceModel().representative_classes()
    assert 50 * MB <= classes["low-mem"] <= 250 * MB
    assert 400 * MB <= classes["high-mem"] <= 1200 * MB
    assert classes["high-mem"] > classes["low-mem"]


def test_bitbrains_class_populations_sum():
    model = BitbrainsTraceModel(vm_count=500)
    populations = model.class_populations()
    assert populations["low-mem"] + populations["high-mem"] == 500


def test_bitbrains_percentile_bounds():
    model = BitbrainsTraceModel(vm_count=300)
    assert model.memory_percentile(10) < model.memory_percentile(90)
    with pytest.raises(ValueError):
        model.memory_percentile(150)


# -- trace generator -----------------------------------------------------------------


def test_trace_generator_produces_requested_count():
    generator = SyntheticTraceGenerator(DATA_SERVING, seed=1)
    records = generator.records(500)
    assert len(records) == 500


def test_trace_generator_deterministic_per_seed_and_core():
    first = SyntheticTraceGenerator(DATA_SERVING, seed=5).records(200, core_id=1)
    second = SyntheticTraceGenerator(DATA_SERVING, seed=5).records(200, core_id=1)
    assert [r.address for r in first] == [r.address for r in second]


def test_trace_generator_core_streams_differ():
    generator = SyntheticTraceGenerator(DATA_SERVING, seed=5)
    core0 = generator.records(200, core_id=0)
    core1 = generator.records(200, core_id=1)
    assert [r.address for r in core0] != [r.address for r in core1]


def test_trace_generator_write_fraction_approximate():
    generator = SyntheticTraceGenerator(DATA_SERVING, seed=11)
    records = generator.records(4000)
    write_share = sum(record.is_write for record in records) / len(records)
    assert abs(write_share - DATA_SERVING.write_fraction) < 0.05


def test_trace_addresses_are_line_aligned_nonnegative():
    generator = SyntheticTraceGenerator(WEB_SEARCH, seed=2)
    for record in generator.records(300):
        assert record.address >= 0
        assert record.instruction_gap >= 0


# -- request service model -------------------------------------------------------------


def test_request_service_mean_time():
    model = RequestServiceModel(WEB_SEARCH)
    assert model.mean_service_time(1.0e9) == pytest.approx(8.0e-3)


def test_request_service_rate_inverse_of_mean():
    model = RequestServiceModel(WEB_SEARCH)
    assert model.service_rate(1.0e9) == pytest.approx(1.0 / model.mean_service_time(1.0e9))


def test_request_percentile_above_mean():
    model = RequestServiceModel(DATA_SERVING)
    assert model.percentile_service_time(0.7e9, 99.0) > model.mean_service_time(0.7e9)


def test_request_model_rejects_vm_workloads():
    with pytest.raises(ValueError):
        RequestServiceModel(VMS_LOW_MEM)


def test_request_percentile_bounds_checked():
    model = RequestServiceModel(DATA_SERVING)
    with pytest.raises(ValueError):
        model.percentile_service_time(1e9, 100.0)


@pytest.mark.parametrize("seed", [2016, 7])
def test_bitbrains_memory_array_matches_the_samples(seed):
    """Percentiles and class counts read one array, not 1750 samples."""
    model = BitbrainsTraceModel(seed=seed)
    from_samples = [sample.memory_bytes for sample in model.samples()]
    memory = model.memory_bytes()
    # The same IEEE products as one scalar multiply per VM.
    assert from_samples == [float(mb) * MB for mb in model._draws()[0]]
    assert memory.tolist() == from_samples
    for percentile in (0.0, 10.0, 50.0, 90.0, 100.0):
        assert model.memory_percentile(percentile) == float(
            np.percentile(np.array(from_samples), percentile)
        )
    for threshold in (100 * MB, 300 * MB, 700 * MB):
        low = sum(1 for value in from_samples if value <= threshold)
        assert model.class_populations(threshold) == {
            "low-mem": low,
            "high-mem": len(from_samples) - low,
        }
