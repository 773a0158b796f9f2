"""Sweep engine: batched SweepRunner versus the legacy per-point path.

The legacy design-space loop rebuilt the performance/efficiency/power
models on every property access and recomputed the CPI stack several
times per point.  This benchmark times the batched runner on a
figure-3-sized sweep (all scale-out workloads over the full frequency
grid) and asserts it beats a faithful reimplementation of the legacy
per-point path by at least 3x, as the median of per-pair ratios (the
``paired_walls`` fixture: each pair times both paths back to back, so
host-speed drift between pairs cancels out of the ratio).
"""

import statistics

from repro.core.performance import ServerPerformanceModel
from repro.latency.tail import TailLatencyModel
from repro.sweep import SweepRunner
from repro.sweep.context import record_memo
from repro.technology.a57_model import operating_point_memo
from repro.utils.tables import format_table
from repro.workloads.cloudsuite import scale_out_workloads


def _fresh_traffic(performance, workload, frequency):
    """Traffic from a fresh CPI stack, as each seed power accessor built it."""
    return performance.traffic(workload, performance.performance(workload, frequency))


def _legacy_sweep(configuration, workloads, frequencies):
    """The seed's per-point path: fresh models at every access."""
    records = []
    for workload in workloads:
        for frequency in frequencies:
            if not configuration.core_power_model().is_reachable(frequency):
                continue
            # Each accessor builds its own model stack, as the seed
            # explorer's properties did.
            performance = ServerPerformanceModel(configuration)
            point = performance.performance(workload, frequency)
            nominal = performance.nominal_performance(workload)
            operating_point = configuration.core_power_model().operating_point(
                frequency, workload.activity_factor
            )
            # The seed's per-scope power composition: a fresh power model
            # and traffic per scope, independent of ModelContext.evaluate,
            # which the identity asserts below pin.
            core_power = configuration.soc_power_model().core_power(
                frequency, workload.activity_factor
            )
            traffic = _fresh_traffic(performance, workload, frequency)
            soc_power = configuration.soc_power_model().total_power(
                frequency,
                workload.activity_factor,
                llc_accesses_per_second=traffic.llc_accesses_per_second_per_cluster,
                crossbar_bytes_per_second=traffic.crossbar_bytes_per_second_per_cluster,
            )
            traffic = _fresh_traffic(performance, workload, frequency)
            server_power = configuration.server_power_model().total_power(
                frequency,
                workload.activity_factor,
                memory_read_bandwidth=traffic.read_bandwidth,
                memory_write_bandwidth=traffic.write_bandwidth,
                llc_accesses_per_second=traffic.llc_accesses_per_second_per_cluster,
                crossbar_bytes_per_second=traffic.crossbar_bytes_per_second_per_cluster,
            )
            latency = TailLatencyModel(workload).latency(
                frequency, point.core_uips, nominal.core_uips
            )
            records.append(
                (
                    workload.name,
                    frequency,
                    operating_point.vdd,
                    point.chip_uips,
                    core_power,
                    soc_power,
                    server_power,
                    performance.memory_read_bandwidth(workload, frequency),
                    latency.meets_qos,
                )
            )
    return records


def _batched_sweep(configuration, workloads, frequencies):
    # Solve cold, as the legacy side does: the process-wide record and
    # operating-point memos would otherwise serve every point after the
    # first repeat.
    record_memo.cache_clear()
    operating_point_memo.cache_clear()
    return SweepRunner.for_configuration(configuration).run(workloads, frequencies)


_REPEATS = 5


def test_bench_sweep_engine(benchmark, server_configuration, paired_walls):
    workloads = list(scale_out_workloads().values())
    frequencies = server_configuration.frequency_grid

    sweep = benchmark(_batched_sweep, server_configuration, workloads, frequencies)

    legacy_records = _legacy_sweep(server_configuration, workloads, frequencies)
    pairs = paired_walls(
        lambda: _legacy_sweep(server_configuration, workloads, frequencies),
        lambda: _batched_sweep(server_configuration, workloads, frequencies),
        _REPEATS,
    )
    legacy_seconds = statistics.median(legacy for legacy, _ in pairs)
    batched_seconds = statistics.median(batched for _, batched in pairs)
    speedup = statistics.median(legacy / batched for legacy, batched in pairs)

    print()
    print("Sweep engine: figure-3-sized sweep (4 workloads x full grid)")
    print(
        format_table(
            ("path", "points", "median time (ms)", "median pair speedup"),
            [
                ("legacy per-point", len(legacy_records), f"{legacy_seconds * 1e3:.1f}", "1.0x"),
                ("batched runner", len(sweep), f"{batched_seconds * 1e3:.1f}", f"{speedup:.1f}x"),
            ],
        )
    )

    # Both paths resolve the same design points with identical values.
    assert len(sweep) == len(legacy_records)
    for record, legacy in zip(sweep, legacy_records):
        assert record.workload_name == legacy[0]
        assert record.frequency_hz == legacy[1]
        assert record.vdd == legacy[2]
        assert record.chip_uips == legacy[3]
        assert record.core_power == legacy[4]
        assert record.soc_power == legacy[5]
        assert record.server_power == legacy[6]
        assert record.memory_read_bandwidth == legacy[7]
        assert record.meets_qos == legacy[8]

    # Acceptance floor for the refactor; in practice the margin is large.
    # Wall-clock ratios are meaningless when benchmarking is disabled
    # (CI smoke jobs on shared runners), so only assert on real runs.
    if not benchmark.disabled:
        assert speedup >= 3.0
