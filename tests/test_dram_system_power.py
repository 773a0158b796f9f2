"""Tests for the multi-channel memory system."""

from repro.dram.system import MemorySystem
from repro.dram.timing import DDR4_1600_4GBIT


def test_system_has_four_channels():
    assert MemorySystem().channels == 4


def test_single_read_latency_matches_closed_row():
    system = MemorySystem()
    assert system.read(0, 0) == DDR4_1600_4GBIT.row_closed_latency


def test_requests_distributed_across_channels():
    system = MemorySystem()
    requests = [MemorySystem.make_request(line * 64, False, line) for line in range(400)]
    system.run(requests)
    per_channel_reads = [stats.reads for stats in system.channel_stats()]
    assert all(reads == 100 for reads in per_channel_reads)


def test_sequential_stream_has_high_row_hit_rate():
    system = MemorySystem()
    requests = [MemorySystem.make_request(line * 64, False, line * 2) for line in range(2000)]
    system.run(requests)
    assert system.stats().row_hit_rate > 0.9


def test_random_stream_has_low_row_hit_rate():
    import random

    random.seed(7)
    system = MemorySystem()
    requests = [
        MemorySystem.make_request(random.randrange(0, 1 << 32) & ~63, False, index * 4)
        for index in range(2000)
    ]
    system.run(requests)
    assert system.stats().row_hit_rate < 0.2


def test_stats_aggregate_reads_and_bytes():
    system = MemorySystem()
    requests = [MemorySystem.make_request(line * 64, line % 3 == 0, line) for line in range(300)]
    system.run(requests)
    stats = system.stats()
    assert stats.accesses == 300
    assert stats.bytes_read + stats.bytes_written == 300 * 64


def test_average_read_latency_positive_and_bounded():
    system = MemorySystem()
    requests = [MemorySystem.make_request(line * 64, False, line * 4) for line in range(500)]
    system.run(requests)
    latency = system.stats().average_read_latency_cycles
    assert DDR4_1600_4GBIT.row_hit_latency <= latency <= 10 * DDR4_1600_4GBIT.row_conflict_latency

