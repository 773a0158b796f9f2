"""Multi-channel memory-system facade.

Combines the four per-channel controllers into the 64GB, 4-channel
DDR4-1600 subsystem of the paper's server and exposes:

* a simple ``access`` path used by the cache hierarchy (latency of one
  cache-line fill/writeback),
* a batch ``run`` path used by trace-driven simulation,
* aggregate statistics (bandwidth, latency, row-hit rate) and the
  command/traffic counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

from repro.dram.address_map import AddressMapping
from repro.dram.commands import MemoryRequest, RequestType
from repro.dram.controller import ChannelController, ControllerStats
from repro.dram.timing import DDR4Timing, DDR4_1600_4GBIT


@dataclass(frozen=True)
class MemorySystemStats:
    """Aggregated statistics over all channels."""

    reads: int
    writes: int
    bytes_read: int
    bytes_written: int
    row_hit_rate: float
    average_read_latency_cycles: float
    refreshes: int

    @property
    def accesses(self) -> int:
        """Total accesses across channels."""
        return self.reads + self.writes


@dataclass
class MemorySystem:
    """The server's DRAM subsystem: several independent DDR4 channels."""

    timing: DDR4Timing = field(default_factory=lambda: DDR4_1600_4GBIT)
    mapping: AddressMapping = field(default_factory=AddressMapping)
    scheduling_window: int = 16

    def __post_init__(self) -> None:
        self._controllers: List[ChannelController] = [
            ChannelController(
                timing=self.timing,
                mapping=self.mapping,
                scheduling_window=self.scheduling_window,
            )
            for _ in range(self.mapping.channels)
        ]

    @property
    def channels(self) -> int:
        """Number of independent channels."""
        return self.mapping.channels

    @property
    def controllers(self) -> List[ChannelController]:
        """Per-channel controllers (exposed for tests and detailed stats)."""
        return self._controllers

    # -- access paths -------------------------------------------------------------

    def access(self, address: int, is_write: bool, cycle: int) -> int:
        """Latency in memory-clock cycles of a single cache-line access."""
        channel = self.mapping.decode(address).channel
        return self._controllers[channel].access_latency(address, is_write, cycle)

    def run(self, requests: Iterable[MemoryRequest]) -> List[MemoryRequest]:
        """Service a batch of requests, splitting them across channels."""
        per_channel: List[List[MemoryRequest]] = [[] for _ in range(self.channels)]
        for request in requests:
            channel = self.mapping.decode(request.address).channel
            per_channel[channel].append(request)
        completed: List[MemoryRequest] = []
        for channel, channel_requests in enumerate(per_channel):
            completed.extend(self._controllers[channel].run(channel_requests))
        return completed

    def read(self, address: int, cycle: int) -> int:
        """Latency of a read (cache-line fill) in memory-clock cycles."""
        return self.access(address, is_write=False, cycle=cycle)

    def write(self, address: int, cycle: int) -> int:
        """Latency of a write (dirty eviction) in memory-clock cycles."""
        return self.access(address, is_write=True, cycle=cycle)

    # -- statistics ------------------------------------------------------------------

    def channel_stats(self) -> List[ControllerStats]:
        """Per-channel statistics."""
        return [controller.stats for controller in self._controllers]

    def stats(self) -> MemorySystemStats:
        """Aggregate statistics across channels."""
        reads = sum(stats.reads for stats in self.channel_stats())
        writes = sum(stats.writes for stats in self.channel_stats())
        bytes_read = sum(stats.bytes_read for stats in self.channel_stats())
        bytes_written = sum(stats.bytes_written for stats in self.channel_stats())
        refreshes = sum(stats.refreshes for stats in self.channel_stats())
        accesses = reads + writes
        if accesses:
            row_hit_rate = (
                sum(stats.row_hits for stats in self.channel_stats()) / accesses
            )
        else:
            row_hit_rate = 0.0
        if reads:
            average_latency = (
                sum(stats.total_read_latency for stats in self.channel_stats()) / reads
            )
        else:
            average_latency = 0.0
        return MemorySystemStats(
            reads=reads,
            writes=writes,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            row_hit_rate=row_hit_rate,
            average_read_latency_cycles=average_latency,
            refreshes=refreshes,
        )

    def average_read_latency_seconds(self) -> float:
        """Average read latency in seconds across all channels."""
        return self.timing.cycles_to_seconds(self.stats().average_read_latency_cycles)

    @staticmethod
    def make_request(address: int, is_write: bool, cycle: int) -> MemoryRequest:
        """Build a :class:`MemoryRequest` (convenience for trace players)."""
        return MemoryRequest(
            address=address,
            request_type=RequestType.WRITE if is_write else RequestType.READ,
            arrival_cycle=cycle,
        )
