"""Server configuration: the paper's chip and memory organisation.

The default configuration reproduces Section II/IV of the paper:

* 300mm^2 die, 100W chip power budget, 28nm FD-SOI;
* 9 clusters x 4 Cortex-A57 cores (36 cores), each core with 32KB 2-way
  L1I/L1D, each cluster with a 4MB 16-way 4-bank LLC and a
  cache-coherent crossbar;
* I/O peripherals on the chip edge (~5W, McPAT / UltraSPARC T2 style);
* four DDR4-1600 channels, 4 ranks each, 8 x 4Gbit chips per rank
  (64GB, 25.6GB/s per channel);
* a nominal core frequency of 2GHz swept down to 100MHz.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.power.area import ChipAreaModel
from repro.power.dram_power import (
    DDR4_4GBIT_X8,
    DramChipEnergyProfile,
    MemoryOrganization,
    MemoryPowerModel,
)
from repro.power.server import ServerPowerModel
from repro.power.soc import SoCPowerModel
from repro.power.uncore import UncorePowerModel
from repro.technology.a57_model import BodyBiasPolicy, CortexA57PowerModel
from repro.technology.process import FDSOI_28NM, ProcessTechnology
from repro.uarch.core_model import CoreConfig, IntervalCoreModel, UncoreLatencies
from repro.utils.units import MB, ghz, mhz
from repro.utils.validation import check_distinct, check_positive


def default_frequency_grid() -> Tuple[float, ...]:
    """The paper's frequency sweep: 100MHz to 2GHz."""
    points = [mhz(value) for value in (100, 200, 300, 400, 500, 600, 700, 800)]
    points += [mhz(value) for value in range(900, 2001, 100)]
    return tuple(points)


@dataclass(frozen=True)
class ServerConfiguration:
    """Complete description of one server design point."""

    name: str = "ntc-fdsoi-server"
    cluster_count: int = 9
    cores_per_cluster: int = 4
    llc_bytes_per_cluster: int = 4 * MB
    technology: ProcessTechnology = FDSOI_28NM
    bias_policy: BodyBiasPolicy = BodyBiasPolicy.NONE
    nominal_frequency_hz: float = ghz(2.0)
    frequency_grid: Tuple[float, ...] = field(default_factory=default_frequency_grid)
    power_budget_watts: float = 100.0
    memory_chip: DramChipEnergyProfile = DDR4_4GBIT_X8
    memory_organization: MemoryOrganization = field(default_factory=MemoryOrganization)
    uncore_latencies: UncoreLatencies = field(default_factory=UncoreLatencies)
    core: CoreConfig = field(default_factory=CoreConfig)
    uncore_voltage_scales_with_core: bool = False

    def __post_init__(self) -> None:
        check_positive("cluster_count", self.cluster_count)
        check_positive("cores_per_cluster", self.cores_per_cluster)
        check_positive("llc_bytes_per_cluster", self.llc_bytes_per_cluster)
        check_positive("nominal_frequency_hz", self.nominal_frequency_hz)
        check_positive("power_budget_watts", self.power_budget_watts)
        if not self.frequency_grid:
            raise ValueError("frequency_grid must contain at least one point")
        if any(value <= 0 for value in self.frequency_grid):
            raise ValueError("frequency_grid entries must be positive")
        check_distinct("frequency_grid (Hz)", self.frequency_grid)

    # -- derived quantities -------------------------------------------------------

    @property
    def core_count(self) -> int:
        """Total cores on the chip."""
        return self.cluster_count * self.cores_per_cluster

    def fits_area_budget(self, area_model: ChipAreaModel | None = None) -> bool:
        """True when the organisation fits in the 300mm^2 die."""
        model = area_model or ChipAreaModel()
        return model.fits(
            self.cluster_count, self.cores_per_cluster, self.llc_bytes_per_cluster
        )

    # -- model builders --------------------------------------------------------------

    def core_power_model(self) -> CortexA57PowerModel:
        """Per-core technology/power model for this configuration."""
        return CortexA57PowerModel(
            technology=self.technology, bias_policy=self.bias_policy
        )

    def core_performance_model(self) -> IntervalCoreModel:
        """Per-core interval performance model."""
        return IntervalCoreModel(config=self.core)

    def uncore_power_model(self) -> UncorePowerModel:
        """Uncore (LLC + crossbar + peripherals) power model."""
        from repro.power.cache_power import CachePowerModel

        return UncorePowerModel(
            cluster_count=self.cluster_count,
            llc=CachePowerModel(capacity_bytes=self.llc_bytes_per_cluster),
            voltage_scales_with_core=self.uncore_voltage_scales_with_core,
        )

    def soc_power_model(self) -> SoCPowerModel:
        """SoC (cores + uncore) power model."""
        return SoCPowerModel(
            core_model=self.core_power_model(),
            uncore=self.uncore_power_model(),
            core_count=self.core_count,
        )

    def memory_power_model(self) -> MemoryPowerModel:
        """Memory-subsystem power model."""
        return MemoryPowerModel(
            chip=self.memory_chip, organization=self.memory_organization
        )

    def server_power_model(self) -> ServerPowerModel:
        """Whole-server power model."""
        return ServerPowerModel(
            soc=self.soc_power_model(), memory=self.memory_power_model()
        )

    # -- variants -------------------------------------------------------------------

    def with_technology(
        self,
        technology: ProcessTechnology,
        bias_policy: BodyBiasPolicy = BodyBiasPolicy.NONE,
    ) -> "ServerConfiguration":
        """Copy of the configuration in a different process flavour."""
        return replace(
            self,
            name=f"{self.name}-{technology.name}",
            technology=technology,
            bias_policy=bias_policy,
        )

    def with_memory_chip(self, chip: DramChipEnergyProfile) -> "ServerConfiguration":
        """Copy of the configuration with a different DRAM chip profile."""
        return replace(self, name=f"{self.name}-{chip.name}", memory_chip=chip)

    def with_cluster_organization(
        self, cluster_count: int, cores_per_cluster: int
    ) -> "ServerConfiguration":
        """Copy with a different cluster organisation (ablation)."""
        return replace(
            self,
            name=f"{self.name}-{cluster_count}x{cores_per_cluster}",
            cluster_count=cluster_count,
            cores_per_cluster=cores_per_cluster,
        )


def default_server() -> ServerConfiguration:
    """The paper's default FD-SOI near-threshold server configuration."""
    return ServerConfiguration()
