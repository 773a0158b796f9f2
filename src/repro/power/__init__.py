"""Component power models for the near-threshold server.

The paper decomposes server power into three scopes (Section V-B):

* **cores** -- the 36 Cortex-A57 cores, modelled by
  :mod:`repro.technology.a57_model`;
* **SoC** -- cores plus the *uncore*: per-cluster LLC slices and
  crossbars and the chip-edge I/O peripherals, all on a voltage/clock
  domain separate from the cores;
* **server** -- SoC plus the DDR4 memory subsystem.

This package provides the uncore and memory models and the aggregation
types used to compute power at each scope:

* :mod:`repro.power.cache_power` -- CACTI-style LLC power (leakage
  dominated, ~500mW per 1MB slice).
* :mod:`repro.power.interconnect_power` -- cluster crossbar power
  (~25mW per crossbar).
* :mod:`repro.power.peripherals` -- McPAT-style chip I/O peripherals
  (~5W, Sun UltraSPARC T2 configuration).
* :mod:`repro.power.dram_power` -- Micron-style DDR4 background and
  per-operation energy (Table I), plus an LPDDR4-like profile for the
  energy-proportionality ablation.
* :mod:`repro.power.area` -- chip area model (300mm^2 budget, 9 clusters).
* :mod:`repro.power.soc` / :mod:`repro.power.server` -- aggregation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cache_power": ("CachePowerModel",),
        "interconnect_power": ("CrossbarPowerModel",),
        "peripherals": ("IOPeripheralPowerModel", "PeripheralComponent"),
        "dram_power": (
            "DramChipEnergyProfile",
            "DDR4_4GBIT_X8",
            "LPDDR4_4GBIT_X8",
            "MemoryOrganization",
            "MemoryPowerModel",
        ),
        "area": ("ChipAreaModel", "ComponentArea"),
        "uncore": ("UncorePowerModel",),
        "soc": ("SoCPowerModel", "SoCPowerBreakdown"),
        "server": ("ServerPowerModel", "ServerPowerBreakdown"),
    },
)

__all__ = [
    "CachePowerModel",
    "CrossbarPowerModel",
    "IOPeripheralPowerModel",
    "PeripheralComponent",
    "DramChipEnergyProfile",
    "DDR4_4GBIT_X8",
    "LPDDR4_4GBIT_X8",
    "MemoryOrganization",
    "MemoryPowerModel",
    "ChipAreaModel",
    "ComponentArea",
    "UncorePowerModel",
    "SoCPowerModel",
    "SoCPowerBreakdown",
    "ServerPowerModel",
    "ServerPowerBreakdown",
]
