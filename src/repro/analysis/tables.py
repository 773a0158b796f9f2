"""Table I and the derived memory-power numbers."""

from __future__ import annotations

from typing import Dict, List

from repro.power.dram_power import (
    DDR4_4GBIT_X8,
    DramChipEnergyProfile,
    MemoryOrganization,
    MemoryPowerModel,
)

NJ = 1.0e-9


def table1_rows(chip: DramChipEnergyProfile = DDR4_4GBIT_X8) -> List[Dict[str, float]]:
    """Rows of Table I: per-chip DDR4 energies in the paper's units."""
    return [
        {
            "chip": chip.name,
            "E_IDLE (nJ/cycle)": chip.idle_energy_per_cycle / NJ,
            "E_READ (nJ/byte)": chip.read_energy_per_byte / NJ,
            "E_WRITE (nJ/byte)": chip.write_energy_per_byte / NJ,
        }
    ]


def memory_power_summary(
    chip: DramChipEnergyProfile = DDR4_4GBIT_X8,
    organization: MemoryOrganization | None = None,
    read_bandwidth: float = 10.0e9,
    write_bandwidth: float = 3.0e9,
) -> Dict[str, float]:
    """Derived memory-subsystem power figures at a representative load.

    The paper scales the Table I energies "to match the number of ranks
    in the system and the application's memory bandwidth consumption";
    this helper shows the scaled result for the 64GB organisation.
    """
    model = MemoryPowerModel(chip=chip, organization=organization or MemoryOrganization())
    return {
        "chips": model.organization.total_chips,
        "capacity_gb": model.capacity_gb(),
        "background_power_w": model.background_power(),
        "dynamic_power_w": model.dynamic_power(read_bandwidth, write_bandwidth),
        "total_power_w": model.total_power(read_bandwidth, write_bandwidth),
    }
