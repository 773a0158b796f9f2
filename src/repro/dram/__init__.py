"""DDR4 memory-system timing simulator (DRAMSim2 substitute).

The paper integrates DRAMSim2 into Flexus and configures it from the
Micron DDR4 datasheet.  This package provides the equivalent substrate:

* :mod:`repro.dram.timing` -- DDR4-1600 timing parameters (Micron 4Gbit).
* :mod:`repro.dram.commands` -- DRAM command and request vocabulary.
* :mod:`repro.dram.address_map` -- physical-address to channel / rank /
  bank-group / bank / row / column decomposition.
* :mod:`repro.dram.bank` -- per-bank state machine enforcing the timing
  constraints between ACTIVATE / READ / WRITE / PRECHARGE.
* :mod:`repro.dram.controller` -- per-channel FR-FCFS memory controller.
* :mod:`repro.dram.system` -- multi-channel memory system facade.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "timing": ("DDR4Timing", "DDR4_1600_4GBIT"),
        "commands": ("DramCommand", "MemoryRequest", "RequestType"),
        "address_map": ("AddressMapping", "DecodedAddress"),
        "bank": ("Bank", "BankState"),
        "controller": ("ChannelController", "ControllerStats"),
        "system": ("MemorySystem", "MemorySystemStats"),
    },
)

__all__ = [
    "DDR4Timing",
    "DDR4_1600_4GBIT",
    "DramCommand",
    "MemoryRequest",
    "RequestType",
    "AddressMapping",
    "DecodedAddress",
    "Bank",
    "BankState",
    "ChannelController",
    "ControllerStats",
    "MemorySystem",
    "MemorySystemStats",
]
