"""Energy-efficiency scopes: cores / SoC / server.

Efficiency is the paper's central metric: UIPS divided by the power of
the scope under consideration (Figures 3 and 4).

* **cores** scope -- only the A57 cores' power; because dynamic power
  falls roughly cubically with frequency while throughput falls at most
  linearly, efficiency rises monotonically as frequency drops until the
  minimum functional voltage is reached.
* **SoC** scope -- adds the fixed-voltage-domain uncore (LLCs, crossbars,
  peripherals); the constant floor pushes the optimum to ~1GHz.
* **server** scope -- adds the DRAM subsystem, whose background power is
  constant; the optimum moves further up, to ~1-1.2GHz.

The curves and optima themselves are reductions of a sweep:
:meth:`~repro.sweep.result.SweepResult.efficiency` and
:meth:`~repro.sweep.result.SweepResult.scope_optima`.
"""

from __future__ import annotations

import enum


class EfficiencyScope(enum.Enum):
    """Power scope over which UIPS/Watt is computed."""

    CORES = "cores"
    SOC = "soc"
    SERVER = "server"


SCOPE_POWER_COLUMN = {
    EfficiencyScope.CORES: "core_power",
    EfficiencyScope.SOC: "soc_power",
    EfficiencyScope.SERVER: "server_power",
}
"""The operating-point record field (and sweep column) of each scope's power."""
