"""Cost-per-QPS economics over a fleet replay.

The paper's pitch is economic -- a near-threshold server only matters
if it serves the same traffic for fewer dollars -- and the ROADMAP
queues "cost-per-QPS economic sweeps" explicitly.  :class:`CostModel`
turns a fleet replay summary dict
(:meth:`~repro.fleet.result.FleetResult.summary`, or a row of the batch
engine's summaries: the same reduction) into TCO-style rollups: the
energy bill (metered at the wall through a PUE overhead), the amortised
capital cost of the machines you own whether or not they are powered
on, and the derived unit economics (dollars per sustained QPS, dollars
per million requests, joules per request).

The defaults are deliberately round, publicly-defensible magnitudes
(commodity 1U server, three-year amortisation, US industrial power
price, mid-range PUE); every scenario pins whatever numbers fall out,
so changing a default is a visible golden diff, not silent drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.utils.validation import check_positive

SECONDS_PER_YEAR = 365.0 * 24.0 * 3600.0


@dataclass(frozen=True)
class CostModel:
    """Dollar model of a fleet: energy bill + amortised capital.

    Parameters
    ----------
    energy_price_per_kwh:
        Metered electricity price, dollars per kWh.
    server_capex:
        Purchase price of one server, dollars.
    amortization_years:
        Straight-line capex amortisation horizon.
    pue:
        Power-usage-effectiveness overhead on the IT energy (cooling,
        distribution); multiplies the metered energy.
    """

    energy_price_per_kwh: float = 0.12
    server_capex: float = 2500.0
    amortization_years: float = 3.0
    pue: float = 1.2

    def __post_init__(self) -> None:
        check_positive("energy_price_per_kwh", self.energy_price_per_kwh)
        check_positive("server_capex", self.server_capex)
        check_positive("amortization_years", self.amortization_years)
        if self.pue < 1.0:
            raise ValueError(
                f"pue must be >= 1 (1.0 = no overhead), got {self.pue}"
            )

    # -- primitive rates -----------------------------------------------------------------

    @property
    def capex_rate_per_server_second(self) -> float:
        """Amortised capital cost of one owned server, dollars/second."""
        return self.server_capex / (self.amortization_years * SECONDS_PER_YEAR)

    def energy_cost(self, energy_j: float) -> float:
        """Dollars for ``energy_j`` joules of IT energy, PUE included."""
        kwh = energy_j / 3.6e6
        return kwh * self.pue * self.energy_price_per_kwh

    # -- rollups -------------------------------------------------------------------------

    def rollup(self, summary: Mapping[str, object]) -> Dict[str, object]:
        """TCO-style unit economics of one fleet replay's summary.

        ``summary`` is a fleet replay summary dict:
        :meth:`~repro.fleet.result.FleetResult.summary` or one row of
        the batch engine's summaries (the same reduction).  Capex
        covers every *owned* server over the replay window -- parking a
        machine saves energy, not capital -- which is exactly why
        packing plus autoscaling has to beat an always-on spread on the
        energy line to pay off.  Request-denominated entries are
        ``None`` for workloads without a request size (the virtualized
        classes), mirroring the replay summaries.
        """
        duration_s = summary["step_seconds"] * summary["steps"]
        total_energy_j = summary["total_energy_j"]
        energy_cost = self.energy_cost(total_energy_j)
        capex_cost = (
            summary["fleet_size"]
            * self.capex_rate_per_server_second
            * duration_s
        )
        total_cost = energy_cost + capex_cost

        requests = summary["total_requests"]
        mean_qps = summary["mean_qps"]
        cost_rate_per_year = total_cost / duration_s * SECONDS_PER_YEAR

        return {
            "duration_s": duration_s,
            "energy_kwh": total_energy_j / 3.6e6,
            "energy_cost": energy_cost,
            "capex_cost": capex_cost,
            "total_cost": total_cost,
            "mean_qps": mean_qps,
            "cost_per_qps_year": (
                cost_rate_per_year / mean_qps
                if mean_qps is not None and mean_qps > 0
                else None
            ),
            "cost_per_million_requests": (
                total_cost / requests * 1.0e6
                if requests is not None and requests > 0
                else None
            ),
            "joules_per_request": summary["energy_per_request_j"],
            "joules_per_giga_instruction": summary[
                "energy_per_giga_instruction_j"
            ],
            "annual_tco": cost_rate_per_year,
        }
