"""Validation of the reproduced trends against the paper's claims.

Each check compares a quantity computed by this library against the
corresponding claim in the paper's results section.  Absolute numbers
are not expected to match (the substrate is an analytical/synthetic
model, not the authors' Flexus testbed); the checks target the *shape*
results: orderings, optimum locations, crossover frequencies.

The checks feed the test suite (``tests/test_analysis.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.tables import efficiency_optima_rows
from repro.core.config import ServerConfiguration, default_server
from repro.core.energy_proportionality import EnergyProportionalityAnalyzer
from repro.sweep.context import ModelContext
from repro.sweep.result import SweepResult
from repro.sweep.runner import SweepRunner
from repro.technology.a57_model import default_flavour_models
from repro.utils.units import ghz, mhz
from repro.workloads.banking_vm import (
    DEGRADATION_LIMIT_RELAXED,
    DEGRADATION_LIMIT_STRICT,
    VMS_HIGH_MEM,
    VMS_LOW_MEM,
    virtualized_workloads,
)
from repro.workloads.cloudsuite import scale_out_workloads


@dataclass(frozen=True)
class ClaimCheck:
    """One paper claim checked against the reproduction."""

    claim: str
    paper_value: str
    measured_value: str
    passed: bool


def _check(claim: str, paper_value: str, measured_value: str, passed: bool) -> ClaimCheck:
    return ClaimCheck(
        claim=claim,
        paper_value=paper_value,
        measured_value=measured_value,
        passed=bool(passed),
    )


def _technology_checks() -> List[ClaimCheck]:
    models = default_flavour_models()
    checks = []

    fdsoi_min_v_freq = models["fdsoi"].min_voltage_frequency()
    fbb_min_v_freq = models["fdsoi-fbb"].min_voltage_frequency()
    checks.append(
        _check(
            "FD-SOI reaches ~100MHz at 0.5V",
            "almost 100MHz",
            f"{fdsoi_min_v_freq / 1e6:.0f}MHz",
            50e6 <= fdsoi_min_v_freq <= 250e6,
        )
    )
    checks.append(
        _check(
            "FD-SOI+FBB exceeds 500MHz at 0.5V",
            "more than 500MHz",
            f"{fbb_min_v_freq / 1e6:.0f}MHz",
            fbb_min_v_freq > 500e6,
        )
    )
    checks.append(
        _check(
            "Bulk cannot operate at 0.5V",
            "timing issues at 0.5V",
            f"min functional Vdd {models['bulk'].technology.min_functional_vdd:.2f}V",
            models["bulk"].technology.min_functional_vdd > 0.5,
        )
    )

    common = [mhz(300), mhz(500), ghz(1.0), ghz(2.0)]
    ordering_ok = True
    for frequency in common:
        p_bulk = models["bulk"].core_power(frequency)
        p_fdsoi = models["fdsoi"].core_power(frequency)
        p_fbb = models["fdsoi-fbb"].core_power(frequency)
        ordering_ok = ordering_ok and (p_bulk > p_fdsoi >= p_fbb - 1e-12)
    checks.append(
        _check(
            "P(bulk) > P(FD-SOI) >= P(FD-SOI+FBB) at the same frequency",
            "FD-SOI reduces power vs bulk; FBB further increases savings",
            "ordering holds at 0.3/0.5/1/2GHz" if ordering_ok else "ordering violated",
            ordering_ok,
        )
    )

    gain_low = 1.0 - models["fdsoi"].core_power(mhz(300)) / models["bulk"].core_power(
        mhz(300)
    )
    gain_high = 1.0 - models["fdsoi"].core_power(ghz(2.0)) / models["bulk"].core_power(
        ghz(2.0)
    )
    checks.append(
        _check(
            "FD-SOI power gain over bulk grows toward near-threshold",
            "maximum benefits in the near-threshold region",
            f"gain {gain_low:.0%} at 300MHz vs {gain_high:.0%} at 2GHz",
            gain_low > gain_high,
        )
    )
    return checks


def _floor(sweep: SweepResult, name: str, bound: float | None = None) -> float | None:
    """Lowest swept frequency at which ``name`` meets its QoS/degradation bound."""
    return sweep.filter(workload_name=name).qos_floor(bound)


def _qos_checks(sweep: SweepResult) -> List[ClaimCheck]:
    checks = []
    floors = {}
    for name in scale_out_workloads():
        floors[name] = _floor(sweep, name)
    all_in_range = all(
        floor is not None and mhz(100) <= floor <= mhz(500)
        for floor in floors.values()
    )
    floor_text = ", ".join(
        f"{name}: {floor / 1e6:.0f}MHz" for name, floor in floors.items()
    )
    checks.append(
        _check(
            "Scale-out QoS floors fall in the 200-500MHz range",
            "operate at 200MHz-500MHz without violating QoS",
            floor_text,
            all_in_range,
        )
    )

    relaxed_floors = []
    strict_floors = []
    for name in virtualized_workloads():
        relaxed_floors.append(_floor(sweep, name, DEGRADATION_LIMIT_RELAXED))
        strict_floors.append(_floor(sweep, name, DEGRADATION_LIMIT_STRICT))
    relaxed_ok = all(floor is not None and floor <= mhz(500) for floor in relaxed_floors)
    strict_ok = all(floor is not None and floor <= ghz(1.0) for floor in strict_floors)
    checks.append(
        _check(
            "4x degradation bound allows 500MHz for the VMs",
            "frequency can be decreased down to 500MHz",
            ", ".join(f"{floor / 1e6:.0f}MHz" for floor in relaxed_floors),
            relaxed_ok,
        )
    )
    checks.append(
        _check(
            "2x degradation bound allows 1GHz for the VMs",
            "frequency could still be reduced to 1GHz",
            ", ".join(f"{floor / 1e6:.0f}MHz" for floor in strict_floors),
            strict_ok,
        )
    )
    return checks


def _efficiency_checks(sweep: SweepResult, context: ModelContext) -> List[ClaimCheck]:
    checks = []
    grid = context.reachable_frequencies()

    cores_at_floor = []
    soc_near_1ghz = []
    server_at_or_above_soc = []
    for optima in efficiency_optima_rows(sweep):
        cores_at_floor.append(optima["cores"] <= grid[1])
        soc_near_1ghz.append(mhz(600) <= optima["soc"] <= mhz(1400))
        server_at_or_above_soc.append(optima["server"] >= optima["soc"])

    checks.append(
        _check(
            "Cores-only efficiency peaks at the lowest functional frequency",
            "most energy-efficient design operates at the lowest V/f point",
            f"{sum(cores_at_floor)}/{len(cores_at_floor)} workloads",
            all(cores_at_floor),
        )
    )
    checks.append(
        _check(
            "SoC efficiency optimum moves to ~1GHz",
            "constant chip power pushes the optimum to 1GHz",
            f"{sum(soc_near_1ghz)}/{len(soc_near_1ghz)} workloads in 0.6-1.4GHz",
            all(soc_near_1ghz),
        )
    )
    checks.append(
        _check(
            "Server efficiency optimum at or above the SoC optimum",
            "optimal efficiency point moves further right (~1-1.2GHz)",
            f"{sum(server_at_or_above_soc)}/{len(server_at_or_above_soc)} workloads",
            all(server_at_or_above_soc),
        )
    )

    high = context.nominal_performance(VMS_HIGH_MEM)
    low = context.nominal_performance(VMS_LOW_MEM)
    checks.append(
        _check(
            "High-memory VMs achieve higher UIPS than low-memory VMs",
            "UIPS of VMs high-mem is higher than VMs low-mem",
            f"{high.chip_uips / 1e9:.1f} vs {low.chip_uips / 1e9:.1f} GUIPS",
            high.chip_uips > low.chip_uips,
        )
    )
    return checks


def _proportionality_checks(
    sweep: SweepResult, context: ModelContext
) -> List[ClaimCheck]:
    ep = EnergyProportionalityAnalyzer(context)
    checks = []

    workload = scale_out_workloads()["Data Serving"]
    grid = context.reachable_frequencies()
    low_frequency = grid[1]
    rows = sweep.filter(workload_name=workload.name, frequency_hz=low_frequency)
    server_power = float(rows.column("server_power")[0])
    soc_power = float(rows.column("soc_power")[0])
    memory_share = (server_power - soc_power) / server_power
    checks.append(
        _check(
            "Memory background power dominates as the SoC power shrinks",
            "background power of the memory dominates the total server power",
            f"memory is {memory_share:.0%} of server power at "
            f"{low_frequency / 1e6:.0f}MHz",
            memory_share > 0.25,
        )
    )

    comparison = ep.memory_technology_comparison(workload)
    names = list(comparison)
    baseline, alternative = comparison[names[0]], comparison[names[1]]
    checks.append(
        _check(
            "LPDDR4-class memory improves server energy proportionality",
            "mobile DRAM could increase the energy proportionality of servers",
            f"proportionality {baseline.proportionality_index:.2f} -> "
            f"{alternative.proportionality_index:.2f}",
            alternative.proportionality_index > baseline.proportionality_index,
        )
    )
    return checks


def validate_paper_claims(
    configuration: ServerConfiguration | None = None,
) -> List[ClaimCheck]:
    """Run every claim check against ``configuration`` (default server).

    All sweep-derived checks share one batched pass over the full
    (workload, frequency) grid.
    """
    configuration = configuration or default_server()
    runner = SweepRunner.for_configuration(configuration)
    all_workloads = {**scale_out_workloads(), **virtualized_workloads()}
    sweep = runner.run(all_workloads.values())
    checks: List[ClaimCheck] = []
    checks.extend(_technology_checks())
    checks.extend(_qos_checks(sweep))
    checks.extend(_efficiency_checks(sweep, runner.context))
    checks.extend(_proportionality_checks(sweep, runner.context))
    return checks


def claims_as_dict(configuration: ServerConfiguration | None = None) -> Dict[str, bool]:
    """Mapping of claim text to pass/fail."""
    return {check.claim: check.passed for check in validate_paper_claims(configuration)}
