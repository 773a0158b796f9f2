"""Figure 4: UIPS/Watt of the cores, SoC and server for the virtualized VMs."""

from repro.core.efficiency import EfficiencyScope
from repro.scenarios import ScenarioRunner, get_scenario
from repro.utils.tables import format_table
from repro.workloads.banking_vm import VMS_HIGH_MEM, VMS_LOW_MEM


def _build(configuration, frequencies):
    # One registered scenario serves all three scopes, the optima and the UIPS.
    spec = get_scenario("fig4_virtualized").with_overrides(
        base_configuration=configuration, frequency_grid_hz=tuple(frequencies)
    )
    result = ScenarioRunner().run(spec)
    return (
        result.sweep.group_by("workload_name"),
        result.extras["efficiency_optima"],
        result.extras["nominal_uips"],
    )


def test_bench_figure4_virtualized_efficiency(
    benchmark, server_configuration, sweep_frequencies
):
    workloads, optima, uips = benchmark(_build, server_configuration, sweep_frequencies)

    names = list(workloads)
    frequencies = workloads[names[0]].column("frequency_hz")
    for scope in EfficiencyScope:
        efficiency = {
            name: table.efficiency(scope) for name, table in workloads.items()
        }
        rows = []
        for index, frequency in enumerate(frequencies):
            row = [f"{frequency / 1e9:.1f}"]
            row.extend(f"{efficiency[name][index] / 1e9:.3f}" for name in names)
            rows.append(row)
        print()
        print(f"Figure 4 ({scope.value}): efficiency in GUIPS/W vs core frequency (GHz)")
        print(format_table(["f (GHz)"] + names, rows))

    print()
    print(
        format_table(
            ("VM class", "chip GUIPS @2GHz", "opt cores (MHz)", "opt SoC (MHz)", "opt server (MHz)"),
            [
                (
                    name,
                    round(uips[name] / 1e9, 1),
                    round(points["cores"] / 1e6),
                    round(points["soc"] / 1e6),
                    round(points["server"] / 1e6),
                )
                for name, points in optima.items()
            ],
        )
    )

    # Paper observations: high-mem VMs deliver more UIPS than low-mem,
    # cores peak at the lowest frequency, SoC/server optima move right.
    assert uips[VMS_HIGH_MEM.name] > uips[VMS_LOW_MEM.name]
    for points in optima.values():
        assert points["cores"] <= 300e6
        assert points["soc"] >= 600e6
        assert points["server"] >= points["soc"]
