"""Figure 3: UIPS/Watt of the cores, SoC and server for scale-out workloads.

Reproduces the headline shape result: the cores-only optimum sits at the
lowest functional frequency, the SoC optimum moves to ~1GHz and the
server optimum to ~1-1.2GHz.
"""

from repro.core.efficiency import EfficiencyScope
from repro.scenarios import ScenarioRunner, get_scenario
from repro.utils.tables import format_table


def _build(configuration, frequencies):
    # One registered scenario serves all three scopes and the optima table.
    spec = get_scenario("fig3_scaleout").with_overrides(
        base_configuration=configuration, frequency_grid_hz=tuple(frequencies)
    )
    result = ScenarioRunner().run(spec)
    return result.sweep.group_by("workload_name"), result.extras["efficiency_optima"]


def test_bench_figure3_scaleout_efficiency(
    benchmark, server_configuration, sweep_frequencies
):
    workloads, optima = benchmark(_build, server_configuration, sweep_frequencies)

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
        print(f"Figure 3 ({scope.value}): efficiency in GUIPS/W vs core frequency (GHz)")
        print(format_table(["f (GHz)"] + names, rows))

    print()
    print(
        format_table(
            ("workload", "opt cores (MHz)", "opt SoC (MHz)", "opt server (MHz)"),
            [
                (
                    name,
                    round(points["cores"] / 1e6),
                    round(points["soc"] / 1e6),
                    round(points["server"] / 1e6),
                )
                for name, points in optima.items()
            ],
        )
    )

    for points in optima.values():
        assert points["cores"] <= 300e6
        assert 600e6 <= points["soc"] <= 1400e6
        assert points["server"] >= points["soc"]
