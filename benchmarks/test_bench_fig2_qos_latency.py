"""Figure 2: 99th-percentile latency normalised to QoS versus core frequency."""

from repro.scenarios import ScenarioRunner, get_scenario
from repro.utils.tables import format_table


def _build(configuration, frequencies):
    # One registered scenario provides both the latency curves and the
    # floors, re-pointed at the benchmark's configuration and grid.
    spec = get_scenario("fig2_qos").with_overrides(
        base_configuration=configuration,
        frequency_grid_hz=tuple(sorted(frequencies)),
    )
    result = ScenarioRunner().run(spec)
    return result.sweep.group_by("workload_name"), result.extras["qos_floors"]


def test_bench_figure2_qos_latency(benchmark, server_configuration, sweep_frequencies):
    workloads, floors = benchmark(_build, server_configuration, sweep_frequencies)

    names = list(workloads)
    latency = {
        name: table.column("latency_normalized_to_qos")
        for name, table in workloads.items()
    }
    frequencies = workloads[names[0]].column("frequency_hz")
    rows = []
    for index, frequency in enumerate(frequencies):
        row = [f"{frequency / 1e9:.1f}"]
        row.extend(f"{latency[name][index]:.2f}" for name in names)
        rows.append(row)

    print()
    print("Figure 2: 99th-percentile latency normalised to the QoS limit")
    print(format_table(["f (GHz)"] + names, rows))
    print()
    print(
        format_table(
            ("workload", "QoS floor (MHz)"),
            [(name, round(floor / 1e6)) for name, floor in floors.items()],
        )
    )

    # Paper result: every scale-out app can run at 200-500MHz within QoS.
    for floor in floors.values():
        assert 100e6 <= floor <= 500e6
    # Latency normalised to QoS is below 1.0 at the nominal frequency.
    for name in names:
        assert latency[name][-1] < 1.0
