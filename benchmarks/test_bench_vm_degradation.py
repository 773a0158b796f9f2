"""Section V-A (virtualized apps): degradation versus frequency and floors.

The paper reports that a 4x degradation bound lets the banking VMs run
at 500MHz and a 2x bound still allows 1GHz.  One sweep's degradation
column gives the curves and the floor under either bound.
"""

from repro.sweep.runner import SweepRunner
from repro.utils.tables import format_table
from repro.workloads.banking_vm import (
    DEGRADATION_LIMIT_RELAXED,
    DEGRADATION_LIMIT_STRICT,
    virtualized_workloads,
)


def _build(configuration, frequencies):
    sweep = SweepRunner.for_configuration(configuration).run(
        virtualized_workloads().values(), frequencies
    )
    return sweep.group_by("workload_name")


def test_bench_vm_degradation(benchmark, server_configuration, sweep_frequencies):
    curves = benchmark(_build, server_configuration, sweep_frequencies)

    names = list(curves)
    degradations = {name: curves[name].column("degradation") for name in names}
    floors = {
        name: {
            bound: curves[name].qos_floor(bound)
            for bound in (DEGRADATION_LIMIT_STRICT, DEGRADATION_LIMIT_RELAXED)
        }
        for name in names
    }
    rows = []
    for index, frequency in enumerate(curves[names[0]].column("frequency_hz")):
        row = [f"{frequency / 1e9:.1f}"]
        row.extend(f"{degradations[name][index]:.2f}x" for name in names)
        rows.append(row)

    print()
    print("Execution-time degradation of the virtualized VMs vs core frequency")
    print(format_table(["f (GHz)"] + names, rows))
    print()
    print(
        format_table(
            ("VM class", "floor @2x (MHz)", "floor @4x (MHz)"),
            [
                (
                    name,
                    round(floors[name][DEGRADATION_LIMIT_STRICT] / 1e6),
                    round(floors[name][DEGRADATION_LIMIT_RELAXED] / 1e6),
                )
                for name in names
            ],
        )
    )

    for name in names:
        assert floors[name][DEGRADATION_LIMIT_RELAXED] <= 500e6
        assert floors[name][DEGRADATION_LIMIT_STRICT] <= 1.0e9
        assert degradations[name][-1] == 1.0
    assert DEGRADATION_LIMIT_STRICT < DEGRADATION_LIMIT_RELAXED
