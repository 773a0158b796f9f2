"""Section V-A (virtualized apps): degradation versus frequency and floors.

The paper reports that a 4x degradation bound lets the banking VMs run
at 500MHz and a 2x bound still allows 1GHz.
"""

from repro.core.qos import QosAnalyzer
from repro.sweep.context import ModelContext
from repro.utils.tables import format_table
from repro.workloads.banking_vm import (
    DEGRADATION_LIMIT_RELAXED,
    DEGRADATION_LIMIT_STRICT,
    virtualized_workloads,
)


def _build(configuration, frequencies):
    analyzer = QosAnalyzer(ModelContext(configuration))
    curves = {
        name: analyzer.degradation_curve(workload, frequencies)
        for name, workload in virtualized_workloads().items()
    }
    return curves


def test_bench_vm_degradation(benchmark, server_configuration, sweep_frequencies):
    curves = benchmark(_build, server_configuration, sweep_frequencies)

    names = list(curves)
    frequencies = curves[names[0]].frequencies_hz
    rows = []
    for index, frequency in enumerate(frequencies):
        row = [f"{frequency / 1e9:.1f}"]
        row.extend(f"{curves[name].degradations[index]:.2f}x" for name in names)
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
                    round(curves[name].floor_strict_hz / 1e6),
                    round(curves[name].floor_relaxed_hz / 1e6),
                )
                for name in names
            ],
        )
    )

    for curve in curves.values():
        assert curve.floor_relaxed_hz <= 500e6
        assert curve.floor_strict_hz <= 1.0e9
        assert curve.degradations[-1] == 1.0
    assert DEGRADATION_LIMIT_STRICT < DEGRADATION_LIMIT_RELAXED
