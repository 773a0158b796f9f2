"""Scale-out cloud scenario: QoS-constrained near-threshold operation.

Reproduces the private-cloud part of the study for all four CloudSuite
workloads by running the registered ``fig3_scaleout`` scenario: the
latency-versus-frequency curves normalised to each QoS limit (Figure 2),
the QoS frequency floors, and the efficiency optima at the cores / SoC /
server scopes (Figure 3), ending with the operating point a QoS-aware
DVFS governor should pick.

Everything is derived from ONE batched sweep: the scenario runner
evaluates each (workload, frequency) point exactly once and the latency
curves, floors, optima and summaries are all reductions over the same
columnar table.

Run with:  python examples/scaleout_qos_exploration.py
"""

from repro.core import render_summary
from repro.scenarios import ScenarioRunner
from repro.sweep import SweepResult
from repro.utils.tables import format_table
from repro.utils.units import to_mhz


def print_latency_curves(sweep: SweepResult) -> None:
    print("99th-percentile latency normalised to the QoS limit (Figure 2)")
    for name, rows in sweep.group_by("workload_name").items():
        table = [
            (
                f"{frequency / 1e6:.0f}",
                f"{normalized:.2f}",
                "ok" if meets else "violated",
            )
            for frequency, normalized, meets in zip(
                rows.column("frequency_hz"),
                rows.column("latency_normalized_to_qos"),
                rows.column("meets_qos"),
            )
        ]
        floor = rows.qos_floor()
        print(f"\n{name} (QoS floor {to_mhz(floor):.0f} MHz)")
        print(format_table(("f (MHz)", "latency / QoS", "status"), table))


def print_efficiency_optima(optima: dict) -> None:
    print("\nEfficiency optima per scope (Figure 3)")
    rows = [
        (
            name,
            f"{to_mhz(points['cores']):.0f}",
            f"{to_mhz(points['soc']):.0f}",
            f"{to_mhz(points['server']):.0f}",
        )
        for name, points in optima.items()
    ]
    print(format_table(("workload", "cores (MHz)", "SoC (MHz)", "server (MHz)"), rows))


def main() -> None:
    # One registered scenario provides the sweep, the floors, the optima
    # and the summaries -- Figures 2 and 3 are views of the same table.
    result = ScenarioRunner().run("fig3_scaleout")

    print_latency_curves(result.sweep)
    print_efficiency_optima(result.extras["efficiency_optima"])

    print("\nSweep summary (QoS floors and best QoS-respecting operating points)")
    print(render_summary(result.summaries))


if __name__ == "__main__":
    main()
