"""DVFS governors over time-varying load (beyond the paper).

The paper's sweeps pick one fixed operating point per load level; this
example closes the loop: a diurnal Web Search day and a Bitbrains-derived
VM consolidation day are replayed under the four classic cpufreq
policies plus the paper-motivated ``qos_tracker`` (lowest frequency
that covers the load and holds the QoS bound).  Both use the registered
``dvfs_*`` scenarios, so the numbers match the golden fixtures and the
CLI output exactly.

Run with:  python examples/dvfs_governor_replay.py
"""

from repro.scenarios import ScenarioRunner
from repro.utils.tables import format_table


def print_governor_comparison(result) -> None:
    replay = result.extras["dvfs_replay"]
    trace = replay["trace"]
    print(
        f"\ntrace {trace['name']!r}: {trace['steps']} steps of "
        f"{trace['step_seconds']:.0f}s, mean load {trace['mean_utilization']:.0%}, "
        f"peak {trace['peak_utilization']:.0%}"
    )
    for workload, governors in replay["replays"].items():
        rows = []
        for name, summary in governors.items():
            per_request = summary["energy_per_request_j"]
            rows.append(
                (
                    name,
                    f"{summary['mean_frequency_hz'] / 1e6:.0f}",
                    f"{summary['total_energy_j'] / 1e6:.2f}",
                    f"{summary['energy_per_giga_instruction_j']:.2f}",
                    "-" if per_request is None else f"{per_request * 1e3:.2f}",
                    summary["violation_count"],
                )
            )
        print(f"\n{workload}")
        print(
            format_table(
                (
                    "governor",
                    "mean f (MHz)",
                    "energy (MJ)",
                    "J/Ginstr",
                    "mJ/request",
                    "QoS violations",
                ),
                rows,
            )
        )
        best = replay["best_governor_at_zero_violations"][workload]
        print(f"best governor at zero violations: {best}")


def print_qos_tracker_day(result) -> None:
    """How the winning policy rides the V/f curve over the day."""
    steps = result.extras["dvfs_replay"]["_steps"]["Web Search"]["qos_tracker"]
    # One list per column; every 4th step is every second hour.
    sampled = {name: values[::4] for name, values in steps.items()}
    rows = [
        (
            f"{time_s / 3600.0:.1f}",
            f"{utilization:.2f}",
            f"{frequency_hz / 1e6:.0f}",
            f"{power_w:.1f}",
            "violated" if violation else "ok",
        )
        for time_s, utilization, frequency_hz, power_w, violation in zip(
            sampled["time_s"],
            sampled["utilization"],
            sampled["frequency_hz"],
            sampled["power_w"],
            sampled["violation"],
        )
    ]
    print("\nqos_tracker over the Web Search day (2-hour samples)")
    print(format_table(("hour", "load", "f (MHz)", "P (W)", "QoS"), rows))


def main() -> None:
    runner = ScenarioRunner()

    websearch = runner.run("dvfs_diurnal_websearch")
    print("== dvfs_diurnal_websearch ==")
    print_governor_comparison(websearch)
    print_qos_tracker_day(websearch)

    bitbrains = runner.run("dvfs_bitbrains_replay")
    print("\n== dvfs_bitbrains_replay ==")
    print_governor_comparison(bitbrains)


if __name__ == "__main__":
    main()
