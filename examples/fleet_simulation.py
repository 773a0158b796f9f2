"""Multi-server fleet simulation (beyond the paper).

The paper sizes one near-threshold server; this example closes the
datacenter loop: eight of them share a diurnal Web Search day and
twelve host the Bitbrains-derived VM consolidation replay, under the
four routing policies with per-server ``qos_tracker`` governors and
the autoscaler parking the night trough.  Both runs use the registered
``fleet_*`` scenarios, so the numbers match the golden fixtures and
the CLI output exactly; the cost model then prices each policy in
dollars per million requests.

Run with:  python examples/fleet_simulation.py
"""

from repro.scenarios import ScenarioRunner
from repro.utils.tables import format_table


def print_routing_comparison(result) -> None:
    replay = result.extras["fleet_replay"]
    trace = replay["trace"]
    print(
        f"\n{replay['fleet_size']} servers, per-server "
        f"{replay['governor']!r} governors, autoscale="
        f"{replay['autoscaled']}; trace {trace['name']!r}: "
        f"{trace['steps']} steps of {trace['step_seconds']:.0f}s, "
        f"mean load {trace['mean_utilization']:.0%}"
    )
    for workload, routings in replay["replays"].items():
        rows = []
        for name, summary in routings.items():
            economics = replay["economics"][workload][name]
            per_request = summary["energy_per_request_j"]
            cost = economics["cost_per_million_requests"]
            rows.append(
                (
                    name,
                    f"{summary['mean_serving_servers']:.2f}",
                    f"{summary['wake_count']}",
                    f"{summary['total_energy_j'] / 1e6:.2f}",
                    f"{summary['energy_per_giga_instruction_j']:.2f}",
                    "-" if per_request is None else f"{per_request * 1e3:.2f}",
                    "-" if cost is None else f"{cost * 1e3:.2f}",
                    summary["violation_count"],
                )
            )
        print(f"\n{workload}")
        print(
            format_table(
                (
                    "routing",
                    "mean serving",
                    "wakes",
                    "energy (MJ)",
                    "J/Ginstr",
                    "mJ/request",
                    "m$/Mreq",
                    "violations",
                ),
                rows,
            )
        )
        best = replay["best_routing_at_zero_violations"][workload]
        print(f"best routing at zero violations: {best}")


def print_fleet_day(result) -> None:
    """How the autoscaled pack fleet follows the day."""
    steps = result.extras["fleet_replay"]["_steps"]["Web Search"]["pack"]
    # One list per column; every 4th step is every second hour.
    sampled = {name: values[::4] for name, values in steps.items()}
    rows = [
        (
            f"{time_s / 3600.0:.1f}",
            f"{utilization:.2f}",
            serving,
            used,
            f"{power_w:.0f}",
            "violated" if violation else "ok",
        )
        for time_s, utilization, serving, used, power_w, violation in zip(
            sampled["time_s"],
            sampled["utilization"],
            sampled["serving_servers"],
            sampled["used_servers"],
            sampled["total_power_w"],
            sampled["violation"],
        )
    ]
    print("\npack + autoscale over the Web Search day (2-hour samples)")
    print(
        format_table(
            ("hour", "fleet load", "serving", "used", "P (W)", "QoS"), rows
        )
    )


def main() -> None:
    runner = ScenarioRunner()

    websearch = runner.run("fleet_diurnal_websearch")
    print("== fleet_diurnal_websearch ==")
    print_routing_comparison(websearch)
    print_fleet_day(websearch)

    consolidation = runner.run("fleet_bitbrains_consolidation")
    print("\n== fleet_bitbrains_consolidation ==")
    print_routing_comparison(consolidation)


if __name__ == "__main__":
    main()
