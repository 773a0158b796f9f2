"""Fleet routing comparison: energy per request at equal QoS.

Replays the diurnal Web Search day over an 8-server fleet
(pytest-benchmark times the four-policy comparison) and prints who
serves the day cheapest.  The headline claim the tentpole locks in:
power-aware consolidation -- ``pack`` routing plus the autoscaler
parking idle servers -- burns strictly less energy per served request
than the oblivious ``round_robin`` baseline at equal QoS (zero
violations on both sides).  The autoscaler's savings are *only*
reachable with a state-aware router: round_robin keeps routing to
servers that are still booting, drops that load, and therefore has to
run the fleet statically to keep its QoS clean.

The run also emits a machine-readable ``BENCH_fleet.json`` artifact
(energy, cost and timing per policy) so CI can archive the perf
trajectory; set ``BENCH_FLEET_JSON`` to redirect it.
"""

import time

from repro.dvfs import LoadTrace
from repro.fleet import Autoscaler, CostModel, FleetSimulator
from repro.sweep.context import ModelContext
from repro.utils.tables import format_table
from repro.workloads.cloudsuite import WEB_SEARCH

FLEET_SIZE = 8


def _compare(configuration, trace):
    context = ModelContext(configuration)
    autoscaled = FleetSimulator(
        context, WEB_SEARCH, fleet_size=FLEET_SIZE, autoscaler=Autoscaler()
    )
    static = FleetSimulator(context, WEB_SEARCH, fleet_size=FLEET_SIZE)
    results = autoscaled.compare(trace)
    results["round_robin_static"] = static.run(trace, "round_robin")
    return results


def test_bench_fleet_routing(benchmark, server_configuration, bench_artifact):
    trace = LoadTrace.diurnal()
    started = time.perf_counter()
    results = benchmark(_compare, server_configuration, trace)
    elapsed_s = time.perf_counter() - started

    cost_model = CostModel()
    rows = []
    artifact = {
        "benchmark": "fleet_routing_diurnal_websearch",
        "fleet_size": FLEET_SIZE,
        "trace": trace.summary(),
        "wall_clock_s": elapsed_s,
        "policies": {},
    }
    for name, result in results.items():
        rollup = cost_model.rollup(result.summary())
        rows.append(
            (
                name,
                f"{result.mean_serving_servers:.2f}",
                f"{result.total_energy_j / 1e6:.2f}",
                f"{result.energy_per_request_j * 1e3:.2f}",
                f"{rollup['cost_per_million_requests'] * 1e3:.2f}",
                result.violation_count,
            )
        )
        artifact["policies"][name] = {
            "autoscaled": result.autoscaled,
            "mean_serving_servers": result.mean_serving_servers,
            "total_energy_j": result.total_energy_j,
            "energy_per_request_mj": result.energy_per_request_j * 1e3,
            "cost_per_million_requests": rollup["cost_per_million_requests"],
            "violation_count": result.violation_count,
            "queue_violation_count": result.queue_violation_count,
            "wake_count": result.wake_count,
        }
    print()
    print(f"Routing policies over one diurnal Web Search day, {FLEET_SIZE} servers")
    print(
        format_table(
            (
                "policy",
                "mean serving",
                "energy (MJ)",
                "mJ/request",
                "m$/Mreq",
                "violations",
            ),
            rows,
        )
    )

    pack = results["pack"]
    baseline = results["round_robin_static"]
    oblivious = results["round_robin"]

    # Equal QoS: both the consolidation stack and the static baseline
    # serve the whole day without a single violation, and packing does
    # not trade the win for a worse modeled queueing tail either ...
    assert pack.violation_count == 0
    assert baseline.violation_count == 0
    assert pack.queue_violation_count <= baseline.queue_violation_count
    assert pack.served_fraction == 1.0
    # ... but the oblivious router cannot have the autoscaler's savings:
    # it keeps routing to booting servers and drops that load.
    assert oblivious.violation_count > 0

    # The headline: pack + autoscale strictly beats round_robin on
    # energy per request at equal QoS, and the win is structural (the
    # parked night trough), not a rounding artifact.
    assert pack.energy_per_request_j < baseline.energy_per_request_j
    saving = 1.0 - pack.energy_per_request_j / baseline.energy_per_request_j
    assert saving > 0.08
    artifact["pack_vs_round_robin_saving"] = saving

    # The dollars follow the joules: consolidation also wins on cost
    # per served request (capex is identical -- same owned fleet).
    pack_cost = cost_model.rollup(pack.summary())["cost_per_million_requests"]
    base_cost = cost_model.rollup(baseline.summary())[
        "cost_per_million_requests"
    ]
    assert pack_cost < base_cost

    out_path = bench_artifact("fleet", artifact)
    print(f"wrote {out_path} (pack vs static round_robin: {saving:.1%} less energy/request)")
