"""Replay-kernel speedup: columnar tables vs the object step loop.

Times the ``fleet_bitbrains_consolidation`` replay -- both banking VM
classes over twelve autoscaled servers, all three of the scenario's
routing policies, on the Bitbrains-derived day trace -- through the
vectorized :mod:`repro.kernels` path and through the object-based
``reference=`` loop, on the same warmed
:class:`~repro.sweep.context.ModelContext` (model evaluations are
memoized, so the measured work is purely the replay stepping).  The
tentpole's acceptance bar: the kernel path is at least **5x** faster,
as the median of per-pair ratios (the ``paired_walls`` fixture: each
pair times both paths back to back, so host-speed drift between pairs
cancels out of the ratio); the week-long single-server governor replay
speedup is reported alongside.  Both the fleet and the governor
replays are also cross-checked summary-for-summary -- the speedup must
not buy a single bit of drift.

Emits a machine-readable ``BENCH_replay.json`` artifact (set
``BENCH_REPLAY_JSON`` to redirect it) so CI can archive the perf
trajectory.
"""

import statistics

from repro.dvfs import GOVERNORS, GovernorSimulator, LoadTrace
from repro.fleet import Autoscaler, FleetSimulator
from repro.scenarios import REGISTRY
from repro.sweep.context import ModelContext
from repro.utils.tables import format_table

SCENARIO = "fleet_bitbrains_consolidation"
MIN_FLEET_SPEEDUP = 5.0
_REPEATS = 5


def _median_walls_and_speedup(pairs):
    """Median kernel and reference walls, and the median pair speedup."""
    return (
        statistics.median(kernel for kernel, _ in pairs),
        statistics.median(reference for _, reference in pairs),
        statistics.median(reference / kernel for kernel, reference in pairs),
    )


def test_bench_replay_kernels(benchmark, bench_artifact, paired_walls):
    spec = REGISTRY.get(SCENARIO)
    context = ModelContext(
        spec.configuration(), degradation_bound=spec.degradation_bound
    )
    trace = LoadTrace.from_bitbrains()
    simulators = {
        name: FleetSimulator(
            context,
            workload,
            fleet_size=spec.fleet_size,
            governor=spec.fleet_governor,
            autoscaler=Autoscaler() if spec.fleet_autoscale else None,
        )
        for name, workload in spec.workloads().items()
    }
    for simulator in simulators.values():
        simulator._sim.table  # warm the frequency table ...
        simulator._sim.platform  # ... and the reference platform view

    def run_fleet(reference: bool) -> dict:
        return {
            name: simulator.compare(
                trace, spec.fleet_routings, reference=reference
            )
            for name, simulator in simulators.items()
        }

    # Same day, same servers, same routings -- summary for summary.
    kernel_results = run_fleet(reference=False)
    reference_results = run_fleet(reference=True)
    for name in simulators:
        for routing in spec.fleet_routings:
            assert (
                kernel_results[name][routing].summary()
                == reference_results[name][routing].summary()
            ), f"kernel drift on {name}/{routing}"

    benchmark(run_fleet, False)
    fleet_kernel_s, fleet_reference_s, fleet_speedup = (
        _median_walls_and_speedup(
            paired_walls(
                lambda: run_fleet(False), lambda: run_fleet(True), _REPEATS
            )
        )
    )

    # The week-long single-server governor replay, reported alongside.
    governor_simulator = GovernorSimulator(
        context, next(iter(spec.workloads().values()))
    )
    week = LoadTrace.from_bitbrains(steps=2016, seed=77)

    def run_governors(reference: bool) -> list:
        return [
            governor_simulator.replay(week, governor, reference=reference)
            for governor in GOVERNORS
        ]

    for kernel, reference in zip(run_governors(False), run_governors(True)):
        assert kernel.summary() == reference.summary(), (
            f"kernel drift on governor {kernel.governor_name}"
        )

    dvfs_kernel_s, dvfs_reference_s, dvfs_speedup = _median_walls_and_speedup(
        paired_walls(
            lambda: run_governors(False), lambda: run_governors(True), _REPEATS
        )
    )

    print()
    print(f"Replay kernels vs reference loops ({SCENARIO} + week-long dvfs)")
    print(
        format_table(
            ("replay", "kernel (ms)", "reference (ms)", "median pair speedup"),
            [
                (
                    f"fleet {SCENARIO}",
                    f"{fleet_kernel_s * 1e3:.1f}",
                    f"{fleet_reference_s * 1e3:.1f}",
                    f"{fleet_speedup:.1f}x",
                ),
                (
                    "dvfs governors, 2016-step week",
                    f"{dvfs_kernel_s * 1e3:.1f}",
                    f"{dvfs_reference_s * 1e3:.1f}",
                    f"{dvfs_speedup:.1f}x",
                ),
            ],
        )
    )

    artifact = {
        "benchmark": "replay_kernels",
        "scenario": SCENARIO,
        "fleet_size": spec.fleet_size,
        "routings": list(spec.fleet_routings),
        "trace": trace.summary(),
        "fleet": {
            "kernel_s": fleet_kernel_s,
            "reference_s": fleet_reference_s,
            "speedup": fleet_speedup,
            "min_speedup": MIN_FLEET_SPEEDUP,
        },
        "dvfs": {
            "steps": len(week),
            "governors": list(GOVERNORS),
            "kernel_s": dvfs_kernel_s,
            "reference_s": dvfs_reference_s,
            "speedup": dvfs_speedup,
        },
    }
    out_path = bench_artifact("replay", artifact)
    print(
        f"wrote {out_path} (fleet {fleet_speedup:.1f}x, "
        f"dvfs {dvfs_speedup:.1f}x)"
    )

    # The acceptance bar: >= 5x on the fleet Bitbrains replay.
    assert fleet_speedup >= MIN_FLEET_SPEEDUP, (
        f"kernel path is only {fleet_speedup:.1f}x faster than the "
        f"reference loop (need >= {MIN_FLEET_SPEEDUP}x)"
    )
