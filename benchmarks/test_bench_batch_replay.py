"""Batched replay engine speedup vs looped single-replay kernel calls.

Times a thousand-replay fleet sweep -- every registered governor x
autoscaling on/off x 100 bursty trace seeds, four servers each --
through :class:`~repro.kernels.batch.BatchReplayRunner` (ten
``(100, 4, 60)`` tensor batches) and through the straightforward loop
of per-replay :meth:`FleetSimulator.run` calls, each of which runs the
same engine as a one-row batch, so the ratio measures what stacking
the batch axis buys.  The sweep runs once per routing: the
closed-form ``round_robin``, ``pack``'s accumulated spill and the
frequency-coupled ``least_loaded``.  Both paths run on
the same warmed :class:`~repro.sweep.context.ModelContext`, so the
measured work is purely replay evaluation, and both are cross-checked
summary for summary first -- the batch axis must not buy a single bit
of drift.

The tentpole's acceptance bar: the batched engine is at least **8x**
faster on each routing's thousand-replay sweep, as the median of
per-pair ratios (the ``paired_walls`` fixture: each pair times both
paths back to back, so host-speed drift between pairs cancels out of
the ratio).  A thousand-replay single-server governor sweep is reported
alongside (unasserted).

Emits a machine-readable ``BENCH_batch.json`` artifact (set
``BENCH_BATCH_JSON`` to redirect it) with one ``fleet`` entry per
routing, so CI can archive the perf trajectory.
"""

import statistics

from repro.core.config import default_server
from repro.dvfs import GOVERNORS, GovernorSimulator, LoadTrace
from repro.fleet import Autoscaler, FleetSimulator
from repro.kernels import BatchReplayRunner, ReplaySpec
from repro.sweep.context import ModelContext
from repro.utils.tables import format_table
from repro.workloads.cloudsuite import WEB_SEARCH

MIN_BATCH_SPEEDUP = 8.0
ROUTINGS = ("round_robin", "pack", "least_loaded")
_REPEATS = 3
_SEEDS = 100
_STEPS = 60
_FLEET_SIZE = 4


def _median_walls_and_speedup(pairs):
    """Median batched and looped walls, and the median pair speedup."""
    return (
        statistics.median(batched for batched, _ in pairs),
        statistics.median(looped for _, looped in pairs),
        statistics.median(looped / batched for batched, looped in pairs),
    )


def _fleet_sweep(context, runner, traces, governors, scaler_settings, routing):
    """The (batched, looped) runs of one routing's thousand replays."""
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor=governor,
            fleet_size=_FLEET_SIZE,
            routing=routing,
            autoscaler=autoscaler,
        )
        for governor in governors
        for autoscaler in scaler_settings
        for trace in traces
    ]
    assert len(specs) == 1000

    def run_batched():
        return runner.run(specs).summaries()

    def run_looped():
        summaries = []
        for governor in governors:
            for autoscaler in scaler_settings:
                simulator = FleetSimulator(
                    context,
                    WEB_SEARCH,
                    fleet_size=_FLEET_SIZE,
                    governor=governor,
                    autoscaler=autoscaler,
                )
                for trace in traces:
                    summaries.append(simulator.run(trace, routing).summary())
        return summaries

    return run_batched, run_looped


def test_bench_batch_replay(benchmark, bench_artifact, paired_walls):
    context = ModelContext(default_server())
    traces = [
        LoadTrace.bursty(steps=_STEPS, seed=seed) for seed in range(_SEEDS)
    ]
    governors = list(GOVERNORS)
    scaler_settings = (None, Autoscaler())
    runner = BatchReplayRunner(context)
    context.frequency_table(WEB_SEARCH)  # warm the shared table

    fleet = {}
    for routing in ROUTINGS:
        run_batched, run_looped = _fleet_sweep(
            context, runner, traces, governors, scaler_settings, routing
        )
        # Same thousand replays, summary for summary, bit for bit.
        assert run_batched() == run_looped(), (
            f"batched engine drifted from looped kernels ({routing})"
        )
        if routing == ROUTINGS[0]:
            benchmark(run_batched)
        batched_s, looped_s, speedup = _median_walls_and_speedup(
            paired_walls(run_batched, run_looped, _REPEATS)
        )
        fleet[routing] = {
            "batched_s": batched_s,
            "looped_s": looped_s,
            "speedup": speedup,
            "min_speedup": MIN_BATCH_SPEEDUP,
        }

    # The same sweep shape on single servers, reported alongside.
    single_specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor=governor)
        for governor in governors
        for trace in traces
        for _ in range(2)
    ]
    simulator = GovernorSimulator(context, WEB_SEARCH)

    def run_single_batched():
        return runner.run(single_specs).summaries()

    def run_single_looped():
        return [
            simulator.replay(spec.trace, spec.governor).summary()
            for spec in single_specs
        ]

    single_batched_s, single_looped_s, single_speedup = (
        _median_walls_and_speedup(
            paired_walls(run_single_batched, run_single_looped, _REPEATS)
        )
    )

    print()
    print(
        f"Batched replay engine vs looped kernel calls "
        f"(1000 fleet replays per routing / {len(single_specs)} single)"
    )
    rows = [
        (
            f"fleet {routing} ({_FLEET_SIZE} servers, {_STEPS} steps)",
            f"{entry['batched_s'] * 1e3:.1f}",
            f"{entry['looped_s'] * 1e3:.1f}",
            f"{entry['speedup']:.1f}x",
        )
        for routing, entry in fleet.items()
    ]
    rows.append(
        (
            f"single-server {len(single_specs)} replays",
            f"{single_batched_s * 1e3:.1f}",
            f"{single_looped_s * 1e3:.1f}",
            f"{single_speedup:.1f}x",
        )
    )
    print(
        format_table(
            ("sweep", "batched (ms)", "looped (ms)", "median pair speedup"),
            rows,
        )
    )

    artifact = {
        "benchmark": "batch_replay",
        "replays": 1000,
        "fleet_size": _FLEET_SIZE,
        "steps": _STEPS,
        "governors": governors,
        "autoscaler_settings": len(scaler_settings),
        "trace_seeds": _SEEDS,
        "fleet": fleet,
        "single_server": {
            "replays": len(single_specs),
            "batched_s": single_batched_s,
            "looped_s": single_looped_s,
            "speedup": single_speedup,
        },
    }
    out_path = bench_artifact("batch", artifact)
    speedups = ", ".join(
        f"{routing} {entry['speedup']:.1f}x" for routing, entry in fleet.items()
    )
    print(f"wrote {out_path} (fleet {speedups}, single {single_speedup:.1f}x)")

    # The acceptance bar: >= 8x on every routing's thousand-replay sweep.
    for routing, entry in fleet.items():
        assert entry["speedup"] >= MIN_BATCH_SPEEDUP, (
            f"batched engine is only {entry['speedup']:.1f}x faster than "
            f"looped single-replay kernel calls on {routing} "
            f"(need >= {MIN_BATCH_SPEEDUP}x)"
        )
