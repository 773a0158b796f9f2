"""Batched replay engine speedup vs looped single-replay kernel calls.

Times a thousand-replay fleet sweep -- every registered governor x
autoscaling on/off x 100 bursty trace seeds, four servers each --
through :class:`~repro.kernels.batch.BatchReplayRunner` (ten
``(100, 4, 60)`` tensor batches) and through the straightforward loop
of per-replay :meth:`FleetSimulator.run` calls, which already dispatch
to the single-replay kernels.  Both run on the same warmed
:class:`~repro.sweep.context.ModelContext`, so the measured work is
purely replay evaluation, and both paths are cross-checked summary for
summary first -- the batch axis must not buy a single bit of drift.

The tentpole's acceptance bar: the batched engine is at least **8x**
faster on the thousand-replay sweep, as the median of per-pair ratios
(the ``paired_walls`` fixture: each pair times both paths back to back,
so host-speed drift between pairs cancels out of the ratio).  A
thousand-replay single-server governor sweep is reported alongside
(unasserted).

Emits a machine-readable ``BENCH_batch.json`` artifact (set
``BENCH_BATCH_JSON`` to redirect it) so CI can archive the perf
trajectory.
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


def test_bench_batch_replay(benchmark, bench_artifact, paired_walls):
    context = ModelContext(default_server())
    traces = [
        LoadTrace.bursty(steps=_STEPS, seed=seed) for seed in range(_SEEDS)
    ]
    governors = list(GOVERNORS)
    scaler_settings = (None, Autoscaler())
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor=governor,
            fleet_size=_FLEET_SIZE,
            routing="round_robin",
            autoscaler=autoscaler,
        )
        for governor in governors
        for autoscaler in scaler_settings
        for trace in traces
    ]
    assert len(specs) == 1000
    runner = BatchReplayRunner(context)
    context.frequency_table(WEB_SEARCH)  # warm the shared table

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
                    summaries.append(
                        simulator.run(trace, "round_robin").summary()
                    )
        return summaries

    # Same thousand replays, summary for summary, bit for bit.
    batched = run_batched()
    looped = run_looped()
    assert batched == looped, "batched engine drifted from looped kernels"

    benchmark(run_batched)
    batched_s, looped_s, fleet_speedup = _median_walls_and_speedup(
        paired_walls(run_batched, run_looped, _REPEATS)
    )

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
        f"({len(specs)} fleet / {len(single_specs)} single replays)"
    )
    print(
        format_table(
            ("sweep", "batched (ms)", "looped (ms)", "median pair speedup"),
            [
                (
                    f"fleet {len(specs)} replays "
                    f"({_FLEET_SIZE} servers, {_STEPS} steps)",
                    f"{batched_s * 1e3:.1f}",
                    f"{looped_s * 1e3:.1f}",
                    f"{fleet_speedup:.1f}x",
                ),
                (
                    f"single-server {len(single_specs)} replays",
                    f"{single_batched_s * 1e3:.1f}",
                    f"{single_looped_s * 1e3:.1f}",
                    f"{single_speedup:.1f}x",
                ),
            ],
        )
    )

    artifact = {
        "benchmark": "batch_replay",
        "replays": len(specs),
        "fleet_size": _FLEET_SIZE,
        "steps": _STEPS,
        "governors": governors,
        "autoscaler_settings": len(scaler_settings),
        "trace_seeds": _SEEDS,
        "fleet": {
            "batched_s": batched_s,
            "looped_s": looped_s,
            "speedup": fleet_speedup,
            "min_speedup": MIN_BATCH_SPEEDUP,
        },
        "single_server": {
            "replays": len(single_specs),
            "batched_s": single_batched_s,
            "looped_s": single_looped_s,
            "speedup": single_speedup,
        },
    }
    out_path = bench_artifact("batch", artifact)
    print(
        f"wrote {out_path} (fleet {fleet_speedup:.1f}x, "
        f"single {single_speedup:.1f}x)"
    )

    # The acceptance bar: >= 8x on the thousand-replay fleet sweep.
    assert fleet_speedup >= MIN_BATCH_SPEEDUP, (
        f"batched engine is only {fleet_speedup:.1f}x faster than looped "
        f"single-replay kernel calls (need >= {MIN_BATCH_SPEEDUP}x)"
    )
