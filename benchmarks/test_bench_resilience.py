"""Guarded-path overhead on a fault-free thousand-replay batch.

Batch quarantine must be effectively free when nothing fails: the
quarantine-mode :class:`~repro.kernels.batch.BatchReplayRunner` pays
one ``try`` frame per replay, and on the same thousand-replay fleet
sweep as ``test_bench_batch_replay`` that must stay **under 3%** of
the plain runner's wall time -- after first cross-checking that both
modes produce bit-identical summaries.  The gate is the median of
per-pair ratios (the ``paired_walls`` fixture): each pair times the
two modes back to back, so a host whose speed drifts between pairs
scales both walls of a pair alike.

Emits a machine-readable ``BENCH_resilience.json`` artifact (set
``BENCH_RESILIENCE_JSON`` to redirect it).
"""

import statistics

from repro.core.config import default_server
from repro.dvfs import GOVERNORS, LoadTrace
from repro.fleet import Autoscaler
from repro.kernels import BatchReplayRunner, ReplaySpec
from repro.sweep.context import ModelContext
from repro.utils.tables import format_table
from repro.workloads.cloudsuite import WEB_SEARCH

MAX_GUARDED_OVERHEAD = 0.03
# The two paths differ by one predictable branch per replay, so the
# true gap is well under 1%; the median of 36 back-to-back pair ratios
# keeps shared-machine speed swings from dominating the comparison
# (12 pairs read -3.9% to +4.5% across solo runs, 36 pairs -0.0% to
# +1.6%).
_REPEATS = 36
_SEEDS = 100
_STEPS = 60
_FLEET_SIZE = 4


def test_bench_resilience_overhead(benchmark, bench_artifact, paired_walls):
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
    plain = BatchReplayRunner(context)
    guarded = BatchReplayRunner(context, on_error="quarantine")
    context.frequency_table(WEB_SEARCH)  # warm the shared table

    def run_plain():
        return plain.run(specs).summaries()

    def run_guarded():
        return guarded.run(specs).summaries()

    # Fault-free quarantine mode must not buy a single bit of drift.
    assert run_guarded() == run_plain(), "guarded path drifted"

    benchmark(run_guarded)
    pairs = paired_walls(run_plain, run_guarded, _REPEATS)
    overhead = statistics.median(guarded / plain for plain, guarded in pairs) - 1.0
    plain_s = statistics.median(plain for plain, _ in pairs)
    guarded_s = statistics.median(guarded for _, guarded in pairs)

    print()
    print(
        f"Guarded replay path vs plain batch ({len(specs)} fleet replays)"
    )
    print(
        format_table(
            ("mode", "median (ms)", "median pair overhead"),
            [
                ("plain", f"{plain_s * 1e3:.1f}", "-"),
                (
                    "quarantine (no faults)",
                    f"{guarded_s * 1e3:.1f}",
                    f"{overhead * 100:+.2f}%",
                ),
            ],
        )
    )

    artifact = {
        "benchmark": "resilience",
        "replays": len(specs),
        "fleet_size": _FLEET_SIZE,
        "steps": _STEPS,
        "governors": governors,
        "autoscaler_settings": len(scaler_settings),
        "trace_seeds": _SEEDS,
        "plain_s": plain_s,
        "guarded_s": guarded_s,
        "overhead": overhead,
        "max_overhead": MAX_GUARDED_OVERHEAD,
    }
    out_path = bench_artifact("resilience", artifact)
    assert out_path.exists()

    assert overhead < MAX_GUARDED_OVERHEAD, (
        f"fault-free quarantine mode costs {overhead * 100:.2f}% over the "
        f"plain batch in the median pair (limit "
        f"{MAX_GUARDED_OVERHEAD * 100:.0f}%): medians "
        f"{guarded_s * 1e3:.1f} ms vs {plain_s * 1e3:.1f} ms"
    )
