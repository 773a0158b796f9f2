"""Policy auto-tuner vs the hand-written fleet config, plus halving economics.

Tunes the diurnal Web Search fleet over a 72-config policy space
(fleet size x governor x routing x pack fill x autoscaler band) with
exhaustive grid search (pytest-benchmark times the tune) and with
prefix-based successive halving, and compares the tuned optimum
against the best *hand-written* configuration the fleet benchmark
crowned: ``pack`` routing, the default autoscaler band, eight servers,
per-server ``qos_tracker`` governors.

Two acceptance bars:

* the tuned policy **strictly beats** the hand-written config on annual
  cost per sustained QPS at equal-or-better QoS (the hand-written
  config is itself a point of the search space, so the tuner can only
  win by finding something better -- not by grading itself on a curve);
* successive halving reaches the **same optimum** as exhaustive grid
  search with at least **3x fewer** full-length replay evaluations.

Emits a machine-readable ``BENCH_opt.json`` artifact (set
``BENCH_OPT_JSON`` to redirect it) so CI can archive the tuner's
trajectory.
"""

import time

from repro.dvfs import LoadTrace
from repro.fleet import Autoscaler, CostModel, FleetSimulator
from repro.opt import (
    GridSearch,
    ParamSpace,
    PolicyConfig,
    PolicyTuner,
    SuccessiveHalving,
)
from repro.sweep.context import ModelContext
from repro.utils.tables import format_table
from repro.workloads.cloudsuite import WEB_SEARCH

MIN_FULL_EVAL_RATIO = 3.0
_REPEATS = 3

SPACE = ParamSpace(
    fleet_sizes=(6, 7, 8),
    governors=("qos_tracker", "ondemand"),
    routings=("pack", "least_loaded", "spread"),
    fill_fractions=(0.75, 0.9),
    bands=(None, (0.35, 0.75), (0.5, 0.9)),
    wake_steps=(1,),
)

# The best hand-written config from the fleet-routing benchmark:
# pack + default autoscaler band over eight qos_tracker servers.
HAND_WRITTEN = PolicyConfig(
    governor="qos_tracker",
    routing="pack",
    fleet_size=8,
    fill_fraction=0.75,
    band=(Autoscaler().low, Autoscaler().high),
    wake_steps=Autoscaler().wake_steps,
)

HALVING = SuccessiveHalving(keep_fraction=0.25, prefix_steps=(12, 24))


def _best_of(function, repeats=_REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best


def test_bench_policy_opt(benchmark, server_configuration, bench_artifact):
    trace = LoadTrace.diurnal()
    context = ModelContext(server_configuration)
    tuner = PolicyTuner(context, WEB_SEARCH, trace)
    context.frequency_table(WEB_SEARCH)  # warm the shared table

    # The hand-written config through the object path: simulator +
    # cost-model rollup, exactly how the fleet benchmark scored it.
    simulator = FleetSimulator(
        context,
        WEB_SEARCH,
        fleet_size=HAND_WRITTEN.fleet_size,
        autoscaler=Autoscaler(),
    )
    hand_result = simulator.run(trace, HAND_WRITTEN.routing_policy())
    hand_rollup = CostModel().rollup(hand_result.summary())
    hand_cost = hand_rollup["cost_per_qps_year"]

    # The same config is a point of the search space, and the tuner's
    # economics must agree with the object path bit for bit.
    assert HAND_WRITTEN in SPACE.configs()
    hand_trial = tuner.evaluate([HAND_WRITTEN])[0]
    assert hand_trial.economics["cost_per_qps_year"] == hand_cost
    assert (
        hand_trial.summary["violation_count"] == hand_result.violation_count
    )

    grid = benchmark(lambda: tuner.tune(SPACE, GridSearch()))
    grid_s = _best_of(lambda: tuner.tune(SPACE, GridSearch()))
    halving = tuner.tune(SPACE, HALVING)
    halving_s = _best_of(lambda: tuner.tune(SPACE, HALVING))
    # tune() resets the counters per call; re-read them from the kept
    # results, not the tuner.
    best = grid.best_trial

    print()
    print(
        f"Policy auto-tune over {SPACE.size} configs "
        f"({SPACE.raw_size} raw), diurnal Web Search day"
    )
    print(
        format_table(
            ("config", "viol", "$/QPS-yr", "full evals", "wall (ms)"),
            [
                (
                    f"hand-written: {HAND_WRITTEN.label()}",
                    hand_result.violation_count,
                    f"{hand_cost:.5f}",
                    "-",
                    "-",
                ),
                (
                    f"grid tuned: {best.config.label()}",
                    best.summary["violation_count"],
                    f"{best.objective:.5f}",
                    grid.full_length_evaluations,
                    f"{grid_s * 1e3:.0f}",
                ),
                (
                    f"halving tuned: {halving.best_config.label()}",
                    halving.best_trial.summary["violation_count"],
                    f"{halving.best_trial.objective:.5f}",
                    halving.full_length_evaluations,
                    f"{halving_s * 1e3:.0f}",
                ),
            ],
        )
    )

    artifact = {
        "benchmark": "policy_opt_diurnal_websearch",
        "space": SPACE.summary(),
        "trace": trace.summary(),
        "hand_written": {
            "config": HAND_WRITTEN.as_dict(),
            "cost_per_qps_year": hand_cost,
            "violation_count": hand_result.violation_count,
        },
        "grid": {
            "best": grid.as_dict()["best"],
            "full_length_evaluations": grid.full_length_evaluations,
            "wall_s": grid_s,
        },
        "halving": {
            "best": halving.as_dict()["best"],
            "evaluations": halving.evaluations,
            "full_length_evaluations": halving.full_length_evaluations,
            "wall_s": halving_s,
            "keep_fraction": HALVING.keep_fraction,
            "prefix_steps": list(HALVING.prefix_steps),
        },
        "tuned_vs_hand_written_saving": 1.0 - best.objective / hand_cost,
        "full_eval_ratio": (
            grid.full_length_evaluations / halving.full_length_evaluations
        ),
    }
    out_path = bench_artifact("opt", artifact)
    print(
        f"wrote {out_path} "
        f"(saving {artifact['tuned_vs_hand_written_saving'] * 100:.2f}%, "
        f"full-eval ratio {artifact['full_eval_ratio']:.1f}x)"
    )

    # Bar 1: the tuned policy strictly beats the hand-written config on
    # cost per QPS at equal-or-better QoS.
    assert hand_result.violation_count == 0
    assert best.feasible and best.summary["violation_count"] == 0
    assert best.objective < hand_cost, (
        f"tuned policy ({best.objective:.6f} $/QPS-yr) does not beat the "
        f"hand-written config ({hand_cost:.6f} $/QPS-yr)"
    )

    # Bar 2: halving reaches the same optimum as exhaustive grid search
    # with >= 3x fewer full-length replay evaluations.
    assert halving.best_config == grid.best_config
    assert halving.best_trial.summary == best.summary
    ratio = grid.full_length_evaluations / halving.full_length_evaluations
    assert ratio >= MIN_FULL_EVAL_RATIO, (
        f"halving used {halving.full_length_evaluations} full-length "
        f"evaluations vs grid's {grid.full_length_evaluations} "
        f"(only {ratio:.1f}x fewer, need >= {MIN_FULL_EVAL_RATIO}x)"
    )
