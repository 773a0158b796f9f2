"""Counter-correctness tests: obs counters vs ground-truth work counts.

The instrumentation is only useful if its numbers are exact, so each
test pins a counter against an independently observable quantity: the
context's memoisation counters against ``evaluated_points`` (every
distinct design point is a miss exactly once, every repeat a hit), the
record-memo solves against the contexts that share a configuration and
bound, the batch engine's batched/fallback split against a batch with
a known mix, the operating-point solve/hit split against the solver's
own calls, and the replay/tuner counters against the work the call
visibly performed.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.core.config import default_server
from repro.dvfs import GovernorSimulator, LoadTrace
from repro.dvfs.governors import PerformanceGovernor
from repro.fleet import (
    Autoscaler,
    DisturbanceSchedule,
    FleetSimulator,
    thermal_cap,
)
from repro.fleet.node import NodeState
from repro.kernels import BatchReplayRunner, ReplaySpec
from repro.opt import PolicyConfig, PolicyTuner
from repro.power.dram_power import LPDDR4_4GBIT_X8
from repro.scenarios import REGISTRY, ScenarioRunner
from repro.sweep.context import ModelContext, record_memo
from repro.technology.a57_model import CortexA57PowerModel, operating_point_memo
from repro.technology.process import BULK_28NM
from repro.workloads.banking_vm import (
    DEGRADATION_LIMIT_RELAXED,
    DEGRADATION_LIMIT_STRICT,
    VMS_LOW_MEM,
)
from repro.workloads.cloudsuite import WEB_SEARCH


@pytest.fixture(autouse=True)
def _clean_registry():
    obs.reset()
    yield
    assert not obs.is_enabled(), "a test leaked an open capture/enable"
    obs.reset()


# -- context memoisation ---------------------------------------------------------------


def test_memo_misses_match_evaluated_points_exactly_once():
    """Each distinct point is a miss exactly once; repeats are hits."""
    context = ModelContext(default_server())
    grid = context.configuration.frequency_grid
    with obs.capture() as cap:
        for frequency_hz in grid:
            context.evaluate(WEB_SEARCH, frequency_hz)
        for frequency_hz in grid:
            context.evaluate(WEB_SEARCH, frequency_hz)
    deltas = cap.counter_deltas()
    assert deltas["context.memo_misses"] == len(grid)
    assert deltas["context.memo_hits"] == len(grid)
    assert context.evaluated_points == len(grid)
    assert deltas["context.memo_misses"] == context.evaluated_points


def test_memo_counters_key_by_workload_and_frequency():
    context = ModelContext(default_server())
    frequency_hz = context.configuration.frequency_grid[0]
    with obs.capture() as cap:
        context.evaluate(WEB_SEARCH, frequency_hz)
        context.evaluate(VMS_LOW_MEM, frequency_hz)  # new point: same f
        context.evaluate(WEB_SEARCH, frequency_hz)  # repeat: a hit
    deltas = cap.counter_deltas()
    assert deltas["context.memo_misses"] == 2 == context.evaluated_points
    assert deltas["context.memo_hits"] == 1


def test_frequency_table_built_once_then_cache_hits():
    context = ModelContext(default_server())
    with obs.capture() as cap:
        context.frequency_table(WEB_SEARCH)
        context.frequency_table(WEB_SEARCH)
        context.frequency_table(WEB_SEARCH)
    deltas = cap.counter_deltas()
    assert deltas["context.table_builds"] == 1
    assert deltas["context.table_cache_hits"] == 2
    (span,) = [s for s in cap.spans if s.name == "context.table_build"]
    assert span.attributes["workload"] == WEB_SEARCH.name
    assert span.attributes["grid_points"] == len(
        context.configuration.frequency_grid
    )


# -- record memo -----------------------------------------------------------------------


def test_records_resolved_once_then_read_by_a_fresh_context():
    """Two fresh contexts on one configuration share the process record
    memo: each requests every grid point as a miss of its own, only the
    first runs the model stack, and both hold the same record objects."""
    record_memo.cache_clear()
    configuration = default_server()
    contexts, deltas = [], []
    for _ in range(2):
        context = ModelContext(configuration)
        grid = context.reachable_frequencies()
        with obs.capture() as cap:
            for frequency_hz in grid:
                context.evaluate(WEB_SEARCH, frequency_hz)
        contexts.append(context)
        deltas.append(cap.counter_deltas())
    first, second = deltas
    assert first["context.memo_misses"] == len(grid)
    assert second["context.memo_misses"] == len(grid)
    assert first["context.record_solves"] == len(grid)
    assert "context.record_solves" not in second
    earlier, later = contexts
    assert later.evaluated_points == len(grid)
    for frequency_hz in grid:
        record = earlier.evaluate(WEB_SEARCH, frequency_hz)
        assert later.evaluate(WEB_SEARCH, frequency_hz) is record


def test_record_memo_keeps_flavours_chips_and_bounds_apart():
    """A context that differs in technology flavour, DRAM chip or
    degradation bound -- and in nothing else, not even its name --
    solves its own records; flavour and chip change their values."""
    record_memo.cache_clear()
    base = default_server()
    workloads = (WEB_SEARCH, VMS_LOW_MEM)
    frequency_hz = base.frequency_grid[9]  # 1 GHz, reachable everywhere
    shared = ModelContext(base)
    base_records = [shared.evaluate(w, frequency_hz) for w in workloads]
    variants = {
        "technology": (dataclasses.replace(base, technology=BULK_28NM), None),
        "memory chip": (
            dataclasses.replace(base, memory_chip=LPDDR4_4GBIT_X8),
            None,
        ),
        "bound": (base, DEGRADATION_LIMIT_STRICT),
    }
    for label, (configuration, bound) in variants.items():
        context = ModelContext(
            configuration,
            shared.degradation_bound if bound is None else bound,
        )
        with obs.capture() as cap:
            records = [context.evaluate(w, frequency_hz) for w in workloads]
        assert cap.counter_deltas()["context.record_solves"] == 2, label
        for record, base_record in zip(records, base_records):
            assert record is not base_record, label
            if bound is None:
                assert record != base_record, label


def test_a_bound_filled_record_memo_leaves_another_bounds_qos_verdict():
    """After the relaxed bound filled the memo, a strict-bound context
    still fails a virtualized workload at each frequency whose
    degradation lies between the two bounds."""
    record_memo.cache_clear()
    relaxed = ModelContext(default_server(), DEGRADATION_LIMIT_RELAXED)
    between = [
        record
        for record in relaxed.evaluate_workload(VMS_LOW_MEM)
        if DEGRADATION_LIMIT_STRICT < record.degradation <= DEGRADATION_LIMIT_RELAXED
    ]
    assert between
    strict = ModelContext(default_server(), DEGRADATION_LIMIT_STRICT)
    for record in between:
        other = strict.evaluate(VMS_LOW_MEM, record.frequency_hz)
        assert other.degradation == record.degradation
        assert record.meets_qos and not other.meets_qos


# -- operating-point memo --------------------------------------------------------------


def test_operating_point_solved_once_per_key_then_hit_by_a_fresh_context(
    monkeypatch,
):
    """Two fresh contexts on one configuration share the process memo:
    the first solves each distinct key once, the second only hits.
    The record memo is cleared before each context, so both reach the
    solve memo."""
    operating_point_memo.cache_clear()
    solver_calls = []
    solve = CortexA57PowerModel.operating_point

    def logged(self, frequency_hz, activity=1.0):
        solver_calls.append((frequency_hz, activity))
        return solve(self, frequency_hz, activity)

    monkeypatch.setattr(CortexA57PowerModel, "operating_point", logged)
    configuration = default_server()
    workloads = (WEB_SEARCH, VMS_LOW_MEM)
    deltas = []
    for _ in range(2):
        record_memo.cache_clear()
        context = ModelContext(configuration)
        grid = context.reachable_frequencies()
        with obs.capture() as cap:
            for workload in workloads:
                for frequency_hz in grid:
                    context.evaluate(workload, frequency_hz)
        deltas.append(cap.counter_deltas())
    first, second = deltas
    requests = len(workloads) * len(grid)
    keys = {(f, workload.activity_factor) for workload in workloads for f in grid}
    assert sorted(solver_calls) == sorted(keys)
    assert first["context.operating_point_solves"] == len(keys)
    assert first.get("context.operating_point_hits", 0) == requests - len(keys)
    assert "context.operating_point_solves" not in second
    assert second["context.operating_point_hits"] == requests


_COLD_PASS = """
import json

from repro import obs
from repro.scenarios import REGISTRY, ScenarioRunner
from repro.technology.a57_model import CortexA57PowerModel

keys = []
solve = CortexA57PowerModel.operating_point


def logged(self, frequency_hz, activity=1.0):
    keys.append((self, frequency_hz, activity))
    return solve(self, frequency_hz, activity)


CortexA57PowerModel.operating_point = logged
with obs.capture() as cap:
    for name in REGISTRY.names():
        ScenarioRunner().run(name)
deltas = cap.counter_deltas()
print(json.dumps({
    "solves": deltas.get("context.operating_point_solves", 0),
    "hits": deltas.get("context.operating_point_hits", 0),
    "calls": len(keys),
    "keys": len(set(keys)),
}))
"""


def test_cold_pass_over_every_scenario_solves_each_key_once():
    """A fresh interpreter's first pass counts one solve per distinct
    (model value, frequency, activity) key, and nothing is solved twice."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    completed = subprocess.run(
        [sys.executable, "-c", _COLD_PASS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    counts = json.loads(completed.stdout.splitlines()[-1])
    assert counts["solves"] == counts["calls"] == counts["keys"] > 0
    assert counts["hits"] > 0


# -- batched vs fallback ---------------------------------------------------------------


def test_mixed_batch_counts_batched_and_fallback_exactly(default_context):
    """A known 2-kernel/1-fallback batch splits the counters exactly."""

    @dataclasses.dataclass(frozen=True)
    class FloorGovernor(PerformanceGovernor):
        def select(self, observation, platform):
            return platform.frequencies[0]

    trace = LoadTrace.constant(utilization=0.5, steps=8)
    specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor=FloorGovernor()),
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor="performance"),
        ReplaySpec(workload=VMS_LOW_MEM, trace=trace, governor="ondemand"),
    ]
    with obs.capture() as cap:
        result = BatchReplayRunner(default_context).run(specs)
    assert result.batched_count == 2 and result.fallback_count == 1
    deltas = cap.counter_deltas()
    assert deltas["batch.batched_replays"] == 2
    assert deltas["batch.fallback_replays"] == 1
    (span,) = [s for s in cap.spans if s.name == "batch.run"]
    assert span.attributes == {"batch_size": 3, "batched": 2, "fallback": 1}


def test_all_kernel_batch_counts_no_fallbacks(default_context):
    trace = LoadTrace.constant(utilization=0.4, steps=6)
    specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor=name)
        for name in ("performance", "ondemand", "powersave")
    ]
    with obs.capture() as cap:
        result = BatchReplayRunner(default_context).run(specs)
    assert result.batched_count == 3
    deltas = cap.counter_deltas()
    assert deltas["batch.batched_replays"] == 3
    assert "batch.fallback_replays" not in deltas


def test_fleet_batch_stage_spans_nest_once_per_batch_under_batch_run(
    default_context,
):
    """Every fleet batch opens each engine stage span once, never per
    step or per replay, directly under ``batch.run``."""
    traces = [LoadTrace.bursty(steps=12, seed=seed) for seed in (3, 4)]
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor=governor,
            fleet_size=3,
            routing=routing,
            autoscaler=Autoscaler(),
        )
        for routing in ("pack", "least_loaded")
        for governor in ("conservative", "qos_tracker")
        for trace in traces
    ]
    with obs.capture() as cap:
        result = BatchReplayRunner(default_context).run(specs)
    assert result.batched_count == len(specs)
    (run,) = [s for s in cap.spans if s.name == "batch.run"]
    for stage in (
        "batch.timeline",
        "batch.routing",
        "batch.selection",
        "batch.tails",
        "batch.reduce",
    ):
        spans = [s for s in cap.spans if s.name == stage]
        assert len(spans) == 4, stage  # one per (routing, governor) batch
        assert all(s.parent_id == run.span_id for s in spans), stage


# -- replay paths ----------------------------------------------------------------------


def test_dvfs_counters_distinguish_kernel_and_reference(default_context):
    simulator = GovernorSimulator(default_context, WEB_SEARCH)
    trace = LoadTrace.bursty(steps=30, seed=3)
    with obs.capture() as cap:
        simulator.replay(trace, "ondemand")
        simulator.replay(trace, "ondemand", reference=True)
    deltas = cap.counter_deltas()
    assert deltas["dvfs.kernel_replays"] == 1
    assert deltas["dvfs.reference_replays"] == 1
    spans = [s for s in cap.spans if s.name == "dvfs.replay"]
    assert [s.attributes["kernel"] for s in spans] == [True, False]
    assert all(s.attributes["governor"] == "ondemand" for s in spans)


def test_fleet_replay_span_and_tail_pair_counter(default_context):
    simulator = FleetSimulator(default_context, WEB_SEARCH, fleet_size=2)
    trace = LoadTrace.bursty(steps=20, seed=4)
    with obs.capture() as cap:
        result = simulator.run(trace, "pack")
    deltas = cap.counter_deltas()
    assert deltas["fleet.kernel_replays"] == 1
    # Only loaded serving node-steps hand the tail kernel a pair.
    loaded = sum(
        int(
            (
                (result.node_column(node, "state") == NodeState.SERVING)
                & (result.node_column(node, "demand_uips") > 0.0)
            ).sum()
        )
        for node in result.node_ids
    )
    assert 0 < deltas["fleet.tail_pairs"] <= loaded
    (span,) = [s for s in cap.spans if s.name == "fleet.replay"]
    assert span.attributes["routing"] == "pack"
    assert span.attributes["fleet_size"] == 2
    assert span.attributes["steps"] == len(trace)
    assert span.attributes["kernel"] is True
    assert span.attributes["disturbed"] is False


def test_capped_fleet_replays_count_kernel_not_reference(default_context):
    """Thermal caps run on the kernel alone and on the batch engine."""
    schedule = DisturbanceSchedule(events=(thermal_cap(0, 3, 1.2e9),))
    trace = LoadTrace.bursty(steps=12, seed=4)
    simulator = FleetSimulator(default_context, WEB_SEARCH, fleet_size=2)
    with obs.capture() as cap:
        simulator.run(trace, "pack", disturbances=schedule)
    deltas = cap.counter_deltas()
    assert deltas["fleet.kernel_replays"] == 1
    assert deltas.get("fleet.reference_replays", 0) == 0
    (span,) = [s for s in cap.spans if s.name == "fleet.replay"]
    assert span.attributes["kernel"] is True
    assert span.attributes["disturbed"] is True

    spec = ReplaySpec(
        workload=WEB_SEARCH,
        trace=trace,
        fleet_size=2,
        routing="pack",
        disturbances=schedule,
    )
    with obs.capture() as cap:
        BatchReplayRunner(default_context).run([spec])
    deltas = cap.counter_deltas()
    assert deltas["batch.batched_replays"] == 1
    assert "batch.fallback_replays" not in deltas
    assert "fleet.kernel_replays" not in deltas
    assert deltas.get("fleet.reference_replays", 0) == 0

    # reference=True still forces the object path for a capped schedule.
    with obs.capture() as cap:
        simulator.run(trace, "pack", reference=True, disturbances=schedule)
    deltas = cap.counter_deltas()
    assert deltas["fleet.reference_replays"] == 1
    assert deltas.get("fleet.kernel_replays", 0) == 0


def test_tuner_rung_span_counts_evaluations_and_duplicates(default_context):
    config = PolicyConfig(
        governor="qos_tracker",
        routing="pack",
        fleet_size=2,
        fill_fraction=0.75,
        band=None,
        wake_steps=1,
    )
    tuner = PolicyTuner(default_context, WEB_SEARCH, LoadTrace.diurnal())
    with obs.capture() as cap:
        tuner.evaluate([config, config])
    deltas = cap.counter_deltas()
    assert deltas["opt.evaluations"] == 1  # the duplicate deduplicates
    assert deltas["opt.duplicate_trials"] == 1
    (span,) = [s for s in cap.spans if s.name == "opt.rung"]
    assert span.attributes["configs"] == 2
    assert span.attributes["evaluations"] == 1
    assert span.attributes["duplicates"] == 1


@pytest.mark.parametrize(
    "scenario, per_rung",
    [
        ("opt_fleet_diurnal_websearch", [4]),
        ("opt_autoscaler_bursty", [2, 2, 2]),
    ],
)
def test_tuner_rungs_run_one_fleet_batch_per_governor_and_routing(
    scenario, per_rung
):
    """Fleet size, autoscaler and pack fill are per-row inputs of a
    fleet batch, so a rung opens one ``batch.selection`` span per
    (governor, routing kind) among its configs (36 configs, and 28, 10
    and 4), not one per config."""
    with obs.capture() as cap:
        ScenarioRunner().run(REGISTRY.get(scenario))
    parents = {span.span_id: span for span in cap.spans}
    rungs = [span for span in cap.spans if span.name == "opt.rung"]
    counts = dict.fromkeys((rung.span_id for rung in rungs), 0)
    for span in cap.spans:
        if span.name != "batch.selection":
            continue
        parent = parents.get(span.parent_id)
        while parent is not None and parent.name != "opt.rung":
            parent = parents.get(parent.parent_id)
        if parent is not None:
            counts[parent.span_id] += 1
    assert [counts[rung.span_id] for rung in rungs] == per_rung


def test_counters_stay_silent_while_disabled(default_context):
    trace = LoadTrace.constant(utilization=0.5, steps=6)
    BatchReplayRunner(default_context).run(
        [ReplaySpec(workload=WEB_SEARCH, trace=trace)]
    )
    assert obs.counters_snapshot() == {}
