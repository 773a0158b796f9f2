"""Traced runs: timing wrappers around the program's entry points.

:class:`LayerTracer` replaces each public entry point named in
:data:`TARGETS` -- at every place the program looks it up -- with a
wrapper that opens a ``repro.obs`` span ``perfbench.<layer>``.  Only the
outermost call of a layer opens a span, so a layer's time is never
counted twice (``select_trace_indices`` calling ``select_step_indices``
is one selection).  :func:`pass_values` turns one pass's
:class:`~repro.obs.RunReport` into per-layer totals, self times and
counts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import repro.kernels.batch as batch_module
import repro.kernels.fleet as fleet_module
import repro.kernels.governors as governors_module
import repro.kernels.replay as replay_module
from repro import obs
from repro.dvfs.simulator import GovernorSimulator
from repro.fleet.simulator import FleetSimulator
from repro.opt.tuner import PolicyTuner
from repro.scenarios.analyses import ANALYSES
from repro.sweep.context import ModelContext
from repro.sweep.runner import SweepRunner

PREFIX = "perfbench."
OP_SPAN = PREFIX + "op"

# The analysis that drives the policy tuner is measured as opt.tune.
OPT_ANALYSIS = "policy_opt"


def _node_steps(runner, specs, *args, **kwargs) -> Dict[str, object]:
    return {
        "node_steps": sum(
            (spec.fleet_size or 1) * len(spec.trace) for spec in specs
        )
    }


# (layer, namespace, attribute, span-attribute function or None)
TARGETS: Tuple[Tuple[str, object, str, Optional[Callable]], ...] = (
    ("sweep.context", ModelContext, "reachable_frequencies", None),
    ("sweep.run", SweepRunner, "run", None),
    ("batch.run", batch_module.BatchReplayRunner, "run", _node_steps),
    ("batch.summaries", batch_module.BatchReplayResult, "summaries", None),
    ("governors.select", governors_module, "select_step_indices", None),
    ("governors.select", governors_module, "select_batch_trace_indices", None),
    ("governors.select", governors_module, "select_trace_indices", None),
    ("governors.select", batch_module, "select_step_indices", None),
    ("governors.select", batch_module, "select_batch_trace_indices", None),
    ("governors.select", fleet_module, "select_step_indices", None),
    ("governors.select", replay_module, "select_trace_indices", None),
    ("fleet_kernel.tails", fleet_module, "tail_latencies", None),
    ("fleet_kernel.columns", fleet_module, "fleet_replay_columns", None),
    ("fleet.run", FleetSimulator, "run", None),
    ("dvfs.replay", GovernorSimulator, "replay", None),
    ("opt.tune", PolicyTuner, "tune", None),
)


def _lookup(namespace, name: str):
    return namespace[name] if isinstance(namespace, dict) else vars(namespace)[name]


def _assign(namespace, name: str, value) -> None:
    if isinstance(namespace, dict):
        namespace[name] = value
    else:
        setattr(namespace, name, value)


class LayerTracer:
    """``with LayerTracer():`` -- the timing wrappers, installed while open."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []
        self._active: set = set()

    def _wrap(self, layer: str, original, attributes=None, **fixed):
        span_name = PREFIX + layer
        active = self._active

        def wrapper(*args, **kwargs):
            if layer in active:
                return original(*args, **kwargs)
            attrs = dict(fixed)
            if attributes is not None:
                attrs.update(attributes(*args, **kwargs))
            active.add(layer)
            try:
                with obs.trace(span_name, **attrs):
                    return original(*args, **kwargs)
            finally:
                active.discard(layer)

        return wrapper

    def _replace(self, namespace, name: str, layer: str, attributes=None, **fixed) -> None:
        original = _lookup(namespace, name)
        self._saved.append((namespace, name, original))
        _assign(namespace, name, self._wrap(layer, original, attributes, **fixed))

    def __enter__(self) -> "LayerTracer":
        for layer, namespace, name, attributes in TARGETS:
            self._replace(namespace, name, layer, attributes)
        for name in list(ANALYSES):
            if name != OPT_ANALYSIS:
                self._replace(ANALYSES, name, "scenarios.analysis", analysis=name)
        return self

    def __exit__(self, *exc) -> bool:
        while self._saved:
            _assign(*self._saved.pop())
        return False


# -- per-pass metrics --------------------------------------------------------------------

LAYER_TIMES = (
    ("sweep.context_s", "sweep.context"),
    ("sweep.run_s", "sweep.run"),
    ("batch.run_s", "batch.run"),
    ("batch.summaries_s", "batch.summaries"),
    ("governors.select_s", "governors.select"),
    ("fleet_kernel.tails_s", "fleet_kernel.tails"),
    ("fleet_kernel.columns_s", "fleet_kernel.columns"),
    ("opt.tune_s", "opt.tune"),
    ("scenarios.analysis_s", "scenarios.analysis"),
    ("scenarios.render_s", "scenarios.render"),
)

# The host times among the per-pass values, scaled to the reference
# host speed like the end-to-end times.
TIME_METRICS = frozenset(
    [metric for metric, _ in LAYER_TIMES]
    + ["batch.self_s", "batch.ns_per_node_step", "fleet.reference_s"]
)

# Counts that are fixed by the inputs: every pass of a run must repeat
# them exactly, or the run fails.
EXACT_COUNTS = (
    "batch.node_steps",
    "sweep.evaluated_points",
    "sweep.table_builds",
    "batch.batched_replays",
    "batch.fallback_replays",
    "governors.select_calls",
    "fleet.tail_pairs",
    "fleet.tail_unique_pairs",
    "opt.evaluations",
    "fleet.kernel_replays",
    "fleet.reference_replays",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_values(report) -> Dict[str, float]:
    """Per-layer times, self times and counts of one traced pass."""
    names = report.names
    durations = report.durations_s
    parents = report.parents
    owner: List[Optional[int]] = []
    for parent in parents:
        while parent is not None and not names[parent].startswith(PREFIX):
            parent = parents[parent]
        owner.append(parent)

    total: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    covered = 0.0
    op_wall = 0.0
    select_calls = 0
    node_steps = 0
    reference_s = 0.0
    for index, name in enumerate(names):
        duration = durations[index]
        if name == OP_SPAN:
            op_wall += duration
            continue
        if name == "fleet.replay" and not report.attributes[index].get("kernel", True):
            parent = parents[index]
            if parent is not None and names[parent] == PREFIX + "fleet.run":
                reference_s += durations[parent]
        if not name.startswith(PREFIX):
            continue
        layer = name[len(PREFIX):]
        total[layer] = total.get(layer, 0.0) + duration
        self_time[layer] = self_time.get(layer, 0.0) + duration
        parent = owner[index]
        if parent is not None:
            if names[parent] == OP_SPAN:
                covered += duration
            else:
                parent_layer = names[parent][len(PREFIX):]
                self_time[parent_layer] -= duration
        if layer == "governors.select":
            select_calls += 1
        elif layer == "batch.run":
            node_steps += int(report.attributes[index].get("node_steps", 0))

    get = lambda name: report.counters.get(name, 0)  # noqa: E731
    values = {metric: total.get(layer, 0.0) for metric, layer in LAYER_TIMES}
    values.update(
        {
            "batch.self_s": self_time.get("batch.run", 0.0),
            "batch.node_steps": node_steps,
            "batch.ns_per_node_step": _ratio(
                total.get("batch.run", 0.0) * 1e9, node_steps
            ),
            "batch.batched_replays": get("batch.batched_replays"),
            "batch.fallback_replays": get("batch.fallback_replays"),
            "batch.timeline_cache_hit_ratio": _ratio(
                get("batch.timeline_cache_hits"),
                get("batch.timeline_cache_hits") + get("batch.timeline_cache_misses"),
            ),
            "sweep.evaluated_points": get("context.memo_misses"),
            "sweep.memo_hit_ratio": _ratio(
                get("context.memo_hits"),
                get("context.memo_hits") + get("context.memo_misses"),
            ),
            "sweep.table_builds": get("context.table_builds"),
            "sweep.table_cache_hit_ratio": _ratio(
                get("context.table_cache_hits"),
                get("context.table_cache_hits") + get("context.table_builds"),
            ),
            "governors.select_calls": select_calls,
            "fleet.tail_pairs": get("fleet.tail_pairs"),
            "fleet.tail_unique_pairs": get("fleet.tail_unique_pairs"),
            "fleet_kernel.tail_unique_ratio": _ratio(
                get("fleet.tail_unique_pairs"), get("fleet.tail_pairs")
            ),
            "fleet.kernel_replays": get("fleet.kernel_replays"),
            "fleet.reference_replays": get("fleet.reference_replays"),
            "fleet.reference_s": reference_s,
            "opt.evaluations": get("opt.evaluations"),
            "opt.duplicate_ratio": _ratio(
                get("opt.duplicate_trials"),
                get("opt.duplicate_trials") + get("opt.evaluations"),
            ),
            "obs.span_coverage_frac": _ratio(covered, op_wall),
        }
    )
    return values
