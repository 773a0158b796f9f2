"""The benchmark's workloads: seeded inputs, timed ops, correctness gates.

Each ``prepare_*`` function builds one workload from a seed and returns a
:class:`Workload`: one pass of :class:`Op` objects in a seeded order, a
fingerprint of each op's output, and the gate that says which
fingerprint every case must produce.  The program only ever sees the
generated traces and specs; the seed stays here.

Only public entry points of ``repro`` are called, and nothing in the
program is changed.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping

import numpy as np

from repro.core.config import default_server
from repro.dvfs import GOVERNORS, GovernorSimulator, LoadTrace
from repro.fleet import (
    Autoscaler,
    DisturbanceSchedule,
    FleetSimulator,
    node_crash,
    node_restore,
    thermal_cap,
)
from repro.fleet.routing import ROUTERS
from repro.kernels import BatchReplayRunner, ReplaySpec
from repro.scenarios import REGISTRY, ScenarioRunner
from repro import obs
from repro.sweep.context import ModelContext
from repro.workloads.cloudsuite import WEB_SEARCH

FLEET_SIZE = 8
THERMAL_CAP_HZ = 1.2e9

# (governor, autoscaled, trace index) -> the disturbance its fleet_sweep
# spec carries, once per routing.  Fixed positions keep the work of a
# pass the same for every seed; the seed only draws node and step.
DISTURBED = {
    ("qos_tracker", True, 0): "crash",
    ("ondemand", False, 1): "thermal",
}

# Counters whose sum is the number of replays an op completed: batched
# rows plus every per-replay simulator call (fallback replays of a batch
# go through the simulators, so they are counted there, not twice).
REPLAY_COUNTERS = (
    "batch.batched_replays",
    "fleet.kernel_replays",
    "fleet.reference_replays",
    "dvfs.kernel_replays",
    "dvfs.reference_replays",
)


@dataclass(frozen=True)
class Op:
    """One timed operation: the unit every percentile is taken over."""

    case: str
    run: Callable[[], object]


@dataclass
class Workload:
    """One pass of ops plus the means to check what they returned.

    ``fingerprint(case, output)`` reduces an op's output to a digest
    (called outside the timed window).  ``expected()`` runs the gate --
    reference replays or golden fixtures -- and returns the digest each
    case must produce.
    """

    name: str
    ops: List[Op]
    fingerprint: Callable[[str, object], str]
    expected: Callable[[], Dict[str, str]]
    replays: Dict[str, int] = field(default_factory=dict)


# -- fingerprints ------------------------------------------------------------------------


def _canonical(value):
    """A JSON-able twin of ``value`` that keeps every float bit (as hex)."""
    if value is None or isinstance(value, (bool, np.bool_, str)):
        return bool(value) if isinstance(value, np.bool_) else value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    if isinstance(value, Mapping):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    raise TypeError(f"cannot fingerprint a {type(value).__name__}")


def digest(value) -> str:
    """Bit-exact digest of a nested summary (NaN and -0.0 included)."""
    text = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def count_replays(workload: Workload) -> None:
    """Run one pass with counters on, the untimed warm-up.

    Fills ``workload.replays`` with the replays one op of each case
    completes, from the program's own counters.
    """
    for op in workload.ops:
        with obs.capture() as window:
            op.run()
        counters = window.counter_deltas()
        workload.replays[op.case] = sum(
            int(counters.get(name, 0)) for name in REPLAY_COUNTERS
        )


# -- fleet_sweep -------------------------------------------------------------------------


def _fleet_traces(rng: random.Random) -> List[LoadTrace]:
    """Six diurnal and six bursty traces; half a day long, half 2/3 of it."""
    traces = []
    for index in range(12):
        steps = 288 if index < 6 else 192
        seed = rng.randrange(2**31)
        if index % 2 == 0:
            traces.append(
                LoadTrace.diurnal(steps=steps, step_seconds=300.0, seed=seed)
            )
        else:
            traces.append(LoadTrace.bursty(steps=steps, seed=seed))
    return traces


def _disturbance(rng: random.Random, kind: str, steps: int) -> DisturbanceSchedule:
    node = rng.randrange(FLEET_SIZE)
    step = rng.randrange(steps // 4, steps // 2)
    if kind == "crash":
        back = step + rng.randrange(12, 48)
        return DisturbanceSchedule((node_crash(node, step), node_restore(node, back)))
    return DisturbanceSchedule((thermal_cap(node, step, THERMAL_CAP_HZ),))


def _reference_fleet_summary(context: ModelContext, spec: ReplaySpec) -> dict:
    simulator = FleetSimulator(
        context,
        spec.workload,
        fleet_size=spec.fleet_size,
        governor=spec.governor,
        autoscaler=spec.autoscaler,
    )
    return simulator.run(
        spec.trace, spec.routing, reference=True, disturbances=spec.disturbances
    ).summary()


def prepare_fleet_sweep(seed: int, phase) -> Workload:
    """480 Web Search fleet replays (N=8) as one batched op.

    Every routing x governor x autoscaler off/on, over twelve seeded
    traces; four specs carry a crash/restore schedule and four a
    thermal cap, so they leave the tensor engine for the per-replay
    paths.  The seed draws the traces, the disturbed node and step, and
    the sample checked against the reference path.
    """
    with phase("tables"):
        context = ModelContext(default_server())
        context.frequency_table(WEB_SEARCH)
    with phase("inputs"):
        rng = random.Random(seed)
        traces = _fleet_traces(rng)
        specs: List[ReplaySpec] = []
        disturbed: List[int] = []
        for routing in ROUTERS:
            for governor in GOVERNORS:
                for autoscaler in (None, Autoscaler()):
                    for index, trace in enumerate(traces):
                        kind = DISTURBED.get((governor, autoscaler is not None, index))
                        if kind is not None:
                            disturbed.append(len(specs))
                        specs.append(
                            ReplaySpec(
                                workload=WEB_SEARCH,
                                trace=trace,
                                governor=governor,
                                fleet_size=FLEET_SIZE,
                                routing=routing,
                                autoscaler=autoscaler,
                                disturbances=(
                                    None
                                    if kind is None
                                    else _disturbance(rng, kind, len(trace))
                                ),
                            )
                        )
        undisturbed = sorted(set(range(len(specs))) - set(disturbed))
        sample = sorted(rng.sample(undisturbed, 12) + disturbed)
        runner = BatchReplayRunner(context)

    def expected() -> Dict[str, str]:
        summaries = runner.run(specs).summaries()
        for position in sample:
            reference = _reference_fleet_summary(context, specs[position])
            if digest(reference) != digest(summaries[position]):
                return {"population": "reference mismatch"}
        return {"population": digest(summaries)}

    return Workload(
        name="fleet_sweep",
        ops=[Op("population", lambda: runner.run(specs).summaries())],
        fingerprint=lambda case, output: digest(output),
        expected=expected,
    )


# -- replay_mix --------------------------------------------------------------------------

# Ops of each case in one 40-op pass.  Sorted by latency the cases run
# dvfs < pack_t48 < round_robin_t288 < spread/crash/pack_t288 <
# thermal_cap < least_loaded_t2016, so the weights put the median in the
# middle of round_robin_t288's share (35%..65%) and the 90th percentile
# in the middle of thermal_cap's (85%..95%): neither sits on a boundary
# between two cases, where it would flip from run to run.
MIX_WEIGHTS = {
    "pack_t48": 4,
    "round_robin_t288": 12,
    "spread_t288": 3,
    "crash_restore": 3,
    "pack_t288": 2,
    "thermal_cap": 4,
    "least_loaded_t2016": 2,
}
DVFS_OPS_PER_GOVERNOR = 2


def prepare_replay_mix(seed: int, phase) -> Workload:
    """Single fleet replays (N=8, qos_tracker) and week-long governor replays."""
    with phase("tables"):
        context = ModelContext(default_server())
        context.frequency_table(WEB_SEARCH)
        fleet = FleetSimulator(context, WEB_SEARCH, fleet_size=FLEET_SIZE)
        single = GovernorSimulator(context, WEB_SEARCH)
    with phase("inputs"):
        rng = random.Random(seed)
        day = LoadTrace.diurnal(steps=288, step_seconds=300.0, seed=rng.randrange(2**31))
        short_day = LoadTrace.diurnal(steps=48, seed=rng.randrange(2**31))
        fleet_week = LoadTrace.diurnal(
            steps=2016, step_seconds=300.0, periods=7.0, seed=rng.randrange(2**31)
        )
        burst = LoadTrace.bursty(steps=288, seed=rng.randrange(2**31))
        server_week = LoadTrace.from_bitbrains(steps=2016, seed=rng.randrange(2**31))
        fleet_cases = {
            "pack_t48": (short_day, "pack", None),
            "pack_t288": (day, "pack", None),
            "least_loaded_t2016": (fleet_week, "least_loaded", None),
            "round_robin_t288": (day, "round_robin", None),
            "spread_t288": (day, "spread", None),
            "crash_restore": (day, "round_robin", _disturbance(rng, "crash", len(day))),
            "thermal_cap": (burst, "round_robin", _disturbance(rng, "thermal", len(burst))),
        }

        def fleet_op(case: str) -> Op:
            trace, routing, disturbances = fleet_cases[case]
            return Op(
                case,
                lambda: fleet.run(trace, routing, disturbances=disturbances).summary(),
            )

        def dvfs_op(governor: str) -> Op:
            return Op(
                f"dvfs.{governor}",
                lambda: single.replay(server_week, governor).summary(),
            )

        ops = [
            fleet_op(case)
            for case, weight in MIX_WEIGHTS.items()
            for _ in range(weight)
        ] + [
            dvfs_op(governor)
            for governor in GOVERNORS
            for _ in range(DVFS_OPS_PER_GOVERNOR)
        ]
        rng.shuffle(ops)

    def expected() -> Dict[str, str]:
        digests = {}
        for case, (trace, routing, disturbances) in fleet_cases.items():
            digests[case] = digest(
                fleet.run(
                    trace, routing, reference=True, disturbances=disturbances
                ).summary()
            )
        for governor in GOVERNORS:
            digests[f"dvfs.{governor}"] = digest(
                single.replay(server_week, governor, reference=True).summary()
            )
        return digests

    return Workload(
        name="replay_mix",
        ops=ops,
        fingerprint=lambda case, output: digest(output),
        expected=expected,
    )


# -- scenario_suite ----------------------------------------------------------------------


def _run_and_render(spec):
    result = ScenarioRunner().run(spec)
    with obs.trace("perfbench.scenarios.render"):
        json.dumps(result.as_dict(), allow_nan=False)
    return result


def _key_scalars_digest(case: str, result) -> str:
    # Round-trip through strict JSON so the digest sees what a golden
    # fixture holds (lists for tuples, the same int/float split).
    return digest(json.loads(json.dumps(result.key_scalars(), allow_nan=False)))


def prepare_scenario_suite(seed: int, phase, golden_dir: Path) -> Workload:
    """Every registered scenario, run and rendered, in a seeded order."""
    with phase("tables"):
        golden = {
            name: json.loads((golden_dir / f"{name}.json").read_text(encoding="utf-8"))
            for name in REGISTRY.names()
        }
    with phase("inputs"):
        specs = REGISTRY.specs()
        random.Random(seed).shuffle(specs)
        ops = [Op(spec.name, lambda spec=spec: _run_and_render(spec)) for spec in specs]

    return Workload(
        name="scenario_suite",
        ops=ops,
        fingerprint=_key_scalars_digest,
        expected=lambda: {name: digest(data) for name, data in golden.items()},
    )


def prepare(name: str, seed: int, root: Path, phase) -> Workload:
    """Build workload ``name`` for ``seed`` (``root`` is the checkout).

    ``phase(name)`` is a context manager timing the set-up phases
    ``tables`` and ``inputs``.
    """
    if name == "fleet_sweep":
        return prepare_fleet_sweep(seed, phase)
    if name == "replay_mix":
        return prepare_replay_mix(seed, phase)
    if name == "scenario_suite":
        return prepare_scenario_suite(seed, phase, root / "tests" / "golden")
    raise ValueError(f"unknown workload {name!r}")
