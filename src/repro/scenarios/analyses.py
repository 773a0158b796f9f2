"""Named analyses a scenario can derive from its sweep.

Each analysis is a function ``(spec, context, sweep) -> dict`` producing
plain JSON-able data; :class:`~repro.scenarios.runner.ScenarioRunner`
stores the results under the analysis name in
:attr:`~repro.scenarios.runner.ScenarioResult.extras`.  Scenarios
declare the analyses they need by name in
:attr:`~repro.scenarios.spec.ScenarioSpec.analyses`, which keeps the
spec purely declarative while letting one runner serve experiments as
different as the Figure 2 QoS study, the Table I memory-power
derivation and the consolidation search.

Analyses reuse the scenario's shared :class:`ModelContext` and columnar
sweep wherever possible; imports of higher-level analysis modules are
local to each function to keep the package import graph acyclic.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.sweep.context import ModelContext
from repro.sweep.result import SweepResult
from repro.utils.units import mhz

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.spec import ScenarioSpec

AnalysisFn = Callable[["ScenarioSpec", ModelContext, SweepResult], dict]


def qos_floors(spec: "ScenarioSpec", context: ModelContext, sweep: SweepResult) -> dict:
    """Lowest QoS-respecting frequency per workload (Hz; None if none)."""
    return {
        name: sweep.filter(workload_name=name).qos_floor()
        for name in spec.workloads()
    }


def efficiency_optima(
    spec: "ScenarioSpec", context: ModelContext, sweep: SweepResult
) -> dict:
    """Efficiency-optimum frequency per workload and scope (Figures 3/4)."""
    from repro.analysis.tables import efficiency_optima_rows

    return {
        row["workload"]: {
            scope: row[scope] for scope in ("cores", "soc", "server")
        }
        for row in efficiency_optima_rows(sweep)
    }


def nominal_uips(
    spec: "ScenarioSpec", context: ModelContext, sweep: SweepResult
) -> dict:
    """Chip UIPS at the nominal frequency per workload."""
    return {
        name: context.nominal_performance(workload).chip_uips
        for name, workload in spec.workloads().items()
    }


def memory_table(
    spec: "ScenarioSpec", context: ModelContext, sweep: SweepResult
) -> dict:
    """Table I rows and the derived memory-subsystem power summary."""
    from repro.analysis.tables import memory_power_summary, table1_rows

    configuration = context.configuration
    return {
        "table1_rows": table1_rows(configuration.memory_chip),
        "summary": memory_power_summary(
            chip=configuration.memory_chip,
            organization=configuration.memory_organization,
        ),
    }


def body_bias(spec: "ScenarioSpec", context: ModelContext, sweep: SweepResult) -> dict:
    """Body-bias knob ablation at the 0.5V near-threshold point.

    Quantifies the three FD-SOI capabilities the paper lists (Section
    II-A): the threshold shift and frequency boost per volt of forward
    bias, the leakage cost, and the reverse-bias sleep-mode leakage
    reduction.
    """
    from repro.technology.body_bias import BodyBiasModel
    from repro.technology.leakage import LeakageModel

    technology = context.configuration.technology
    bias_model = BodyBiasModel(technology)
    leakage = LeakageModel(technology)
    # The V/f model depends only on technology and temperature, not on
    # the bias policy, so the scenario's own core model serves every row.
    vf_model = context.core_power_model.vf_model
    rows = []
    for bias in (0.0, 0.5, 1.0, 1.5, 2.0, 2.55):
        boost = vf_model.max_frequency(0.5, body_bias=bias)
        vth = bias_model.effective_threshold(bias)
        rows.append(
            {
                "forward_bias_v": bias,
                "effective_vth_v": vth,
                "max_frequency_at_0v5_hz": boost,
                "core_leakage_at_0v5_w": leakage.power(0.5, vth_eff=vth),
            }
        )
    return {
        "rows": rows,
        "sleep": {
            "active_leakage_at_0v8_w": leakage.power(0.8),
            "rbb_sleep_leakage_at_0v8_w": leakage.sleep_power(
                0.8, bias_model.sleep_leakage_fraction()
            ),
        },
    }


FIGURE1_FREQUENCIES_HZ = tuple(mhz(value) for value in range(100, 3501, 100))
"""Figure 1's frequency axis: 100MHz to 3.5GHz in 100MHz steps."""


def figure1(spec: "ScenarioSpec", context: ModelContext, sweep: SweepResult) -> dict:
    """Figure 1: supply voltage and chip core power versus frequency.

    One entry per :func:`~repro.technology.a57_model.default_flavour_models`
    flavour (bulk, FD-SOI, FD-SOI with forward body bias): its minimum
    functional voltage, the highest frequency it reaches there, and the
    Vdd and chip core power series over the points of
    :data:`FIGURE1_FREQUENCIES_HZ` it can reach.  Each flavour's points
    come from a context whose core model equals the flavour's model, so
    the process-wide solve memo serves them.
    """
    from repro.technology.a57_model import default_flavour_models

    configuration = context.configuration
    result = {}
    for label, model in default_flavour_models().items():
        flavour = ModelContext(
            configuration.with_technology(model.technology, model.bias_policy)
        )
        frequencies = flavour.reachable_frequencies(FIGURE1_FREQUENCIES_HZ)
        points = [flavour.operating_point(frequency) for frequency in frequencies]
        result[label] = {
            "min_functional_vdd_v": model.technology.min_functional_vdd,
            "frequency_at_min_vdd_hz": model.min_voltage_frequency(),
            "frequency_hz": list(frequencies),
            "vdd_v": [point.vdd for point in points],
            "chip_core_power_w": [
                point.total_power * configuration.core_count for point in points
            ],
        }
    return result


def memory_technology(
    spec: "ScenarioSpec", context: ModelContext, sweep: SweepResult
) -> dict:
    """Baseline versus alternative DRAM chip proportionality reports."""
    from repro.core.energy_proportionality import EnergyProportionalityAnalyzer
    from repro.power.dram_power import dram_chip_by_name

    if spec.compare_memory_chip is None:
        raise ValueError(
            f"scenario {spec.name!r}: the memory_technology analysis needs "
            "compare_memory_chip to be set"
        )
    analyzer = EnergyProportionalityAnalyzer(context)
    alternative = dram_chip_by_name(spec.compare_memory_chip)
    return {
        name: {
            chip: dataclasses.asdict(report)
            for chip, report in analyzer.memory_technology_comparison(
                workload, alternative_chip=alternative
            ).items()
        }
        for name, workload in spec.workloads().items()
    }


def consolidation(
    spec: "ScenarioSpec", context: ModelContext, sweep: SweepResult
) -> dict:
    """Best co-allocation plan per VM class versus the naive 2GHz plan."""
    from repro.core.consolidation import ConsolidationAnalyzer

    analyzer = ConsolidationAnalyzer(context)
    results = {}
    for name, workload in spec.workloads().items():
        best = analyzer.best_plan(workload)
        naive = analyzer.plan(
            workload, context.configuration.nominal_frequency_hz, vms_per_core=1
        )
        results[name] = {
            "best": _plan_dict(best),
            "naive": _plan_dict(naive),
            "energy_saving_fraction": (
                1.0
                - best.energy_per_giga_instructions
                / naive.energy_per_giga_instructions
            ),
        }
    return results


def _plan_dict(plan) -> dict:
    data = dataclasses.asdict(plan)
    data["energy_per_giga_instructions"] = plan.energy_per_giga_instructions
    return data


def _lowest_energy(
    summaries: Dict[str, dict],
    eligible: Optional[Callable[[str], bool]] = None,
) -> Optional[str]:
    """The key of the lowest-``total_energy_j`` eligible summary, or None.

    Eligible means zero violations unless ``eligible(key)`` decides;
    ``min`` keeps the first key on an energy tie.
    """
    keys = [
        key
        for key, summary in summaries.items()
        if (eligible(key) if eligible else summary["violation_count"] == 0)
    ]
    return min(
        keys, key=lambda key: summaries[key]["total_energy_j"], default=None
    )


def dvfs_replay(
    spec: "ScenarioSpec", context: ModelContext, sweep: SweepResult
) -> dict:
    """Governor replay of the spec's load trace over each workload.

    Replays every requested governor (all registered ones when the spec
    names none) on the spec's named trace, reusing the scenario's
    shared context so the operating points come from the same memoized
    evaluations as the sweep.  Scalars -- per-governor energy, mean
    frequency, energy per unit of work, violations -- are golden-pinned;
    the full per-step tables ride along under the private ``_steps``
    key as :meth:`~repro.dvfs.replay.ReplayResult.to_columns` lists
    (rendered by the CLI, excluded from the golden fixtures).
    """
    from repro.dvfs import GOVERNORS, GovernorSimulator, load_trace_by_name

    if spec.load_trace is None:
        raise ValueError(
            f"scenario {spec.name!r}: the dvfs_replay analysis needs "
            "load_trace to be set"
        )
    trace = load_trace_by_name(spec.load_trace)
    governor_names = spec.governors or tuple(GOVERNORS)

    summaries: Dict[str, dict] = {}
    steps: Dict[str, dict] = {}
    best: Dict[str, object] = {}
    for name, workload in spec.workloads().items():
        simulator = GovernorSimulator(
            context, workload, frequencies=spec.frequency_grid_hz
        )
        replays = simulator.compare(trace, governor_names)
        summaries[name] = {
            governor: replay.summary() for governor, replay in replays.items()
        }
        steps[name] = {
            governor: replay.to_columns() for governor, replay in replays.items()
        }
        best[name] = _lowest_energy(summaries[name])
    return {
        "trace": trace.summary(),
        "governors": list(governor_names),
        "replays": summaries,
        "best_governor_at_zero_violations": best,
        "_steps": steps,
    }


def fleet_replay(
    spec: "ScenarioSpec", context: ModelContext, sweep: SweepResult
) -> dict:
    """Multi-server fleet replay of the spec's load trace per workload.

    Runs every requested routing policy (all registered ones when the
    spec names none) over a fleet of ``spec.fleet_size`` servers, each
    running its own ``spec.fleet_governor`` instance, against the
    spec's named trace on the scenario's shared context.  When
    ``spec.fleet_autoscale`` is set the default
    :class:`~repro.fleet.autoscaler.Autoscaler` parks and wakes servers
    against its utilisation band.  Per-routing scalars and the
    :class:`~repro.fleet.economics.CostModel` rollups are golden-pinned;
    the full per-step fleet tables ride along under the private
    ``_steps`` key as :meth:`~repro.fleet.result.FleetResult.to_columns`
    lists (rendered by the CLI, excluded from the goldens).

    ``best_routing_at_zero_violations`` ranks by energy among routings
    with zero *node* violations (QoS/coverage at the chosen operating
    points, the replay-layer semantics); the queueing-tail columns are
    reported alongside as the informational contention metric --
    ``queue_violation_count`` in each summary says how much headroom
    the winner left the M/M/1-M/G/1 tail model.
    """
    from repro.fleet import Autoscaler, CostModel, FleetSimulator
    from repro.fleet.routing import ROUTERS
    from repro.dvfs import load_trace_by_name

    if spec.load_trace is None or spec.fleet_size is None:
        raise ValueError(
            f"scenario {spec.name!r}: the fleet_replay analysis needs "
            "load_trace and fleet_size to be set"
        )
    trace = load_trace_by_name(spec.load_trace)
    routing_names = spec.fleet_routings or tuple(ROUTERS)
    autoscaler = Autoscaler() if spec.fleet_autoscale else None
    cost_model = CostModel()

    summaries: Dict[str, dict] = {}
    economics: Dict[str, dict] = {}
    steps: Dict[str, dict] = {}
    best: Dict[str, object] = {}
    for name, workload in spec.workloads().items():
        simulator = FleetSimulator(
            context,
            workload,
            fleet_size=spec.fleet_size,
            governor=spec.fleet_governor,
            autoscaler=autoscaler,
            frequencies=spec.frequency_grid_hz,
        )
        results = simulator.compare(trace, routing_names)
        summaries[name] = {
            routing: result.summary() for routing, result in results.items()
        }
        economics[name] = {
            routing: cost_model.rollup(summary)
            for routing, summary in summaries[name].items()
        }
        steps[name] = {
            routing: result.to_columns() for routing, result in results.items()
        }
        best[name] = _lowest_energy(summaries[name])
    return {
        "trace": trace.summary(),
        "fleet_size": spec.fleet_size,
        "governor": spec.fleet_governor,
        "autoscaled": spec.fleet_autoscale,
        "routings": list(routing_names),
        "replays": summaries,
        "economics": economics,
        "best_routing_at_zero_violations": best,
        "_steps": steps,
    }


def fleet_stress(
    spec: "ScenarioSpec", context: ModelContext, sweep: SweepResult
) -> dict:
    """Fleet replay under injected disturbances, with resilience metrics.

    Replays the spec's trace -- optionally overlaid with a flash-crowd
    surge (``spec.surge_*``) -- through the spec's fleet while the
    spec's :meth:`~repro.scenarios.spec.ScenarioSpec.disturbance_schedule`
    fires timed node crashes, restores and thermal caps.  Per routing,
    the golden-pinned blocks are the ordinary replay summary plus
    :meth:`~repro.fleet.result.FleetResult.resilience`: recovery time
    and violations-during-respread per event, and the surge's peak
    per-step energy.  When a surge is configured, its landing step is
    tagged with a ``load_surge`` marker event so it gets a recovery row
    like any injected failure.  ``best_recovering_routing`` ranks by
    energy among routings that recover from *every* event before the
    trace ends.  The full per-step tables ride under the private
    ``_steps`` key as :meth:`~repro.fleet.result.FleetResult.to_columns`
    lists (rendered by the CLI, excluded from the goldens).
    """
    from repro.dvfs import load_trace_by_name
    from repro.fleet import Autoscaler, FleetSimulator, load_surge
    from repro.fleet.routing import ROUTERS

    if spec.load_trace is None or spec.fleet_size is None:
        raise ValueError(
            f"scenario {spec.name!r}: the fleet_stress analysis needs "
            "load_trace and fleet_size to be set"
        )
    trace = load_trace_by_name(spec.load_trace)
    schedule = spec.disturbance_schedule()
    if spec.surge_steps > 0:
        trace = trace.with_surge(
            spec.surge_start,
            spec.surge_steps,
            spec.surge_factor,
            shape=spec.surge_shape,
        )
        marker_step = min(max(spec.surge_start, 0), len(trace) - 1)
        schedule = schedule.with_events(load_surge(marker_step))
    routing_names = spec.fleet_routings or tuple(ROUTERS)
    autoscaler = Autoscaler() if spec.fleet_autoscale else None

    summaries: Dict[str, dict] = {}
    resilience: Dict[str, dict] = {}
    steps: Dict[str, dict] = {}
    best: Dict[str, object] = {}
    for name, workload in spec.workloads().items():
        simulator = FleetSimulator(
            context,
            workload,
            fleet_size=spec.fleet_size,
            governor=spec.fleet_governor,
            autoscaler=autoscaler,
            frequencies=spec.frequency_grid_hz,
        )
        results = simulator.compare(
            trace, routing_names, disturbances=schedule
        )
        summaries[name] = {
            routing: result.summary() for routing, result in results.items()
        }
        resilience[name] = {
            routing: result.resilience()
            for routing, result in results.items()
        }
        recovered = resilience[name]
        best[name] = _lowest_energy(
            summaries[name],
            lambda routing: recovered[routing]["unrecovered_events"] == 0,
        )
        steps[name] = {
            routing: result.to_columns() for routing, result in results.items()
        }
    return {
        "trace": trace.summary(),
        "fleet_size": spec.fleet_size,
        "governor": spec.fleet_governor,
        "autoscaled": spec.fleet_autoscale,
        "routings": list(routing_names),
        "events": schedule.summary(),
        "replays": summaries,
        "resilience": resilience,
        "best_recovering_routing": best,
        "_steps": steps,
    }


def policy_opt(
    spec: "ScenarioSpec", context: ModelContext, sweep: SweepResult
) -> dict:
    """Policy auto-tune against cost-per-QPS-at-QoS (the optimizer).

    Searches the spec's ``opt_*`` parameter space -- fleet size,
    governor, routing, pack fill fraction, autoscaler band and wake
    latency -- with the spec's strategy (exhaustive ``grid`` or
    prefix-based ``halving``), using the batched replay engine as the
    evaluation backend on the scenario's shared context.  Per workload,
    the golden-pinned block is :meth:`~repro.opt.result.OptResult.as_dict`:
    the deduplicated space, evaluation counters, the best config under
    the deterministic total order, and the energy-vs-QoS Pareto
    frontier.  The full trials table rides along under the private
    ``_trials`` key (rendered by the CLI, excluded from the goldens);
    batch throughput is observable through the ``repro.obs`` spans the
    tuner and batch runner record (surfaced by ``--timing``).
    """
    from repro.dvfs import load_trace_by_name
    from repro.opt import PolicyTuner

    if spec.load_trace is None:
        raise ValueError(
            f"scenario {spec.name!r}: the policy_opt analysis needs "
            "load_trace to be set"
        )
    trace = load_trace_by_name(spec.load_trace)
    space = spec.opt_param_space()

    optimization: Dict[str, dict] = {}
    best: Dict[str, object] = {}
    trials: Dict[str, list] = {}
    for name, workload in spec.workloads().items():
        tuner = PolicyTuner(
            context, workload, trace, frequencies=spec.frequency_grid_hz
        )
        result = tuner.tune(space, spec.opt_strategy_instance())
        optimization[name] = result.as_dict()
        best[name] = result.best_config.label()
        trials[name] = result.trial_dicts()
    return {
        "trace": trace.summary(),
        "strategy": spec.opt_strategy,
        "space": space.summary(),
        "optimization": optimization,
        "best_config": best,
        "_trials": trials,
    }


def sweep_governor_grid(
    spec: "ScenarioSpec", context: ModelContext, sweep: SweepResult
) -> dict:
    """Every governor against every registry trace, in one batch.

    The cross product of the spec's governors (all registered ones when
    it names none) and the registry's three time-varying traces
    (``diurnal``, ``bursty``, ``bitbrains``) is stacked into a single
    :class:`~repro.kernels.batch.BatchReplayRunner` call per scenario,
    so the whole grid is evaluated as one ``(B, T)`` tensor pass
    instead of B sequential replays.  The per-replay summaries are
    bit-identical to what sequential :meth:`GovernorSimulator.replay`
    calls produce, so the golden numbers double as an equivalence pin
    for the batched engine.

    Scalars are golden-pinned; the batch's wall-clock and
    replays-per-second are observable through the ``batch.run`` span
    the runner records (surfaced by ``--timing``, never golden-pinned
    because wall time is not deterministic).
    """
    from repro.dvfs import GOVERNORS, load_trace_by_name
    from repro.kernels.batch import BatchReplayRunner, ReplaySpec

    trace_names = ("diurnal", "bursty", "bitbrains")
    traces = {name: load_trace_by_name(name) for name in trace_names}
    governor_names = spec.governors or tuple(GOVERNORS)
    workloads = spec.workloads()

    runner = BatchReplayRunner(context, frequencies=spec.frequency_grid_hz)
    replay_specs = [
        ReplaySpec(
            workload=workload,
            trace=traces[trace_name],
            governor=governor,
        )
        for workload in workloads.values()
        for trace_name in trace_names
        for governor in governor_names
    ]
    batch = runner.run(replay_specs)
    summaries = batch.summaries()

    replays: Dict[str, dict] = {}
    best: Dict[str, dict] = {}
    position = 0
    for name in workloads:
        replays[name] = {}
        best[name] = {}
        for trace_name in trace_names:
            per_governor = {}
            for governor in governor_names:
                per_governor[governor] = summaries[position]
                position += 1
            replays[name][trace_name] = per_governor
            best[name][trace_name] = _lowest_energy(per_governor)
    return {
        "traces": {name: trace.summary() for name, trace in traces.items()},
        "governors": list(governor_names),
        "batch_size": len(batch),
        "batched_replays": batch.batched_count,
        "fallback_replays": batch.fallback_count,
        "replays": replays,
        "best_governor_at_zero_violations": best,
    }


ANALYSES: Dict[str, AnalysisFn] = {
    "qos_floors": qos_floors,
    "efficiency_optima": efficiency_optima,
    "nominal_uips": nominal_uips,
    "memory_table": memory_table,
    "body_bias": body_bias,
    "figure1": figure1,
    "memory_technology": memory_technology,
    "consolidation": consolidation,
    "dvfs_replay": dvfs_replay,
    "fleet_replay": fleet_replay,
    "fleet_stress": fleet_stress,
    "sweep_governor_grid": sweep_governor_grid,
    "policy_opt": policy_opt,
}
"""Registry of derived analyses, keyed by the name specs declare."""
