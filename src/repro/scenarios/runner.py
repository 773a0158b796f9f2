"""Scenario execution: spec -> shared context -> sweep -> result.

:class:`ScenarioRunner` is the single execution path for every
registered experiment: it materialises the spec's configuration and
workloads, builds one :class:`~repro.sweep.context.ModelContext`, runs
one batched :class:`~repro.sweep.runner.SweepRunner` pass, derives the
per-workload :class:`~repro.sweep.result.DseSummary` rows from that
single table, and evaluates the spec's declared analyses.  The uniform
:class:`ScenarioResult` is what figures, benchmarks, the CLI and the
golden-regression tests all consume.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List

from repro import obs
from repro.scenarios.registry import REGISTRY, ScenarioRegistry
from repro.scenarios.spec import ScenarioSpec
from repro.sweep.context import ModelContext
from repro.sweep.result import DseSummary, SweepResult


def _round(value: float | None) -> float | None:
    """Round to 9 significant digits for stable golden JSON."""
    if value is None:
        return None
    return float(f"{value:.9g}")


def _round_tree(value):
    """Apply :func:`_round` to every float in a nested JSON-able value."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return _round(value)
    if isinstance(value, dict):
        return {key: _round_tree(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_tree(item) for item in value]
    return value


def _public_tree(value):
    """Drop underscore-prefixed dict keys from a nested JSON-able value.

    Analyses use ``_``-prefixed keys for bulky row-level payloads (the
    per-step governor replay tables) that the CLI renders but the
    golden fixtures must not pin.
    """
    if isinstance(value, dict):
        return {
            key: _public_tree(item)
            for key, item in value.items()
            if not (isinstance(key, str) and key.startswith("_"))
        }
    if isinstance(value, (list, tuple)):
        return [_public_tree(item) for item in value]
    return value


@dataclass(eq=False)
class ScenarioResult:
    """Everything one scenario run produced.

    ``sweep`` is the full columnar table of (workload, frequency)
    operating points, ``summaries`` the per-workload reductions in
    sweep order, and ``extras`` the outputs of the spec's declared
    analyses keyed by analysis name.
    """

    spec: ScenarioSpec
    sweep: SweepResult
    summaries: List[DseSummary]
    extras: Dict[str, dict]
    context: ModelContext

    @property
    def name(self) -> str:
        """The scenario's registry name."""
        return self.spec.name

    def summary_by_workload(self) -> Dict[str, DseSummary]:
        """Summaries keyed by workload name."""
        return {summary.workload_name: summary for summary in self.summaries}

    # -- serialisation ------------------------------------------------------------------

    def summary_rows(self) -> List[Dict[str, object]]:
        """Summaries as plain dicts (one row per workload)."""
        return [dataclasses.asdict(summary) for summary in self.summaries]

    def key_scalars(self) -> Dict[str, object]:
        """The scenario's golden scalars: the numbers a figure pins.

        Per workload: the QoS/degradation frequency floor, the
        efficiency-optimum frequency at each power scope, the best
        QoS-respecting operating point (frequency, efficiency), the
        peak efficiency at the spec's headline scope, and the energy
        per 10^9 user instructions at the best QoS-respecting point.
        Floats are rounded to 9 significant digits so the JSON fixture
        is byte-stable across runs while still pinning far more
        precision than any reported figure.
        """
        workloads: Dict[str, object] = {}
        for summary in self.summaries:
            rows = self.sweep.filter(workload_name=summary.workload_name)
            scope_efficiency = rows.efficiency(self.spec.scope)
            peak_index = rows.argmax(scope_efficiency)
            energy_per_gi = None
            if summary.best_qos_respecting_frequency is not None:
                best = rows.filter(
                    frequency_hz=summary.best_qos_respecting_frequency
                ).record(0)
                if best.chip_uips > 0:
                    energy_per_gi = best.server_power / (best.chip_uips / 1.0e9)
            workloads[summary.workload_name] = {
                "qos_floor_hz": _round(summary.qos_floor_hz),
                "optimal_frequency_by_scope_hz": {
                    scope: _round(frequency)
                    for scope, frequency in summary.optimal_frequency_by_scope.items()
                },
                "best_qos_respecting_frequency_hz": _round(
                    summary.best_qos_respecting_frequency
                ),
                "best_qos_respecting_efficiency_uips_per_w": _round(
                    summary.best_qos_respecting_efficiency
                ),
                "peak_efficiency_uips_per_w": _round(
                    float(scope_efficiency[peak_index])
                ),
                "peak_efficiency_frequency_hz": _round(
                    float(rows.column("frequency_hz")[peak_index])
                ),
                "energy_per_giga_instruction_j": _round(energy_per_gi),
            }
        return {
            "scenario": self.spec.name,
            "efficiency_scope": self.spec.efficiency_scope,
            "degradation_bound": self.spec.degradation_bound,
            "rows": len(self.sweep),
            "workloads": workloads,
            # The declared analyses are scalar outputs of the scenario
            # too (consolidation plans, Table I, body-bias knobs, ...),
            # so the golden fixtures pin them alongside the sweep
            # reductions.  Underscore-prefixed keys carry row-level
            # payloads (per-step replay tables) and are excluded.
            "analyses": _round_tree(_public_tree(self.extras)),
        }

    def as_dict(self, include_sweep: bool = False) -> Dict[str, object]:
        """Full JSON-able result (CLI ``--format json``)."""
        data: Dict[str, object] = {
            "scenario": self.spec.name,
            "title": self.spec.title,
            "summaries": self.summary_rows(),
            "key_scalars": self.key_scalars(),
            "extras": self.extras,
        }
        if include_sweep:
            data["sweep"] = self.sweep.to_dicts()
        return data


@dataclass(eq=False)
class ScenarioRunner:
    """Resolves scenario specs into sweep executions.

    Parameters
    ----------
    registry:
        Where string names are resolved (default: the built-in
        :data:`~repro.scenarios.registry.REGISTRY`).
    """

    registry: ScenarioRegistry = field(default_factory=lambda: REGISTRY)

    def resolve(self, scenario: str | ScenarioSpec) -> ScenarioSpec:
        """A spec from either a registered name or an explicit spec."""
        if isinstance(scenario, ScenarioSpec):
            return scenario
        return self.registry.get(scenario)

    def run(self, scenario: str | ScenarioSpec) -> ScenarioResult:
        """Execute one scenario end to end.

        Every (workload, reachable frequency) point is evaluated
        exactly once on a shared :class:`ModelContext`; summaries and
        analyses are reductions over the same columnar table.
        """
        # The sweep runner and analyses load on the first run, so
        # importing the package (``list``, ``show``, a replay harness
        # naming the registry) does not compile them.
        from repro.scenarios.analyses import ANALYSES
        from repro.sweep.runner import SweepRunner

        spec = self.resolve(scenario)
        with obs.trace("scenario.run", scenario=spec.name):
            with obs.trace("scenario.context_build", scenario=spec.name):
                configuration = spec.configuration()
                context = ModelContext(
                    configuration, degradation_bound=spec.degradation_bound
                )
                if not context.reachable_frequencies():
                    raise ValueError(
                        f"scenario {spec.name!r}: no frequency in the grid "
                        f"is reachable by technology "
                        f"{configuration.technology.name!r}"
                    )
            sweep_runner = SweepRunner(context=context)
            workloads = spec.workloads()
            with obs.trace(
                "scenario.sweep", workloads=len(workloads)
            ) as span:
                sweep = sweep_runner.run(workloads.values())
                span.set(rows=len(sweep))
            with obs.trace("scenario.summaries"):
                summaries = [
                    SweepRunner.summarize_workload(sweep, name)
                    for name in workloads
                ]
            extras = {}
            for analysis in spec.analyses:
                with obs.trace("scenario.analysis", analysis=analysis):
                    extras[analysis] = ANALYSES[analysis](spec, context, sweep)
        return ScenarioResult(
            spec=spec,
            sweep=sweep,
            summaries=summaries,
            extras=extras,
            context=context,
        )
