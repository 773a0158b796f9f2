"""The policy auto-tuner: strategies x spaces over the batched engine.

:class:`PolicyTuner` owns the evaluation side of an optimization: it
materialises :class:`~repro.opt.space.PolicyConfig` batches into
:class:`~repro.kernels.batch.ReplaySpec` lists, deduplicates specs that
replay identically (via :func:`repro.kernels.batch.unique_specs`),
pushes each batch through one :class:`BatchReplayRunner` pass, and
turns the summaries into ranked :class:`~repro.opt.result.Trial`
records.  Searching a ``degradation_bounds`` dimension spawns one
memoized :class:`~repro.sweep.context.ModelContext` per distinct bound,
so trials with different QoS bounds never share (bound-dependent)
frequency tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.fleet.economics import CostModel
from repro.dvfs.trace import LoadTrace
from repro.kernels.batch import BatchReplayRunner, unique_specs
from repro.opt.objective import is_feasible, objective_value
from repro.opt.result import OptResult, Trial
from repro.opt.space import ParamSpace, PolicyConfig
from repro.sweep.context import ModelContext
from repro.workloads.base import WorkloadCharacteristics


@dataclass(eq=False)
class PolicyTuner:
    """Evaluates policy configs for one (workload, trace) pair.

    The tuner is a pure driver of the batched replay engine: every
    trial's summary is bit-for-bit what
    :class:`~repro.fleet.simulator.FleetSimulator` would report for
    the same policy, and every trial's dollars are bit-for-bit what
    :meth:`CostModel.rollup` would compute from that replay.
    ``evaluations`` / ``full_length_evaluations`` / ``duplicate_trials``
    count the *last* :meth:`tune` call (reset at its start), which is
    what lets benchmarks compare strategy budgets.
    """

    context: ModelContext
    workload: WorkloadCharacteristics
    trace: LoadTrace
    cost_model: CostModel = field(default_factory=CostModel)
    frequencies: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.workload.instructions_per_request <= 0:
            raise ValueError(
                f"policy tuner: the cost-per-QPS objective needs a workload "
                f"with a request size, and {self.workload.name!r} has "
                f"instructions_per_request="
                f"{self.workload.instructions_per_request!r}"
            )
        if len(self.trace) < 1:
            raise ValueError("policy tuner: trace must have at least one step")
        self._contexts: Dict[Optional[float], ModelContext] = {
            None: self.context
        }
        self._runners: Dict[Optional[float], BatchReplayRunner] = {}
        self.evaluations = 0
        self.full_length_evaluations = 0
        self.duplicate_trials = 0
        self.wall_s = 0.0

    # -- evaluation backend ------------------------------------------------------------

    def _runner(self, bound: Optional[float]) -> BatchReplayRunner:
        """One batched runner per distinct degradation bound."""
        key = bound
        if bound is not None and bound == self.context.degradation_bound:
            key = None
        runner = self._runners.get(key)
        if runner is None:
            context = self._contexts.get(key)
            if context is None:
                context = ModelContext(
                    configuration=self.context.configuration,
                    degradation_bound=key,
                )
                self._contexts[key] = context
            runner = BatchReplayRunner(context, frequencies=self.frequencies)
            self._runners[key] = runner
        return runner

    def evaluate(
        self,
        configs: Sequence[PolicyConfig],
        steps: Optional[int] = None,
        rung: int = 0,
    ) -> List[Trial]:
        """Run one rung: every config on the first ``steps`` trace steps.

        ``steps=None`` evaluates the full trace.  Configs whose specs
        replay identically are evaluated once and share the summary;
        the returned trials keep the submitted config order.
        """
        started = time.perf_counter()
        trace = self.trace if steps is None else self.trace.head(steps)
        full_length = trace.steps == self.trace.steps
        specs = [
            config.replay_spec(self.workload, trace) for config in configs
        ]

        # Group positions by degradation bound: each bound has its own
        # context, and specs only deduplicate within a runner's batch.
        groups: Dict[Optional[float], List[int]] = {}
        for position, config in enumerate(configs):
            groups.setdefault(config.degradation_bound, []).append(position)

        summaries: List[Optional[Dict[str, object]]] = [None] * len(configs)
        with obs.trace(
            "opt.rung", rung=rung, configs=len(configs), steps=trace.steps
        ) as span:
            rung_evaluations = 0
            rung_duplicates = 0
            for bound in sorted(
                groups,
                key=lambda b: (b is not None, b if b is not None else 0.0),
            ):
                positions = groups[bound]
                runner = self._runner(bound)
                group_specs = [specs[p] for p in positions]
                unique, index_map = unique_specs(group_specs)
                rung_duplicates += len(group_specs) - len(unique)
                rung_evaluations += len(unique)
                batch_summaries = runner.run(unique).summaries()
                for local, position in enumerate(positions):
                    summaries[position] = batch_summaries[index_map[local]]
            self.duplicate_trials += rung_duplicates
            self.evaluations += rung_evaluations
            if full_length:
                self.full_length_evaluations += rung_evaluations
            span.set(
                evaluations=rung_evaluations, duplicates=rung_duplicates
            )
        obs.count("opt.evaluations", rung_evaluations)
        obs.count("opt.duplicate_trials", rung_duplicates)

        trials: List[Trial] = []
        for config, summary in zip(configs, summaries):
            economics = self.cost_model.rollup(summary)
            trials.append(
                Trial(
                    config=config,
                    rung=rung,
                    steps=trace.steps,
                    summary=summary,
                    economics=economics,
                    objective=objective_value(summary, economics),
                    feasible=is_feasible(summary),
                )
            )
        self.wall_s += time.perf_counter() - started
        return trials

    # -- the front door ----------------------------------------------------------------

    def tune(self, space: ParamSpace, strategy) -> OptResult:
        """Search ``space`` with ``strategy``; returns the full result."""
        self.evaluations = 0
        self.full_length_evaluations = 0
        self.duplicate_trials = 0
        self.wall_s = 0.0
        configs = space.configs()
        trials = strategy.run(self.evaluate, configs, len(self.trace))
        return OptResult(
            space=space,
            strategy=strategy.name,
            trials=trials,
            full_steps=len(self.trace),
            evaluations=self.evaluations,
            full_length_evaluations=self.full_length_evaluations,
            duplicate_trials=self.duplicate_trials,
            wall_s=self.wall_s,
        )
