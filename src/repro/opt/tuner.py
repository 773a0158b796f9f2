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

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.fleet.economics import CostModel
from repro.dvfs.trace import LoadTrace
from repro.kernels.batch import BatchReplayRunner, unique_specs
from repro.opt.objective import is_feasible, objective_value
from repro.opt.result import OptResult, Trial
from repro.opt.space import ParamSpace, PolicyConfig
from repro.resilience import (
    CheckpointStore,
    FailedSummary,
    ReplayFault,
    check_on_error,
    corrupt,
    decode_floats,
    encode_floats,
    fault_point,
)
from repro.resilience.checkpoint import payload_digest
from repro.sweep.context import ModelContext
from repro.workloads.base import WorkloadCharacteristics


def _encode_trial(trial: Trial) -> Dict[str, object]:
    """One trial as strict-JSON checkpoint data (exact round trip)."""
    return {
        "config": trial.config.as_dict(),
        "rung": trial.rung,
        "steps": trial.steps,
        "summary": encode_floats(dict(trial.summary)),
        "economics": encode_floats(dict(trial.economics)),
        "objective": encode_floats(trial.objective),
        "feasible": trial.feasible,
    }


def _decode_trial(data: Dict[str, object]) -> Trial:
    """Inverse of :func:`_encode_trial`."""
    return Trial(
        config=PolicyConfig.from_dict(data["config"]),  # type: ignore[arg-type]
        rung=int(data["rung"]),  # type: ignore[arg-type]
        steps=int(data["steps"]),  # type: ignore[arg-type]
        summary=decode_floats(data["summary"]),  # type: ignore[arg-type]
        economics=decode_floats(data["economics"]),  # type: ignore[arg-type]
        objective=float(decode_floats(data["objective"])),  # type: ignore[arg-type]
        feasible=bool(data["feasible"]),
    )


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
    on_error: str = "raise"

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
        check_on_error(self.on_error)
        self._contexts: Dict[Optional[float], ModelContext] = {
            None: self.context
        }
        self._runners: Dict[Optional[float], BatchReplayRunner] = {}
        self._store: Optional[CheckpointStore] = None
        self._saved_counters: Dict[str, int] = {}
        self.quarantined: List[Dict[str, object]] = []
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
            runner = BatchReplayRunner(
                context,
                frequencies=self.frequencies,
                on_error=self.on_error,
            )
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
        the returned trials keep the submitted config order (minus
        quarantined configs under ``on_error="quarantine"``).

        With a checkpoint store armed (see :meth:`tune`'s
        ``checkpoint_dir``), a rung that already has a valid checkpoint
        for these exact configs and steps is restored -- trials and
        counters bit-for-bit -- instead of re-evaluated, and every
        freshly evaluated rung is checkpointed on completion.
        """
        started = time.perf_counter()
        trace = self.trace if steps is None else self.trace.head(steps)
        full_length = trace.steps == self.trace.steps
        if self._store is not None:
            restored = self._restore_rung(configs, trace.steps, rung)
            if restored is not None:
                self.wall_s += time.perf_counter() - started
                return restored
        fault_point(
            "tuner.rung", identity=f"rung {rung} ({len(configs)} configs)"
        )
        counter_snapshot = (
            self.evaluations,
            self.full_length_evaluations,
            self.duplicate_trials,
            len(self.quarantined),
        )
        try:
            trials = self._evaluate_rung(configs, trace, full_length, rung)
        except BaseException:
            # A failed rung must not leave partial counter increments
            # behind.
            (
                self.evaluations,
                self.full_length_evaluations,
                self.duplicate_trials,
                kept,
            ) = counter_snapshot
            del self.quarantined[kept:]
            raise
        if self._store is not None:
            self._save_rung(configs, trace.steps, rung, trials)
        self.wall_s += time.perf_counter() - started
        return trials

    def _evaluate_rung(
        self,
        configs: Sequence[PolicyConfig],
        trace: LoadTrace,
        full_length: bool,
        rung: int,
    ) -> List[Trial]:
        """One rung's actual evaluation (no checkpoint involvement)."""
        quarantine = self.on_error == "quarantine"
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
            rung_full_length = 0
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
                if full_length:
                    rung_full_length += len(unique)
                batch_summaries = runner.run(unique).summaries()
                for local, position in enumerate(positions):
                    summaries[position] = batch_summaries[index_map[local]]
            self.duplicate_trials += rung_duplicates
            self.evaluations += rung_evaluations
            self.full_length_evaluations += rung_full_length
            span.set(
                evaluations=rung_evaluations, duplicates=rung_duplicates
            )
        obs.count("opt.evaluations", rung_evaluations)
        obs.count("opt.duplicate_trials", rung_duplicates)

        trials: List[Trial] = []
        for config, summary in zip(configs, summaries):
            if isinstance(summary, FailedSummary):
                # The batched runner isolated this config's replay;
                # drop the trial and keep its identity on the record.
                self._record_quarantine(config, rung, summary)
                continue
            economics = self.cost_model.rollup(summary)
            objective = corrupt(
                "tuner.objective",
                objective_value(summary, economics),
                identity=f"config {config.label()!r} rung {rung}",
            )
            if quarantine and math.isnan(objective):
                fault = ReplayFault(
                    "objective is NaN (corrupt evaluation)",
                    identity=f"config {config.label()!r} rung {rung}",
                )
                self._record_quarantine(
                    config, rung, FailedSummary.from_fault(fault)
                )
                obs.count("resilience.quarantined")
                continue
            trials.append(
                Trial(
                    config=config,
                    rung=rung,
                    steps=trace.steps,
                    summary=summary,
                    economics=economics,
                    objective=objective,
                    feasible=is_feasible(summary),
                )
            )
        return trials

    def _record_quarantine(
        self, config: PolicyConfig, rung: int, failed: FailedSummary
    ) -> None:
        self.quarantined.append(
            {
                "rung": rung,
                "config": config.as_dict(),
                "label": config.label(),
                "failure": failed.as_dict(),
            }
        )

    # -- checkpointing -----------------------------------------------------------------

    def _rung_name(self, rung: int) -> str:
        return f"rung_{rung:03d}"

    def _restore_rung(
        self, configs: Sequence[PolicyConfig], steps: int, rung: int
    ) -> Optional[List[Trial]]:
        """Trials from a valid rung checkpoint, or ``None`` to rebuild.

        Counters and quarantine records saved with the rung are
        restored too, so a resumed :meth:`tune` reports exactly the
        counters an uninterrupted run would.
        """
        assert self._store is not None
        cached = self._store.load_valid(self._rung_name(rung))
        if cached is None:
            return None
        if cached.get("steps") != steps or cached.get("configs") != [
            config.as_dict() for config in configs
        ]:
            # Valid file, different rung contents (e.g. a strategy or
            # space tweak survived the fingerprint): rebuild.
            obs.count("resilience.checkpoint_rejected")
            return None
        counters = cached["counters"]
        for name in (
            "evaluations",
            "full_length_evaluations",
            "duplicate_trials",
        ):
            delta = int(counters[name])
            setattr(self, name, getattr(self, name) + delta)
            self._saved_counters[name] += delta
        for record in cached.get("quarantined", ()):
            self.quarantined.append(decode_floats(record))
        obs.count("resilience.rungs_resumed")
        return [_decode_trial(data) for data in cached["trials"]]

    def _save_rung(
        self,
        configs: Sequence[PolicyConfig],
        steps: int,
        rung: int,
        trials: List[Trial],
    ) -> None:
        assert self._store is not None
        rung_quarantined = [
            record
            for record in self.quarantined
            if record["rung"] == rung
        ]
        counters = self._rung_counter_deltas()
        self._store.save(
            self._rung_name(rung),
            {
                "rung": rung,
                "steps": steps,
                "configs": [config.as_dict() for config in configs],
                "trials": [_encode_trial(trial) for trial in trials],
                "quarantined": encode_floats(rung_quarantined),
                "counters": counters,
            },
        )

    def _rung_counter_deltas(self) -> Dict[str, int]:
        """The latest rung's counter deltas (total minus already saved).

        Checkpoints store per-rung *deltas* so a resumed run can add
        them back and report counters bit-identical to an
        uninterrupted run.
        """
        saved = self._saved_counters
        deltas = {}
        for name in (
            "evaluations",
            "full_length_evaluations",
            "duplicate_trials",
        ):
            total = int(getattr(self, name))
            deltas[name] = total - saved[name]
            saved[name] = total
        return deltas

    # -- the front door ----------------------------------------------------------------

    def _fingerprint(self, space: ParamSpace, strategy) -> str:
        """What a checkpoint must have been produced by to be resumable."""
        return payload_digest(
            {
                "space": space.summary(),
                "strategy": repr(strategy),
                "workload": self.workload.name,
                "trace": {
                    "steps": len(self.trace),
                    "step_seconds": float(self.trace.step_seconds),
                    "utilization": payload_digest(
                        [float(u) for u in self.trace.utilization]
                    ),
                },
                "cost_model": repr(self.cost_model),
                "frequencies": (
                    None
                    if self.frequencies is None
                    else [float(f) for f in self.frequencies]
                ),
                "degradation_bound": self.context.degradation_bound,
                "on_error": self.on_error,
            }
        )

    def tune(
        self,
        space: ParamSpace,
        strategy,
        checkpoint_dir: Union[str, Path, None] = None,
    ) -> OptResult:
        """Search ``space`` with ``strategy``; returns the full result.

        ``checkpoint_dir`` arms per-rung checkpointing: each completed
        rung is sealed into an atomic, digest-validated checkpoint, and
        a re-run over the same directory restores completed rungs
        instead of re-evaluating them -- the resumed :class:`OptResult`
        is bit-identical (:meth:`OptResult.as_dict`) to an
        uninterrupted run's.  Checkpoints are bound to the exact
        (space, strategy, workload, trace, ...) fingerprint; anything
        else in the directory is ignored and rebuilt.
        """
        self.evaluations = 0
        self.full_length_evaluations = 0
        self.duplicate_trials = 0
        self.wall_s = 0.0
        self.quarantined = []
        self._saved_counters = {
            "evaluations": 0,
            "full_length_evaluations": 0,
            "duplicate_trials": 0,
        }
        if checkpoint_dir is not None:
            self._store = CheckpointStore(
                Path(checkpoint_dir),
                fingerprint=self._fingerprint(space, strategy),
            )
        try:
            configs = space.configs()
            trials = strategy.run(self.evaluate, configs, len(self.trace))
        finally:
            self._store = None
        return OptResult(
            space=space,
            strategy=strategy.name,
            trials=trials,
            full_steps=len(self.trace),
            evaluations=self.evaluations,
            full_length_evaluations=self.full_length_evaluations,
            duplicate_trials=self.duplicate_trials,
            wall_s=self.wall_s,
            quarantined=self.quarantined,
        )
