"""Optimizer outcomes: trials, the optimum, and the Pareto frontier.

A :class:`Trial` is one (config, trace prefix) evaluation: the batched
engine's replay summary, the cost-model economics derived from it, and
the scalar objective.  :class:`OptResult` collects every trial an
optimization produced (all rungs, in evaluation order) and derives the
two headline artifacts golden fixtures pin: the best config
(deterministic total order, never QoS-violating when a QoS-clean config
exists) and the energy-vs-QoS Pareto frontier over the full-length
trials with dominated points dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.opt.space import ParamSpace, PolicyConfig


@dataclass(frozen=True)
class Trial:
    """One evaluated (config, trace prefix) point.

    ``rung`` is the successive-halving round the trial ran in (always
    0 for grid search) and ``steps`` the evaluated trace prefix length;
    ``summary`` is the batched engine's fleet replay summary and
    ``economics`` the cost-model rollup computed from it.
    """

    config: PolicyConfig
    rung: int
    steps: int
    summary: Dict[str, object]
    economics: Dict[str, object]
    objective: float
    feasible: bool


def trial_rank_key(trial: Trial) -> tuple:
    """Deterministic total order: the optimizer's notion of "better".

    Feasible (QoS-clean) trials always precede infeasible ones and are
    ordered by objective (cost per QPS); infeasible trials are ordered
    by how badly they violate, then by cost.  Ties break on the
    config's canonical key, so the ranking -- and everything derived
    from it (the optimum, halving's survivor sets) -- is invariant to
    trial submission order.
    """
    cost = trial.economics["cost_per_qps_year"]
    return (
        0 if trial.feasible else 1,
        trial.objective if trial.feasible else int(trial.summary["violation_count"]),
        math.inf if cost is None else float(cost),
        trial.config.key(),
    )


def pareto_frontier(
    violations: Sequence[float], energy: Sequence[float]
) -> Tuple[int, ...]:
    """Indices of the non-dominated (violations, energy) points.

    Both axes are minimised.  A point is dominated when another point
    is no worse on both axes and strictly better on at least one.
    Duplicate points keep only their first occurrence, so duplicated
    trials cannot inflate the frontier; the returned indices are sorted
    by ascending violations, then ascending energy, making the frontier
    *point set* invariant under trial permutation.

    Raises
    ------
    ValueError
        On zero points, mismatched axis lengths, or NaN coordinates --
        a NaN cannot be ordered, so a frontier over it would be
        meaningless.
    """
    if len(violations) != len(energy):
        raise ValueError(
            f"Pareto frontier needs one energy per violation count, got "
            f"{len(violations)} violation counts and {len(energy)} energies"
        )
    if len(violations) == 0:
        raise ValueError("cannot compute a Pareto frontier over zero trials")
    first_seen: Dict[Tuple[float, float], int] = {}
    for index, (v, e) in enumerate(zip(violations, energy)):
        v = float(v)
        e = float(e)
        if math.isnan(v) or math.isnan(e):
            raise ValueError(
                f"Pareto frontier point {index} has a NaN coordinate "
                f"(violations={v!r}, energy={e!r})"
            )
        first_seen.setdefault((v, e), index)
    frontier: List[Tuple[float, float, int]] = []
    best_energy = math.inf
    for (v, e), index in sorted(
        first_seen.items(), key=lambda item: (item[0][0], item[0][1], item[1])
    ):
        if e < best_energy:
            frontier.append((v, e, index))
            best_energy = e
    return tuple(index for _, _, index in frontier)


class OptResult:
    """Everything one policy optimization produced.

    ``trials`` holds every evaluation in submission order across all
    rungs; the *final rung* (the full-length evaluations the strategy
    finished on) is what the optimum and the frontier are derived
    from.  :meth:`trial_dicts` lists every trial as a JSON-able row;
    :attr:`wall_s` carries the nondeterministic wall clock and is
    deliberately excluded from :meth:`as_dict` so golden fixtures stay
    byte-stable.
    """

    def __init__(
        self,
        space: ParamSpace,
        strategy: str,
        trials: Sequence[Trial],
        full_steps: int,
        evaluations: int,
        full_length_evaluations: int,
        duplicate_trials: int = 0,
        wall_s: float = 0.0,
        quarantined: Sequence[Dict[str, object]] = (),
    ):
        if not trials:
            raise ValueError("cannot build an OptResult from zero trials")
        self.space = space
        self.strategy = strategy
        self.trials: Tuple[Trial, ...] = tuple(trials)
        self.full_steps = int(full_steps)
        self.evaluations = int(evaluations)
        self.full_length_evaluations = int(full_length_evaluations)
        self.duplicate_trials = int(duplicate_trials)
        self.wall_s = float(wall_s)
        self.quarantined: Tuple[Dict[str, object], ...] = tuple(quarantined)
        final_rung = max(trial.rung for trial in self.trials)
        self.final_indices: Tuple[int, ...] = tuple(
            index
            for index, trial in enumerate(self.trials)
            if trial.rung == final_rung
        )
        for index in self.final_indices:
            if self.trials[index].steps != self.full_steps:
                raise ValueError(
                    f"final-rung trial {index} ran {self.trials[index].steps} "
                    f"steps, not the full {self.full_steps}"
                )

    def __len__(self) -> int:
        return len(self.trials)

    # -- the optimum -------------------------------------------------------------------

    @property
    def best_index(self) -> int:
        """Index (into :attr:`trials`) of the winning full-length trial."""
        return min(
            self.final_indices,
            key=lambda index: trial_rank_key(self.trials[index]),
        )

    @property
    def best_trial(self) -> Trial:
        """The winning full-length trial."""
        return self.trials[self.best_index]

    @property
    def best_config(self) -> PolicyConfig:
        """The winning config."""
        return self.best_trial.config

    # -- the frontier ------------------------------------------------------------------

    @property
    def frontier_metric(self) -> str:
        """Energy axis of the frontier.

        ``energy_per_request_j`` when every full-length trial reports
        one (request-sized workloads); ``total_energy_j`` otherwise, so
        virtualized classes without a request size still get a
        frontier.
        """
        if all(
            self.trials[index].summary["energy_per_request_j"] is not None
            for index in self.final_indices
        ):
            return "energy_per_request_j"
        return "total_energy_j"

    @property
    def frontier_indices(self) -> Tuple[int, ...]:
        """Trial indices of the energy-vs-QoS frontier (full length)."""
        metric = self.frontier_metric
        local = pareto_frontier(
            [
                int(self.trials[index].summary["violation_count"])
                for index in self.final_indices
            ],
            [
                float(self.trials[index].summary[metric])
                for index in self.final_indices
            ],
        )
        return tuple(self.final_indices[position] for position in local)

    def frontier(self) -> List[Dict[str, object]]:
        """The non-dominated (QoS, energy) points as JSON-able rows."""
        metric = self.frontier_metric
        rows = []
        for index in self.frontier_indices:
            trial = self.trials[index]
            rows.append(
                {
                    "config": trial.config.as_dict(),
                    "violation_count": int(trial.summary["violation_count"]),
                    metric: float(trial.summary[metric]),
                    "cost_per_qps_year": trial.economics["cost_per_qps_year"],
                    "feasible": trial.feasible,
                }
            )
        return rows

    # -- rows ------------------------------------------------------------------------

    def trial_dicts(self) -> List[Dict[str, object]]:
        """One JSON-able row per trial (CLI trials table rendering)."""
        rows = []
        best = self.best_index
        for index, trial in enumerate(self.trials):
            rows.append(
                {
                    "trial": index,
                    "rung": trial.rung,
                    "steps": trial.steps,
                    "label": trial.config.label(),
                    **trial.config.as_dict(),
                    "violation_count": int(trial.summary["violation_count"]),
                    "queue_violation_count": int(
                        trial.summary["queue_violation_count"]
                    ),
                    "total_energy_j": float(trial.summary["total_energy_j"]),
                    "energy_per_request_j": trial.summary[
                        "energy_per_request_j"
                    ],
                    "mean_qps": trial.summary["mean_qps"],
                    "cost_per_qps_year": trial.economics["cost_per_qps_year"],
                    "feasible": trial.feasible,
                    "best": index == best,
                }
            )
        return rows

    # -- serialisation -----------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """The golden-pinnable scalars: optimum, frontier, counters.

        Deterministic and byte-stable across runs -- wall-clock timing
        is deliberately excluded (it rides along separately via
        :attr:`wall_s`).
        """
        best = self.best_trial
        out: Dict[str, object] = {
            "strategy": self.strategy,
            "space": self.space.summary(),
            "full_steps": self.full_steps,
            "trial_count": len(self.trials),
            "config_count": len(self.final_indices),
            "evaluations": self.evaluations,
            "full_length_evaluations": self.full_length_evaluations,
            "duplicate_trials": self.duplicate_trials,
            "best": {
                "config": best.config.as_dict(),
                "label": best.config.label(),
                "feasible": best.feasible,
                "objective_cost_per_qps_year": (
                    None if not math.isfinite(best.objective) else best.objective
                ),
                "cost_per_qps_year": best.economics["cost_per_qps_year"],
                "cost_per_million_requests": best.economics[
                    "cost_per_million_requests"
                ],
                "total_energy_j": float(best.summary["total_energy_j"]),
                "energy_per_request_j": best.summary["energy_per_request_j"],
                "mean_qps": best.summary["mean_qps"],
                "violation_count": int(best.summary["violation_count"]),
                "queue_violation_count": int(
                    best.summary["queue_violation_count"]
                ),
            },
            "frontier_metric": self.frontier_metric,
            "frontier": self.frontier(),
        }
        # Only quarantine-mode runs with actual losses carry the key,
        # so strict-mode golden fixtures stay byte-identical.
        if self.quarantined:
            out["quarantined"] = [dict(record) for record in self.quarantined]
        return out
