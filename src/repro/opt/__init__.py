"""Policy auto-tuning over the batched replay engine.

Searches policy parameter spaces -- governor choice, routing, fleet
size, pack fill fraction, autoscaler utilisation band and wake latency,
QoS/degradation bound -- against the paper's cost-per-QPS-at-QoS
objective, with the batched replay engine
(:class:`~repro.kernels.batch.BatchReplayRunner`) as the evaluation
backend.  Two deterministic strategies: exhaustive grid search and
prefix-based successive halving.  Results are frozen and golden-pinnable:
every trial (its replay summary and the
:meth:`~repro.fleet.economics.CostModel.rollup` of it), the best config
under a deterministic total order, and the energy-vs-QoS Pareto
frontier with dominated points dropped.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "objective": ("is_feasible", "objective_value", "qos_violations"),
        "result": ("OptResult", "Trial", "pareto_frontier", "trial_rank_key"),
        "space": ("ParamSpace", "PolicyConfig"),
        "strategies": ("STRATEGIES", "GridSearch", "SuccessiveHalving"),
        "tuner": ("PolicyTuner",),
    },
)

__all__ = [
    "STRATEGIES",
    "GridSearch",
    "OptResult",
    "ParamSpace",
    "PolicyConfig",
    "PolicyTuner",
    "SuccessiveHalving",
    "Trial",
    "is_feasible",
    "objective_value",
    "pareto_frontier",
    "qos_violations",
    "trial_rank_key",
]
