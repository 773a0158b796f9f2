"""The optimizer's objective: cost-per-QPS at QoS.

The paper's economics are denominated in dollars per unit of sustained
traffic, so the optimizer ranks policy configs by the
:class:`~repro.fleet.economics.CostModel`'s annual cost per sustained
QPS -- but only among configs that hold the QoS bound (zero node
violations over the replay, the same feasibility rule the
``fleet_replay`` analysis applies when it crowns a routing).  An
infeasible config's objective is ``inf``: it can never beat a feasible
one, which is what makes the reported optimum QoS-clean whenever a
clean config exists in the space.

The economics are :meth:`~repro.fleet.economics.CostModel.rollup` of
the batched engine's summary dict, the same reduction
:meth:`~repro.fleet.result.FleetResult.summary` runs, so a trial's
dollars are bit-identical to what the object path reports for the
same replay.
"""

from __future__ import annotations

import math
from typing import Dict, Optional


def qos_violations(summary: Dict[str, object]) -> int:
    """Node-level QoS violations of one fleet replay summary."""
    return int(summary["violation_count"])


def is_feasible(summary: Dict[str, object]) -> bool:
    """True when the replay held the QoS bound at every step."""
    return qos_violations(summary) == 0


def objective_value(
    summary: Dict[str, object], economics: Dict[str, object]
) -> float:
    """Cost-per-QPS-at-QoS: the scalar the optimizer minimises.

    ``inf`` for replays that violate QoS or serve no requests -- they
    lose to every feasible config but still order deterministically
    behind them (see :meth:`~repro.opt.result.OptResult.best_index`).
    """
    cost_per_qps: Optional[float] = economics["cost_per_qps_year"]
    if not is_feasible(summary) or cost_per_qps is None:
        return math.inf
    return float(cost_per_qps)
