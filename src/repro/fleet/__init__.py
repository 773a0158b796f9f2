"""Multi-server fleet simulation: routing, autoscaling, economics.

The paper's single-server story -- QoS-constrained operating points for
scale-out workloads -- pays off at datacenter scale.  This package
simulates ``N`` servers serving one shared request stream over time:

* :mod:`repro.fleet.routing` -- pluggable load-splitting policies
  (``round_robin``, ``least_loaded``, power-aware ``pack`` and
  ``spread``) over frozen per-node :class:`NodeView` snapshots.
* :mod:`repro.fleet.node` -- :class:`ServerNode`: one governor plus
  the per-machine power/boot state; serving steps replicate the
  single-server replay arithmetic exactly.
* :mod:`repro.fleet.autoscaler` -- :class:`Autoscaler`: on/off scaling
  against a target-utilisation band with wake-latency and wake-energy
  penalties.
* :mod:`repro.fleet.simulator` -- :class:`FleetSimulator`, stepping a
  fleet-level :class:`~repro.dvfs.trace.LoadTrace` through the shared
  :class:`~repro.sweep.context.ModelContext` with per-step M/M/1 /
  M/G/1 queueing tails.
* :mod:`repro.fleet.result` -- the columnar :class:`FleetResult`
  (fleet rows + per-node tables) with its energy/violation reductions.
* :mod:`repro.fleet.economics` -- :class:`CostModel`: cost-per-QPS,
  dollars per million requests and TCO-style rollups.
* :mod:`repro.fleet.disturbance` -- :class:`DisturbanceSchedule`:
  timed failure injection (node crashes/restores, thermal caps)
  applied mid-replay, with resilience metrics on
  :meth:`FleetResult.resilience`.

>>> from repro.core.config import default_server
>>> from repro.fleet import Autoscaler, FleetSimulator
>>> from repro.dvfs import LoadTrace
>>> from repro.sweep.context import ModelContext
>>> from repro.workloads.cloudsuite import WEB_SEARCH
>>> simulator = FleetSimulator(
...     ModelContext(default_server()), WEB_SEARCH, fleet_size=8,
...     autoscaler=Autoscaler(),
... )
>>> results = simulator.compare(LoadTrace.diurnal())
>>> results["pack"].total_energy_j < results["round_robin"].total_energy_j
True
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "autoscaler": ("Autoscaler", "ScalingDecision"),
        "disturbance": (
            "EVENT_KINDS",
            "DisturbanceEvent",
            "DisturbanceSchedule",
            "event_from_tuple",
            "load_surge",
            "node_crash",
            "node_restore",
            "thermal_cap",
        ),
        "economics": ("CostModel",),
        "node": ("NodeState", "NodeStep", "ServerNode"),
        "result": ("FLEET_COLUMNS", "NODE_COLUMNS", "FleetResult"),
        "routing": (
            "ROUTERS",
            "LeastLoadedRouting",
            "NodeView",
            "PackRouting",
            "RoundRobinRouting",
            "RoutingPolicy",
            "SpreadRouting",
            "router_by_name",
        ),
        "simulator": ("FleetSimulator",),
    },
)

__all__ = [
    "EVENT_KINDS",
    "FLEET_COLUMNS",
    "NODE_COLUMNS",
    "ROUTERS",
    "Autoscaler",
    "CostModel",
    "DisturbanceEvent",
    "DisturbanceSchedule",
    "FleetResult",
    "FleetSimulator",
    "LeastLoadedRouting",
    "NodeState",
    "NodeStep",
    "NodeView",
    "PackRouting",
    "RoundRobinRouting",
    "RoutingPolicy",
    "ScalingDecision",
    "ServerNode",
    "SpreadRouting",
    "event_from_tuple",
    "load_surge",
    "node_crash",
    "node_restore",
    "router_by_name",
    "thermal_cap",
]
