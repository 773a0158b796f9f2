"""Scenario registry and experiment runner.

Every experiment the repository reproduces -- the paper's figures and
table, the methodology ablations, and beyond-paper studies -- is one
named, declarative :class:`ScenarioSpec` in the :data:`REGISTRY`, and
one :class:`ScenarioRunner` resolves any of them into a batched sweep
over a shared model context:

>>> from repro.scenarios import ScenarioRunner
>>> result = ScenarioRunner().run("fig3_scaleout")
>>> result.summary_by_workload()["Web Search"].qos_floor_hz  # doctest: +SKIP

The CLI mirrors the API: ``python -m repro.scenarios list`` and
``python -m repro.scenarios run fig3_scaleout --format json``.

* :mod:`repro.scenarios.spec` -- the frozen, validated
  :class:`ScenarioSpec` (workload set, configuration deltas, grid,
  QoS bound, technology knobs, declared analyses).
* :mod:`repro.scenarios.registry` -- :class:`ScenarioRegistry` and the
  built-in scenarios.
* :mod:`repro.scenarios.analyses` -- named derived analyses
  (QoS floors, efficiency optima, Table I, body bias, memory
  technology, consolidation).
* :mod:`repro.scenarios.runner` -- :class:`ScenarioRunner` /
  :class:`ScenarioResult`, the uniform execution path.
* :mod:`repro.scenarios.cli` -- the ``python -m repro.scenarios``
  command-line interface.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "analyses": ("ANALYSES",),
        "registry": (
            "REGISTRY",
            "ScenarioRegistry",
            "get_scenario",
            "scenario_names",
        ),
        "runner": ("ScenarioResult", "ScenarioRunner"),
        "spec": (
            "ALL_WORKLOADS",
            "SCALE_OUT",
            "VIRTUALIZED",
            "WORKLOAD_SETS",
            "ScenarioSpec",
            "workload_set",
        ),
    },
)

__all__ = [
    "ALL_WORKLOADS",
    "ANALYSES",
    "REGISTRY",
    "SCALE_OUT",
    "VIRTUALIZED",
    "WORKLOAD_SETS",
    "ScenarioRegistry",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "get_scenario",
    "scenario_names",
    "workload_set",
]
