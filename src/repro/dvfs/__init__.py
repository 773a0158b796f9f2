"""DVFS governors over time-varying load.

The paper's sweeps pick one fixed frequency per operating point; this
package closes the loop for the server-consolidation story: a load
trace moves over time and a governor must ride the V/f curve while
holding the QoS bound.

* :mod:`repro.dvfs.trace` -- :class:`LoadTrace` and its generators
  (constant, diurnal, bursty, Bitbrains-derived replay), all
  deterministic given a seed.
* :mod:`repro.dvfs.governors` -- the :class:`Governor` policies
  (``performance``, ``powersave``, ``ondemand``, ``conservative`` and
  the QoS-aware ``qos_tracker``) over a :class:`PlatformView`.
* :mod:`repro.dvfs.simulator` -- :class:`GovernorSimulator`, stepping a
  trace through a shared :class:`~repro.sweep.context.ModelContext`.
* :mod:`repro.dvfs.replay` -- the columnar per-step
  :class:`ReplayResult` with its energy/violation reductions.

>>> from repro.core.config import default_server
>>> from repro.dvfs import GovernorSimulator, LoadTrace
>>> from repro.sweep.context import ModelContext
>>> from repro.workloads.cloudsuite import WEB_SEARCH
>>> simulator = GovernorSimulator(ModelContext(default_server()), WEB_SEARCH)
>>> replays = simulator.compare(LoadTrace.diurnal())
>>> replays["qos_tracker"].total_energy_j < replays["performance"].total_energy_j
True
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "governors": (
            "GOVERNORS",
            "MEMORYLESS_GOVERNORS",
            "ConservativeGovernor",
            "Governor",
            "LoadObservation",
            "OndemandGovernor",
            "PerformanceGovernor",
            "PlatformView",
            "PowersaveGovernor",
            "QosTrackerGovernor",
            "governor_by_name",
        ),
        "replay": ("REPLAY_COLUMNS", "ReplayResult"),
        "simulator": ("GovernorSimulator",),
        "trace": ("LOAD_TRACES", "LoadTrace", "load_trace_by_name"),
    },
)

__all__ = [
    "GOVERNORS",
    "LOAD_TRACES",
    "MEMORYLESS_GOVERNORS",
    "REPLAY_COLUMNS",
    "ConservativeGovernor",
    "Governor",
    "GovernorSimulator",
    "LoadObservation",
    "LoadTrace",
    "OndemandGovernor",
    "PerformanceGovernor",
    "PlatformView",
    "PowersaveGovernor",
    "QosTrackerGovernor",
    "ReplayResult",
    "governor_by_name",
    "load_trace_by_name",
]
