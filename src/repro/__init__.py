"""repro: near-threshold server processor modelling and design-space exploration.

A reproduction of *"Towards Near-Threshold Server Processors"*
(Pahlevan et al., DATE 2016): voltage/frequency/power models of a
Cortex-A57 class server chip in 28nm bulk and UTBB FD-SOI (with body
bias), a scale-out server organisation with its uncore and DDR4 memory
power models, synthetic CloudSuite-like and virtualized workloads, and
the QoS / energy-efficiency design-space exploration the paper reports
in Figures 1-4 and Table I.

Typical entry points
--------------------

>>> from repro.core import default_server
>>> from repro.sweep import SweepRunner
>>> from repro.workloads import WEB_SEARCH
>>> sweep = SweepRunner.for_configuration(default_server()).run([WEB_SEARCH])
>>> floor_hz, optima_hz = sweep.qos_floor(), sweep.scope_optima()
>>> from repro.scenarios import ScenarioRunner
>>> summaries = ScenarioRunner().run("fig3_scaleout").summaries

Sub-packages
------------

``repro.technology``  process/voltage/frequency/power models (Figure 1)
``repro.power``       uncore, peripheral and DRAM power models (Table I)
``repro.dram``        DDR4 timing simulator (DRAMSim2 substitute)
``repro.uarch``       caches, crossbar, interval core model
``repro.sim``         cluster/chip trace-driven simulation + SMARTS sampling
``repro.workloads``   CloudSuite-like and virtualized workload models
``repro.latency``     queueing, tail latency, degradation models
``repro.core``        configuration, performance, efficiency scopes, analyzers
``repro.sweep``       batched sweep engine, QoS floors and efficiency optima
``repro.dvfs``        load traces and DVFS governor replay
``repro.fleet``       multi-server fleets: routing, autoscaling, economics
``repro.opt``         policy auto-tuner: grid / successive-halving search
``repro.scenarios``   declarative scenario registry, runner and CLI
``repro.analysis``    Table I data, paper-claim validation

Importing a package loads none of its modules: every package
``__init__`` exports its names lazily (PEP 562, through
:func:`repro._lazy.lazy_exports`), so a name imports its submodule on
first access and is cached there.  A process compiles only what it
uses: the replay benchmark's imports (``perfbench/suite.py``) load 67
of the 106 ``repro`` modules and ``python -m repro.scenarios list``
48, and neither loads the tuner, the report schema or the detailed
cache/DRAM simulators.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
