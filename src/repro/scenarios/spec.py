"""Declarative experiment specifications.

A :class:`ScenarioSpec` is a frozen, fully-validated description of one
of the paper's (or a derived) experiments: which workloads are swept,
over which frequency grid, under which server-configuration deltas
(technology flavour, body-bias policy, DRAM chip, cluster organisation)
and QoS/degradation bound, and which named analyses are derived from
the sweep.  Specs carry *names* for the technology knobs -- resolved
against the registries in :mod:`repro.technology.process` and
:mod:`repro.power.dram_power` -- so they stay plain data that can be
listed, diffed and serialised, in the spirit of the Lumos DSE repo's
declarative experiment configs.

Every field is checked at construction time, so a spec that exists is a
spec that can run; :meth:`ScenarioSpec.configuration` and
:meth:`ScenarioSpec.workloads` materialise the models.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.core.config import ServerConfiguration, default_server
from repro.core.efficiency import EfficiencyScope
from repro.power.dram_power import DRAM_CHIPS, dram_chip_by_name
from repro.technology.a57_model import BodyBiasPolicy
from repro.technology.process import TECHNOLOGIES, technology_by_name
from repro.utils.validation import check_fleet
from repro.workloads.banking_vm import (
    DEGRADATION_LIMIT_RELAXED,
    virtualized_workloads,
)
from repro.workloads.base import WorkloadCharacteristics
from repro.workloads.cloudsuite import scale_out_workloads

SCALE_OUT = "scale-out"
VIRTUALIZED = "virtualized"
ALL_WORKLOADS = "all"

WORKLOAD_SETS = (SCALE_OUT, VIRTUALIZED, ALL_WORKLOADS)
"""Named workload sets a scenario can sweep."""

# The registry names a spec is checked against, in the order its error
# messages list them.  Spelled out here, one tuple per registry,
# because the load-trace and analysis registries import numpy and the
# model stack, which listing or showing a spec never needs; a test pins
# each tuple to its registry's keys.
GOVERNOR_NAMES = (
    "performance", "powersave", "ondemand", "conservative", "qos_tracker",
)
"""Keys of :data:`repro.dvfs.governors.GOVERNORS`, in registry order."""
LOAD_TRACE_NAMES = ("bitbrains", "bursty", "constant", "diurnal")
"""Keys of :data:`repro.dvfs.trace.LOAD_TRACES`, sorted."""
ROUTING_NAMES = ("round_robin", "least_loaded", "pack", "spread")
"""Keys of :data:`repro.fleet.routing.ROUTERS`, in registry order."""
STRATEGY_NAMES = ("grid", "halving")
"""Keys of :data:`repro.opt.strategies.STRATEGIES`, in registry order."""
ANALYSIS_NAMES = (
    "body_bias", "consolidation", "dvfs_replay", "efficiency_optima",
    "figure1", "fleet_replay", "fleet_stress", "memory_table",
    "memory_technology", "nominal_uips", "policy_opt", "qos_floors",
    "sweep_governor_grid",
)
"""Keys of :data:`repro.scenarios.analyses.ANALYSES`, sorted."""


def workload_set(name: str) -> Dict[str, WorkloadCharacteristics]:
    """Resolve a named workload set, keyed by workload name.

    Raises
    ------
    ValueError
        If ``name`` is not one of :data:`WORKLOAD_SETS`.
    """
    if name == SCALE_OUT:
        return scale_out_workloads()
    if name == VIRTUALIZED:
        return virtualized_workloads()
    if name == ALL_WORKLOADS:
        return {**scale_out_workloads(), **virtualized_workloads()}
    known = ", ".join(WORKLOAD_SETS)
    raise ValueError(f"unknown workload set {name!r}; known sets: {known}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Frozen declarative description of one experiment.

    Parameters
    ----------
    name:
        Registry key; a short ``snake_case`` identifier.
    title:
        One-line human description (what the scenario reproduces).
    workload_set:
        One of :data:`WORKLOAD_SETS`.
    workload_names:
        Optional ordered subset of the set's workloads (by name).
    technology:
        Optional process-flavour name from
        :data:`repro.technology.process.TECHNOLOGIES`.
    bias_policy:
        Body-bias policy value (``none`` / ``fixed`` / ``optimal``);
        only meaningful together with an FD-SOI ``technology``.
    memory_chip:
        Optional DRAM chip profile name from
        :data:`repro.power.dram_power.DRAM_CHIPS`.
    compare_memory_chip:
        Alternative DRAM chip for the ``memory_technology`` analysis.
    cluster_count / cores_per_cluster:
        Optional cluster-organisation ablation knobs.
    frequency_grid_hz:
        Optional explicit sweep grid; ``None`` keeps the
        configuration's default 100MHz-2GHz grid.  An empty grid is a
        contradiction and is rejected.
    degradation_bound:
        Execution-time degradation bound for virtualized workloads
        (must be >= 1: a VM cannot be required to beat its nominal).
    efficiency_scope:
        Scope whose efficiency defines the scenario's headline optimum.
    load_trace:
        Optional named time-varying load trace from
        :data:`repro.dvfs.trace.LOAD_TRACES`; required by (and only
        meaningful with) the ``dvfs_replay`` and ``fleet_replay``
        analyses.
    governors:
        Governor policy names from :data:`repro.dvfs.governors.GOVERNORS`
        for the ``dvfs_replay`` analysis; empty means every registered
        governor.
    fleet_size:
        Number of servers for the ``fleet_replay`` analysis (required
        by it; an ``int`` >= 1 when set, never a ``bool``).
    fleet_routings:
        Routing-policy names from :data:`repro.fleet.routing.ROUTERS`
        for the ``fleet_replay`` analysis; empty means every registered
        policy.
    fleet_governor:
        The per-server DVFS policy every fleet node runs.
    fleet_autoscale:
        Whether the fleet replay scales servers on/off against the
        default :class:`~repro.fleet.autoscaler.Autoscaler` band
        (``False`` keeps the whole fleet awake).
    surge_start / surge_steps / surge_factor / surge_shape:
        Flash-crowd overlay for the ``fleet_stress`` analysis: the
        replayed trace is ``load_trace.with_surge(surge_start,
        surge_steps, surge_factor, shape=surge_shape)`` when
        ``surge_steps`` > 0 (``shape`` is ``"step"`` or ``"ramp"``).
    disturbances:
        Timed failure events for the ``fleet_stress`` analysis, as
        plain tuples -- ``("node_crash", node_id, step)``,
        ``("node_restore", node_id, step)``, ``("thermal_cap",
        node_id, step, max_frequency_hz)`` -- resolved by
        :meth:`disturbance_schedule`.
    opt_strategy:
        Search strategy name for the ``policy_opt`` analysis
        (:data:`repro.opt.strategies.STRATEGIES`: ``grid`` or
        ``halving``).
    opt_fleet_sizes / opt_governors / opt_routings /
    opt_fill_fractions / opt_bands / opt_wake_steps:
        Dimensions of the ``policy_opt`` parameter space (see
        :class:`repro.opt.space.ParamSpace`); an empty dimension keeps
        the space's default (``opt_fleet_sizes`` falls back to
        ``(fleet_size,)`` when that is set).  ``opt_bands`` entries are
        ``(low, high)`` utilisation pairs, with ``None`` meaning the
        static never-autoscaled fleet.
    opt_keep_fraction / opt_prefix_steps:
        Successive-halving knobs: the surviving fraction per rung and
        the trace-prefix lengths of the cheap rungs (only meaningful
        with ``opt_strategy="halving"``).
    analyses:
        Names of derived analyses (see
        :data:`repro.scenarios.analyses.ANALYSES`) computed from the
        sweep into :attr:`ScenarioResult.extras`.
    base_configuration:
        Optional explicit base configuration the deltas apply to
        (defaults to the paper's server); lets callers re-point a
        registered scenario at a custom design without losing the
        scenario's workloads/analyses.
    notes:
        Free-form provenance (paper section, motivation).
    """

    name: str
    title: str
    workload_set: str = SCALE_OUT
    workload_names: Tuple[str, ...] | None = None
    technology: str | None = None
    bias_policy: str = BodyBiasPolicy.NONE.value
    memory_chip: str | None = None
    compare_memory_chip: str | None = None
    cluster_count: int | None = None
    cores_per_cluster: int | None = None
    frequency_grid_hz: Tuple[float, ...] | None = None
    degradation_bound: float = DEGRADATION_LIMIT_RELAXED
    efficiency_scope: str = EfficiencyScope.SERVER.value
    load_trace: str | None = None
    governors: Tuple[str, ...] = ()
    fleet_size: int | None = None
    fleet_routings: Tuple[str, ...] = ()
    fleet_governor: str = "qos_tracker"
    fleet_autoscale: bool = True
    surge_start: int = 0
    surge_steps: int = 0
    surge_factor: float = 1.0
    surge_shape: str = "step"
    disturbances: Tuple[tuple, ...] = ()
    opt_strategy: str = "grid"
    opt_fleet_sizes: Tuple[int, ...] = ()
    opt_governors: Tuple[str, ...] = ()
    opt_routings: Tuple[str, ...] = ()
    opt_fill_fractions: Tuple[float, ...] = ()
    opt_bands: Tuple[Tuple[float, float] | None, ...] = ()
    opt_wake_steps: Tuple[int, ...] = ()
    opt_keep_fraction: float = 0.5
    opt_prefix_steps: Tuple[int, ...] = ()
    analyses: Tuple[str, ...] = ()
    base_configuration: ServerConfiguration | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(
                f"scenario name must be a snake_case identifier, got {self.name!r}"
            )
        if not self.title:
            raise ValueError(f"scenario {self.name!r} must have a title")
        if self.workload_set not in WORKLOAD_SETS:
            known = ", ".join(WORKLOAD_SETS)
            raise ValueError(
                f"scenario {self.name!r}: unknown workload set "
                f"{self.workload_set!r}; known sets: {known}"
            )
        if self.workload_names is not None:
            available = workload_set(self.workload_set)
            unknown = [w for w in self.workload_names if w not in available]
            if unknown:
                raise ValueError(
                    f"scenario {self.name!r}: workloads {unknown} are not in "
                    f"the {self.workload_set!r} set {sorted(available)}"
                )
            if not self.workload_names:
                raise ValueError(
                    f"scenario {self.name!r}: workload_names must not be empty"
                )
            if len(set(self.workload_names)) != len(self.workload_names):
                raise ValueError(
                    f"scenario {self.name!r}: workload_names contains "
                    f"duplicates: {self.workload_names}"
                )
        if self.technology is not None and self.technology not in TECHNOLOGIES:
            known = ", ".join(sorted(TECHNOLOGIES))
            raise ValueError(
                f"scenario {self.name!r}: unknown technology "
                f"{self.technology!r}; known flavours: {known}"
            )
        try:
            BodyBiasPolicy(self.bias_policy)
        except ValueError:
            known = ", ".join(policy.value for policy in BodyBiasPolicy)
            raise ValueError(
                f"scenario {self.name!r}: unknown bias policy "
                f"{self.bias_policy!r}; known policies: {known}"
            ) from None
        for label, chip in (
            ("memory_chip", self.memory_chip),
            ("compare_memory_chip", self.compare_memory_chip),
        ):
            if chip is not None and chip not in DRAM_CHIPS:
                known = ", ".join(sorted(DRAM_CHIPS))
                raise ValueError(
                    f"scenario {self.name!r}: unknown {label} {chip!r}; "
                    f"known profiles: {known}"
                )
        for label, count in (
            ("cluster_count", self.cluster_count),
            ("cores_per_cluster", self.cores_per_cluster),
        ):
            if count is not None and count < 1:
                raise ValueError(
                    f"scenario {self.name!r}: {label} must be >= 1, got {count}"
                )
        if self.frequency_grid_hz is not None:
            if not self.frequency_grid_hz:
                raise ValueError(
                    f"scenario {self.name!r}: frequency grid must not be empty"
                )
            if any(value <= 0 for value in self.frequency_grid_hz):
                raise ValueError(
                    f"scenario {self.name!r}: frequency grid entries must be "
                    f"positive, got {self.frequency_grid_hz}"
                )
        if self.degradation_bound < 1.0:
            raise ValueError(
                f"scenario {self.name!r}: degradation bound must be >= 1 "
                f"(1.0 = no slowdown allowed), got {self.degradation_bound}"
            )
        scopes = [scope.value for scope in EfficiencyScope]
        if self.efficiency_scope not in scopes:
            raise ValueError(
                f"scenario {self.name!r}: unknown efficiency scope "
                f"{self.efficiency_scope!r}; known scopes: {', '.join(scopes)}"
            )
        if (
            self.load_trace is not None
            and self.load_trace not in LOAD_TRACE_NAMES
        ):
            known = ", ".join(LOAD_TRACE_NAMES)
            raise ValueError(
                f"scenario {self.name!r}: unknown load trace "
                f"{self.load_trace!r}; known traces: {known}"
            )
        unknown_governors = [
            g for g in self.governors if g not in GOVERNOR_NAMES
        ]
        if unknown_governors:
            known = ", ".join(GOVERNOR_NAMES)
            raise ValueError(
                f"scenario {self.name!r}: unknown governors "
                f"{unknown_governors}; known governors: {known}"
            )
        if len(set(self.governors)) != len(self.governors):
            raise ValueError(
                f"scenario {self.name!r}: governors contains duplicates: "
                f"{self.governors}"
            )
        if self.fleet_size is not None:
            try:
                check_fleet(self.fleet_size, off_power_w=0.0)
            except ValueError as error:
                raise ValueError(f"scenario {self.name!r}: {error}") from None
        unknown_routings = [
            r for r in self.fleet_routings if r not in ROUTING_NAMES
        ]
        if unknown_routings:
            known = ", ".join(ROUTING_NAMES)
            raise ValueError(
                f"scenario {self.name!r}: unknown fleet routings "
                f"{unknown_routings}; known policies: {known}"
            )
        if len(set(self.fleet_routings)) != len(self.fleet_routings):
            raise ValueError(
                f"scenario {self.name!r}: fleet_routings contains "
                f"duplicates: {self.fleet_routings}"
            )
        if self.fleet_governor not in GOVERNOR_NAMES:
            known = ", ".join(GOVERNOR_NAMES)
            raise ValueError(
                f"scenario {self.name!r}: unknown fleet governor "
                f"{self.fleet_governor!r}; known governors: {known}"
            )
        # Stress knobs: surge fields mirror LoadTrace.with_surge's
        # contract, disturbance tuples must resolve to a valid schedule.
        if self.surge_start < 0:
            raise ValueError(
                f"scenario {self.name!r}: surge_start must be >= 0, "
                f"got {self.surge_start}"
            )
        if self.surge_steps < 0:
            raise ValueError(
                f"scenario {self.name!r}: surge_steps must be >= 0, "
                f"got {self.surge_steps}"
            )
        if self.surge_steps > 0:
            import math as _math

            if not _math.isfinite(self.surge_factor) or self.surge_factor <= 0:
                raise ValueError(
                    f"scenario {self.name!r}: surge_factor must be positive "
                    f"and finite, got {self.surge_factor}"
                )
            if self.surge_shape not in ("step", "ramp"):
                raise ValueError(
                    f"scenario {self.name!r}: surge_shape must be 'step' or "
                    f"'ramp', got {self.surge_shape!r}"
                )
        try:
            self.disturbance_schedule()
        except (ValueError, TypeError) as error:
            raise ValueError(f"scenario {self.name!r}: {error}") from None
        # Optimizer knobs are validated by the repro.opt package itself
        # (the space and strategy constructors carry the precise errors).
        if self.opt_strategy not in STRATEGY_NAMES:
            known = ", ".join(STRATEGY_NAMES)
            raise ValueError(
                f"scenario {self.name!r}: unknown opt strategy "
                f"{self.opt_strategy!r}; known strategies: {known}"
            )
        try:
            self.opt_param_space()
            self.opt_strategy_instance()
        except ValueError as error:
            raise ValueError(f"scenario {self.name!r}: {error}") from None
        unknown_analyses = [
            a for a in self.analyses if a not in ANALYSIS_NAMES
        ]
        if unknown_analyses:
            known = ", ".join(ANALYSIS_NAMES)
            raise ValueError(
                f"scenario {self.name!r}: unknown analyses {unknown_analyses}; "
                f"known analyses: {known}"
            )
        if "dvfs_replay" in self.analyses and self.load_trace is None:
            raise ValueError(
                f"scenario {self.name!r}: the dvfs_replay analysis needs "
                "load_trace to be set"
            )
        if "fleet_replay" in self.analyses:
            if self.load_trace is None:
                raise ValueError(
                    f"scenario {self.name!r}: the fleet_replay analysis "
                    "needs load_trace to be set"
                )
            if self.fleet_size is None:
                raise ValueError(
                    f"scenario {self.name!r}: the fleet_replay analysis "
                    "needs fleet_size to be set"
                )
        if "policy_opt" in self.analyses and self.load_trace is None:
            raise ValueError(
                f"scenario {self.name!r}: the policy_opt analysis needs "
                "load_trace to be set"
            )
        if "fleet_stress" in self.analyses:
            if self.load_trace is None:
                raise ValueError(
                    f"scenario {self.name!r}: the fleet_stress analysis "
                    "needs load_trace to be set"
                )
            if self.fleet_size is None:
                raise ValueError(
                    f"scenario {self.name!r}: the fleet_stress analysis "
                    "needs fleet_size to be set"
                )
            if self.surge_steps == 0 and not self.disturbances:
                raise ValueError(
                    f"scenario {self.name!r}: the fleet_stress analysis "
                    "needs a surge (surge_steps > 0) or disturbance events"
                )

    # -- resolution -----------------------------------------------------------------

    def workloads(self) -> Dict[str, WorkloadCharacteristics]:
        """The scenario's workloads, keyed by name, in sweep order."""
        available = workload_set(self.workload_set)
        if self.workload_names is None:
            return available
        return {name: available[name] for name in self.workload_names}

    def configuration(self) -> ServerConfiguration:
        """Materialise the server configuration with all deltas applied."""
        configuration = (
            self.base_configuration
            if self.base_configuration is not None
            else default_server()
        )
        if self.technology is not None:
            configuration = configuration.with_technology(
                technology_by_name(self.technology),
                bias_policy=BodyBiasPolicy(self.bias_policy),
            )
        elif self.bias_policy != BodyBiasPolicy.NONE.value:
            configuration = dataclasses.replace(
                configuration, bias_policy=BodyBiasPolicy(self.bias_policy)
            )
        if self.memory_chip is not None:
            configuration = configuration.with_memory_chip(
                dram_chip_by_name(self.memory_chip)
            )
        if self.cluster_count is not None or self.cores_per_cluster is not None:
            configuration = configuration.with_cluster_organization(
                cluster_count=self.cluster_count or configuration.cluster_count,
                cores_per_cluster=(
                    self.cores_per_cluster or configuration.cores_per_cluster
                ),
            )
        if self.frequency_grid_hz is not None:
            configuration = dataclasses.replace(
                configuration, frequency_grid=tuple(self.frequency_grid_hz)
            )
        return configuration

    def disturbance_schedule(self):
        """The ``disturbances`` tuples as a validated DisturbanceSchedule."""
        from repro.fleet.disturbance import (
            DisturbanceSchedule,
            event_from_tuple,
        )

        return DisturbanceSchedule(
            events=tuple(
                event_from_tuple(tuple(data)) for data in self.disturbances
            )
        )

    def opt_param_space(self):
        """The ``policy_opt`` parameter space as a validated ParamSpace.

        Empty ``opt_*`` dimensions keep the
        :class:`~repro.opt.space.ParamSpace` defaults, except that
        ``opt_fleet_sizes`` falls back to ``(fleet_size,)`` when the
        scenario sets one, so a fleet scenario tunes the fleet it
        replays.
        """
        from repro.opt.space import ParamSpace

        kwargs: Dict[str, tuple] = {}
        if self.opt_fleet_sizes:
            kwargs["fleet_sizes"] = self.opt_fleet_sizes
        elif self.fleet_size is not None:
            kwargs["fleet_sizes"] = (self.fleet_size,)
        if self.opt_governors:
            kwargs["governors"] = self.opt_governors
        if self.opt_routings:
            kwargs["routings"] = self.opt_routings
        if self.opt_fill_fractions:
            kwargs["fill_fractions"] = self.opt_fill_fractions
        if self.opt_bands:
            kwargs["bands"] = self.opt_bands
        if self.opt_wake_steps:
            kwargs["wake_steps"] = self.opt_wake_steps
        return ParamSpace(**kwargs)

    def opt_strategy_instance(self):
        """The ``policy_opt`` strategy, constructed with its knobs."""
        from repro.opt.strategies import GridSearch, SuccessiveHalving

        if self.opt_strategy == "halving":
            return SuccessiveHalving(
                keep_fraction=self.opt_keep_fraction,
                prefix_steps=self.opt_prefix_steps,
            )
        return GridSearch()

    @property
    def scope(self) -> EfficiencyScope:
        """The headline efficiency scope as an enum member."""
        return EfficiencyScope(self.efficiency_scope)

    # -- derivation -----------------------------------------------------------------

    def with_overrides(self, **changes) -> "ScenarioSpec":
        """Copy of the spec with fields replaced (revalidated).

        The usual callers are harnesses re-running a registered
        scenario on a custom base configuration or a reduced grid::

            spec.with_overrides(frequency_grid_hz=(1e9, 2e9))
        """
        return dataclasses.replace(self, **changes)
