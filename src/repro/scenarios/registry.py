"""Named scenario registry.

One :class:`ScenarioRegistry` instance, :data:`REGISTRY`, holds every
experiment the repository reproduces -- the paper's figures and table,
the methodology ablations, and derived beyond-paper studies -- each as a
frozen :class:`~repro.scenarios.spec.ScenarioSpec`.  Examples, figure
builders, benchmarks and the CLI all resolve experiments from here, so
"Figure 3" means the same sweep everywhere and the golden-regression
tests can pin every registered scenario's numbers.

The built-in specs are built, and so checked, on the registry's first
read rather than at import: their checks import the optimizer's space
and strategies and the analysis registry, which a process that only
names :data:`REGISTRY` (a replay harness importing the scenarios
package) never needs.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.scenarios.spec import (
    ALL_WORKLOADS,
    SCALE_OUT,
    VIRTUALIZED,
    ScenarioSpec,
)


class ScenarioRegistry:
    """Ordered name -> :class:`ScenarioSpec` mapping with precise errors.

    ``builtins``, when given, returns the specs registered first; it is
    called on the first read or registration, and called again on the
    next one if it raised, so every spec check runs before any spec is
    returned.
    """

    def __init__(
        self, builtins: Optional[Callable[[], Iterable[ScenarioSpec]]] = None
    ) -> None:
        self._builtins = builtins
        self._by_name: Dict[str, ScenarioSpec] = {}

    @property
    def _specs(self) -> Dict[str, ScenarioSpec]:
        """The name -> spec mapping, with the built-ins registered."""
        if self._builtins is not None:
            # Cleared first: register() reads this property.
            builtins, self._builtins = self._builtins, None
            try:
                for spec in builtins():
                    self.register(spec)
            except BaseException:
                self._builtins, self._by_name = builtins, {}
                raise
        return self._by_name

    def register(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Add a spec; duplicate names are rejected."""
        if spec.name in self._specs:
            raise ValueError(f"scenario {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> ScenarioSpec:
        """Look up a spec by name.

        Raises
        ------
        ValueError
            If ``name`` is unknown; the message lists what is available.
        """
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(self.names())
            raise ValueError(
                f"unknown scenario {name!r}; registered scenarios: {known}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._specs)

    def specs(self) -> List[ScenarioSpec]:
        """Registered specs, in registration order."""
        return list(self._specs.values())

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)


def _builtin_specs() -> List[ScenarioSpec]:
    return [
        ScenarioSpec(
            name="fig2_qos",
            title="99th-percentile latency vs frequency under scale-out QoS (Fig. 2)",
            workload_set=SCALE_OUT,
            analyses=("qos_floors",),
            notes=(
                "Private-cloud scenario: how far the core frequency can drop "
                "before each CloudSuite application violates its tail-latency "
                "QoS; the paper reports 200-500MHz floors."
            ),
        ),
        ScenarioSpec(
            name="fig3_scaleout",
            title="Cores/SoC/server efficiency for scale-out workloads (Fig. 3)",
            workload_set=SCALE_OUT,
            analyses=("efficiency_optima", "qos_floors"),
            notes=(
                "Headline shape result: the cores-only optimum sits at the "
                "lowest functional frequency; widening the power scope to the "
                "SoC and the server moves it to ~1GHz and ~1-1.2GHz."
            ),
        ),
        ScenarioSpec(
            name="fig4_virtualized",
            title="Cores/SoC/server efficiency for virtualized VMs (Fig. 4)",
            workload_set=VIRTUALIZED,
            analyses=("efficiency_optima", "nominal_uips"),
            notes=(
                "Public-cloud scenario: the Bitbrains-derived banking VM "
                "classes under the relaxed degradation bound."
            ),
        ),
        ScenarioSpec(
            name="table1_ddr4",
            title="DDR4 chip energies and derived memory power (Table I)",
            workload_set=SCALE_OUT,
            workload_names=("Web Search",),
            analyses=("memory_table",),
            notes=(
                "Per-chip DDR4 energies scaled to the 64GB / 4-channel "
                "organisation, plus a reference Web Search sweep on the "
                "same configuration."
            ),
        ),
        ScenarioSpec(
            name="ablation_body_bias",
            title="UTBB FD-SOI body-bias knobs at the near-threshold point",
            workload_set=SCALE_OUT,
            workload_names=("Web Search",),
            technology="fdsoi-28nm-fbb",
            bias_policy="optimal",
            analyses=("body_bias", "efficiency_optima", "figure1"),
            notes=(
                "Section II-A ablation: threshold shift, 0.5V frequency "
                "boost and sleep-leakage reduction versus forward bias, "
                "plus the sweep with the power-optimal bias policy.  The "
                "figure1 analysis is the paper's Fig. 1: Vdd and 36-core "
                "power versus frequency for bulk, FD-SOI and FD-SOI+FBB."
            ),
        ),
        ScenarioSpec(
            name="ablation_cluster_size",
            title="3x16-core versus 9x4-core cluster organisation",
            workload_set=SCALE_OUT,
            workload_names=("Web Search",),
            cluster_count=3,
            cores_per_cluster=16,
            analyses=("efficiency_optima",),
            notes=(
                "Section II-B ablation: the paper models 4-core clusters for "
                "simulation speed and argues the cluster size does not move "
                "the efficiency-optimum trends."
            ),
        ),
        ScenarioSpec(
            name="ablation_memory_tech",
            title="DDR4 versus LPDDR4-class memory background power",
            workload_set=SCALE_OUT,
            workload_names=("Data Serving", "Web Search"),
            compare_memory_chip="lpddr4-4gbit-x8",
            analyses=("memory_technology", "efficiency_optima"),
            notes=(
                "Section V-C discussion: mobile-DRAM-class background power "
                "raises energy proportionality and moves the server-scope "
                "optimum to a lower core frequency."
            ),
        ),
        ScenarioSpec(
            name="consolidation_oversubscribe",
            title="VM co-allocation under the relaxed 4x degradation bound",
            workload_set=VIRTUALIZED,
            degradation_bound=4.0,
            analyses=("consolidation", "qos_floors"),
            notes=(
                "Section V-C discussion: oversubscribing the near-threshold "
                "server with banking VMs and ranking plans by energy per "
                "unit of work."
            ),
        ),
        ScenarioSpec(
            name="dvfs_diurnal_websearch",
            title="DVFS governors riding a diurnal Web Search day (beyond the paper)",
            workload_set=SCALE_OUT,
            workload_names=("Web Search",),
            load_trace="diurnal",
            analyses=("dvfs_replay", "qos_floors"),
            notes=(
                "Time-varying extension of Figures 2/3: one day of "
                "diurnal Web Search load in 30-minute steps, replayed "
                "under all five governors; the QoS-aware policy should "
                "track the QoS floor and beat the nominal pin on energy "
                "at zero violations."
            ),
        ),
        ScenarioSpec(
            name="dvfs_bursty_dataserving",
            title="DVFS governors under bursty Data Serving load",
            workload_set=SCALE_OUT,
            workload_names=("Data Serving",),
            load_trace="bursty",
            analyses=("dvfs_replay",),
            notes=(
                "Flash-crowd stress for the sampling governors: two "
                "hours of two-state Markov load in one-minute steps; "
                "the one-notch-at-a-time conservative policy pays for "
                "its ramp latency on burst fronts."
            ),
        ),
        ScenarioSpec(
            name="dvfs_bitbrains_replay",
            title="Bitbrains-derived utilisation replay over the banking VMs",
            workload_set=VIRTUALIZED,
            load_trace="bitbrains",
            degradation_bound=4.0,
            analyses=("dvfs_replay", "qos_floors"),
            notes=(
                "Server-consolidation replay: one day of utilisation "
                "derived from the synthetic Bitbrains VM population in "
                "the dataset's 300-second steps, under the relaxed 4x "
                "degradation bound, for both VM memory classes."
            ),
        ),
        ScenarioSpec(
            name="fleet_diurnal_websearch",
            title="8-server Web Search fleet riding a diurnal day (beyond the paper)",
            workload_set=SCALE_OUT,
            workload_names=("Web Search",),
            load_trace="diurnal",
            fleet_size=8,
            analyses=("fleet_replay", "qos_floors"),
            notes=(
                "Datacenter extension of the governor replay: one day of "
                "diurnal load shared by eight near-threshold servers under "
                "all four routing policies with per-server qos_tracker "
                "governors and the autoscaler parking the night trough; "
                "pack+autoscale should beat the oblivious round_robin on "
                "energy per request at zero violations."
            ),
        ),
        ScenarioSpec(
            name="fleet_bursty_dataserving",
            title="6-server Data Serving fleet under bursty flash-crowd load",
            workload_set=SCALE_OUT,
            workload_names=("Data Serving",),
            load_trace="bursty",
            fleet_size=6,
            analyses=("fleet_replay",),
            notes=(
                "Wake-latency stress: two hours of two-state Markov load "
                "in one-minute steps; burst fronts land while woken "
                "servers are still booting, so the oblivious round_robin "
                "pays dropped-load violations the state-aware policies "
                "avoid."
            ),
        ),
        ScenarioSpec(
            name="fleet_bitbrains_consolidation",
            title="12-server VM consolidation fleet on the Bitbrains replay",
            workload_set=VIRTUALIZED,
            load_trace="bitbrains",
            degradation_bound=4.0,
            fleet_size=12,
            fleet_routings=("round_robin", "pack", "spread"),
            analyses=("fleet_replay", "qos_floors"),
            notes=(
                "Cluster-level consolidation economics: one day of "
                "Bitbrains-derived utilisation over twelve servers "
                "hosting the banking VM classes under the relaxed 4x "
                "degradation bound; the cost model ranks routings by "
                "dollars per unit of served work."
            ),
        ),
        ScenarioSpec(
            name="sweep_governor_grid",
            title="Batched governor x trace grid over Web Search",
            workload_set=SCALE_OUT,
            workload_names=("Web Search",),
            analyses=("sweep_governor_grid",),
            notes=(
                "Every registered DVFS governor against all three "
                "time-varying registry traces (diurnal, bursty, "
                "Bitbrains), evaluated as one batched (B, T) tensor "
                "pass through the repro.kernels.batch engine; the "
                "golden scalars double as an equivalence pin because "
                "the batched summaries are bit-identical to sequential "
                "single-replay calls."
            ),
        ),
        ScenarioSpec(
            name="opt_fleet_diurnal_websearch",
            title="Policy auto-tune of the diurnal Web Search fleet (grid search)",
            workload_set=SCALE_OUT,
            workload_names=("Web Search",),
            load_trace="diurnal",
            fleet_size=8,
            opt_strategy="grid",
            opt_fleet_sizes=(6, 7, 8),
            opt_governors=("qos_tracker", "ondemand"),
            opt_routings=("pack", "spread"),
            opt_fill_fractions=(0.75, 0.9),
            opt_bands=(None, (0.35, 0.75)),
            opt_wake_steps=(1,),
            analyses=("policy_opt",),
            notes=(
                "Exhaustive grid search over fleet size, governor, "
                "routing, pack fill fraction and autoscaler band for "
                "the diurnal Web Search day, ranked by annual cost per "
                "sustained QPS among QoS-clean configs; the fill "
                "fraction is a no-op under spread routing, so the "
                "48-point raw cross product deduplicates to 36 "
                "batched replays."
            ),
        ),
        ScenarioSpec(
            name="opt_autoscaler_bursty",
            title="Successive-halving autoscaler tune under bursty Data Serving",
            workload_set=SCALE_OUT,
            workload_names=("Data Serving",),
            load_trace="bursty",
            fleet_size=6,
            opt_strategy="halving",
            opt_fleet_sizes=(5, 6),
            opt_routings=("pack", "least_loaded"),
            opt_bands=(None, (0.25, 0.6), (0.35, 0.75), (0.5, 0.9)),
            opt_wake_steps=(1, 2),
            opt_keep_fraction=0.34,
            opt_prefix_steps=(30, 60),
            analyses=("policy_opt",),
            notes=(
                "Prefix-based successive halving over the autoscaler's "
                "utilisation band and wake latency on the flash-crowd "
                "trace: every config replays the first 30 one-minute "
                "steps, the top third survives to 60, and only the "
                "last survivors pay for the full two-hour replay -- "
                "reaching the same optimum as exhaustive grid search "
                "with a fraction of the full-length evaluations.  Burst "
                "fronts land while woken servers still boot, so every "
                "autoscaled band pays QoS violations and the tuner "
                "crowns a static (never-parked) fleet; the wake "
                "latency is a no-op for the static band, so the raw "
                "cross product deduplicates before replaying."
            ),
        ),
        ScenarioSpec(
            name="stress_flash_crowd",
            title="Flash-crowd surge on the autoscaled diurnal Web Search fleet",
            workload_set=SCALE_OUT,
            workload_names=("Web Search",),
            load_trace="diurnal",
            fleet_size=8,
            surge_start=10,
            surge_steps=6,
            surge_factor=2.0,
            surge_shape="ramp",
            analyses=("fleet_stress",),
            notes=(
                "Resilience stress: a 2x ramp surge lands on the morning "
                "shoulder of the diurnal day, while the autoscaler still "
                "has most of the fleet parked from the night trough; the "
                "recovery metrics count the steps (and dropped-load "
                "violations) until the woken servers absorb the crowd, "
                "and the boot-grace fix keeps the ramp from thrashing "
                "wake energy on its dips."
            ),
        ),
        ScenarioSpec(
            name="stress_node_crash",
            title="Mid-peak node crash and restore on the diurnal Web Search fleet",
            workload_set=SCALE_OUT,
            workload_names=("Web Search",),
            load_trace="diurnal",
            fleet_size=8,
            disturbances=(
                ("node_crash", 0, 20),
                ("node_restore", 0, 32),
            ),
            analyses=("fleet_stress",),
            notes=(
                "Failure injection at the daily peak: node 0 -- pack's "
                "anchor, the first server every policy fills -- fails hard "
                "at step 20 with its routed share dropped on the floor, "
                "then comes back at step 32 through the autoscaler's "
                "normal wake path.  Crash/restore schedules replay on the "
                "columnar kernel bit-for-bit with the object path."
            ),
        ),
        ScenarioSpec(
            name="stress_thermal_cap",
            title="Thermal capping of one server under bursty Data Serving",
            workload_set=SCALE_OUT,
            workload_names=("Data Serving",),
            load_trace="bursty",
            fleet_size=6,
            disturbances=(("thermal_cap", 0, 30, 1.2e9),),
            analyses=("fleet_stress",),
            notes=(
                "Partial-capacity failure: from step 30 node 0's reachable "
                "grid is capped at 1.2 GHz (~60% of nominal capacity) "
                "while it keeps receiving its full routed share, so burst "
                "fronts overflow the capped node and recover in the lulls. "
                "The cap replays on the columnar kernel as a per-(node, "
                "step) top grid index, bit-for-bit with the object path."
            ),
        ),
        ScenarioSpec(
            name="colocation_mixed",
            title="Mixed scale-out + VM colocation sweep (beyond the paper)",
            workload_set=ALL_WORKLOADS,
            degradation_bound=4.0,
            analyses=("qos_floors", "efficiency_optima"),
            notes=(
                "Beyond-paper scenario: all six workloads share one server "
                "sweep, exposing the frequency band where every scale-out "
                "QoS and the relaxed VM degradation bound hold at once."
            ),
        ),
    ]


REGISTRY = ScenarioRegistry(_builtin_specs)
"""The default registry: the built-in scenarios, built on first read."""


def get_scenario(name: str) -> ScenarioSpec:
    """Spec of a registered scenario (precise ``ValueError`` if unknown)."""
    return REGISTRY.get(name)


def scenario_names() -> Tuple[str, ...]:
    """Names of every registered scenario, in registration order."""
    return REGISTRY.names()
