"""The policy tuner: strategies, parity, dedup and scenario wiring.

Pins the evaluation contract: a trial's summary is bit-for-bit what the
per-replay :class:`FleetSimulator` path reports and its dollars are
bit-for-bit what :meth:`CostModel.rollup` computes from that replay;
specs that replay identically are evaluated once
(:func:`repro.kernels.batch.unique_specs`); successive halving spends
its budget on prefixes and still judges the optimum at full length.
The scenario wiring tests cover the ``opt_*`` spec fields, the
``policy_opt`` analysis and the CLI trials-table rendering.
"""

import math

import pytest

from repro.dvfs import LoadTrace
from repro.fleet import Autoscaler, CostModel, FleetSimulator
from repro.fleet.routing import PackRouting
from repro.kernels.batch import ReplaySpec, unique_specs
from repro.opt import (
    GridSearch,
    ParamSpace,
    PolicyConfig,
    PolicyTuner,
    SuccessiveHalving,
)
from repro.workloads.cloudsuite import WEB_SEARCH

SPACE = ParamSpace(
    fleet_sizes=(2, 3),
    governors=("qos_tracker", "ondemand"),
    routings=("pack", "round_robin"),
    fill_fractions=(0.75,),
    bands=(None, (0.35, 0.75)),
    wake_steps=(1,),
)


@pytest.fixture(scope="module")
def short_trace(request):
    diurnal = LoadTrace.diurnal()
    return diurnal.head(12)


@pytest.fixture(scope="module")
def tuner(default_context, short_trace):
    return PolicyTuner(default_context, WEB_SEARCH, short_trace)


class TestUniqueSpecs:
    def test_first_seen_order_and_scatter_map(self, short_trace):
        a = ReplaySpec(
            workload=WEB_SEARCH, trace=short_trace, fleet_size=2,
            routing="pack",
        )
        b = ReplaySpec(
            workload=WEB_SEARCH, trace=short_trace, fleet_size=3,
            routing="pack",
        )
        unique, index_map = unique_specs([a, b, a, a, b])
        assert unique == [a, b]
        assert index_map == [0, 1, 0, 0, 1]

    def test_identical_configs_from_different_parameters_collapse(
        self, short_trace
    ):
        # The fill fraction spelled explicitly and the pack default are
        # different parameter combinations but the same replay.
        explicit = ReplaySpec(
            workload=WEB_SEARCH, trace=short_trace, fleet_size=2,
            routing=PackRouting(fill_fraction=0.75),
        )
        default = ReplaySpec(
            workload=WEB_SEARCH, trace=short_trace, fleet_size=2,
            routing=PackRouting(),
        )
        unique, index_map = unique_specs([explicit, default])
        assert len(unique) == 1
        assert index_map == [0, 0]


class TestTunerEvaluation:
    def test_summary_matches_fleet_simulator_bit_for_bit(
        self, default_context, short_trace, tuner
    ):
        config = PolicyConfig(
            governor="qos_tracker",
            routing="pack",
            fleet_size=2,
            fill_fraction=0.75,
            band=(0.35, 0.75),
            wake_steps=1,
        )
        trial = tuner.evaluate([config])[0]
        simulator = FleetSimulator(
            default_context,
            WEB_SEARCH,
            fleet_size=2,
            autoscaler=Autoscaler(low=0.35, high=0.75, wake_steps=1),
        )
        result = simulator.run(short_trace, PackRouting(fill_fraction=0.75))
        assert trial.summary == result.summary()

    def test_economics_match_cost_model_rollup_bit_for_bit(
        self, default_context, short_trace, tuner
    ):
        config = PolicyConfig(
            governor="qos_tracker", routing="round_robin", fleet_size=2
        )
        trial = tuner.evaluate([config])[0]
        simulator = FleetSimulator(default_context, WEB_SEARCH, fleet_size=2)
        result = simulator.run(short_trace, "round_robin", reference=True)
        rollup = CostModel().rollup(result.summary())
        for key, value in rollup.items():
            assert trial.economics[key] == value, key

    def test_duplicate_configs_evaluated_once(self, tuner):
        pack_explicit = PolicyConfig(
            governor="qos_tracker",
            routing="pack",
            fleet_size=2,
            fill_fraction=0.75,
        )
        pack_default = PolicyConfig(
            governor="qos_tracker", routing="pack", fleet_size=2
        )
        tuner.evaluations = 0
        tuner.duplicate_trials = 0
        trials = tuner.evaluate([pack_explicit, pack_default])
        assert tuner.evaluations == 1
        assert tuner.duplicate_trials == 1
        assert trials[0].summary == trials[1].summary

    def test_infeasible_trial_gets_infinite_objective(self, tuner):
        # One server under a diurnal peak cannot hold QoS headroom; if
        # it violates, the objective must be inf, never a finite cost.
        config = PolicyConfig(
            governor="powersave", routing="round_robin", fleet_size=1
        )
        trial = tuner.evaluate([config])[0]
        if trial.summary["violation_count"] > 0:
            assert math.isinf(trial.objective)
            assert not trial.feasible
        else:
            assert trial.objective == trial.economics["cost_per_qps_year"]

    def test_degradation_bound_dimension_spawns_memoized_contexts(
        self, default_context, short_trace
    ):
        tuner = PolicyTuner(default_context, WEB_SEARCH, short_trace)
        explicit_equal = default_context.degradation_bound
        space = ParamSpace(
            fleet_sizes=(2,),
            degradation_bounds=(None, explicit_equal, 2.0),
        )
        result = tuner.tune(space, GridSearch())
        # An explicit bound equal to the context's inherits its runner;
        # only the genuinely different bound builds a new context.
        assert len(result.trials) == 3
        assert set(tuner._contexts) == {None, 2.0}
        assert tuner._contexts[2.0].degradation_bound == 2.0
        # The inherited-bound trial and the explicit-equal-bound trial
        # replay identically (they only differ in labeling).
        assert result.trials[0].summary == result.trials[1].summary
        labels = [trial.config.label() for trial in result.trials]
        assert labels[2].endswith("bound=2")

    def test_workload_without_request_size_rejected(
        self, default_context, short_trace
    ):
        from repro.workloads.banking_vm import VMS_LOW_MEM

        with pytest.raises(
            ValueError, match=r"needs a workload with a request size"
        ):
            PolicyTuner(default_context, VMS_LOW_MEM, short_trace)


class TestStrategies:
    def test_grid_counts_every_canonical_config_once(self, tuner):
        result = tuner.tune(SPACE, GridSearch())
        assert result.evaluations == SPACE.size
        assert result.full_length_evaluations == SPACE.size
        assert len(result.trials) == SPACE.size
        assert result.duplicate_trials == 0

    def test_halving_runs_rungs_and_judges_at_full_length(self, tuner):
        strategy = SuccessiveHalving(keep_fraction=0.5, prefix_steps=(3, 6))
        result = tuner.tune(SPACE, strategy)
        size = SPACE.size
        rung_sizes = [size, math.ceil(size / 2), math.ceil(size / 4)]
        assert len(result.trials) == sum(rung_sizes)
        assert result.full_length_evaluations == rung_sizes[-1]
        steps = [trial.steps for trial in result.trials]
        assert steps == [3] * rung_sizes[0] + [6] * rung_sizes[1] + [
            12
        ] * rung_sizes[2]
        assert all(
            result.trials[i].steps == 12 for i in result.final_indices
        )

    def test_halving_keep_one_reproduces_grid(self, tuner):
        grid = tuner.tune(SPACE, GridSearch())
        halving = tuner.tune(
            SPACE, SuccessiveHalving(keep_fraction=1.0, prefix_steps=(3,))
        )
        final = [halving.trials[i] for i in halving.final_indices]
        assert [t.config for t in final] == [t.config for t in grid.trials]
        assert [t.summary for t in final] == [t.summary for t in grid.trials]
        assert halving.best_config == grid.best_config
        assert halving.frontier() == grid.frontier()

    def test_halving_finds_grid_optimum_cheaper(self, tuner):
        grid = tuner.tune(SPACE, GridSearch())
        halving = tuner.tune(
            SPACE, SuccessiveHalving(keep_fraction=0.34, prefix_steps=(3, 6))
        )
        assert halving.best_config == grid.best_config
        assert (
            halving.full_length_evaluations < grid.full_length_evaluations
        )

    def test_invalid_keep_fraction_rejected(self):
        with pytest.raises(
            ValueError, match=r"keep fraction must be a finite float in \(0, 1\]"
        ):
            SuccessiveHalving(keep_fraction=0.0)

    def test_unsorted_prefixes_rejected(self):
        with pytest.raises(
            ValueError, match=r"prefix steps must be strictly increasing"
        ):
            SuccessiveHalving(prefix_steps=(6, 3))

    def test_prefix_not_shorter_than_trace_rejected(self, tuner):
        strategy = SuccessiveHalving(prefix_steps=(12,))
        with pytest.raises(
            ValueError, match=r"prefix of 12 steps is not shorter"
        ):
            tuner.tune(SPACE, strategy)

    def test_default_schedule_quarters_then_halves(self):
        strategy = SuccessiveHalving()
        assert strategy.schedule(48) == (12, 24, None)
        assert strategy.schedule(2) == (1, None)


class TestScenarioWiring:
    def test_spec_rejects_unknown_strategy(self):
        from repro.scenarios.spec import ScenarioSpec

        with pytest.raises(
            ValueError,
            match=r"scenario 'bad': unknown opt strategy 'annealing'",
        ):
            ScenarioSpec(name="bad", title="t", opt_strategy="annealing")

    def test_spec_surfaces_space_validation_with_scenario_name(self):
        from repro.scenarios.spec import ScenarioSpec

        with pytest.raises(
            ValueError,
            match=r"scenario 'bad': parameter space: degenerate band",
        ):
            ScenarioSpec(name="bad", title="t", opt_bands=((0.9, 0.2),))

    def test_policy_opt_analysis_requires_load_trace(self):
        from repro.scenarios.spec import ScenarioSpec

        with pytest.raises(
            ValueError,
            match=r"the policy_opt analysis needs load_trace to be set",
        ):
            ScenarioSpec(name="bad", title="t", analyses=("policy_opt",))

    def test_opt_fleet_sizes_default_to_scenario_fleet(self):
        from repro.scenarios.registry import get_scenario

        spec = get_scenario("fleet_diurnal_websearch").with_overrides(
            name="derived_opt", analyses=("policy_opt",)
        )
        assert spec.opt_param_space().fleet_sizes == (spec.fleet_size,)

    def test_registered_opt_scenarios_pin_their_spaces(self):
        from repro.scenarios.registry import get_scenario

        grid = get_scenario("opt_fleet_diurnal_websearch")
        assert grid.opt_strategy == "grid"
        assert grid.opt_param_space().raw_size == 48
        assert grid.opt_param_space().size == 36
        halving = get_scenario("opt_autoscaler_bursty")
        assert halving.opt_strategy == "halving"
        assert halving.opt_param_space().raw_size == 32
        assert halving.opt_param_space().size == 28

    def test_cli_renders_trials_table(self, scenario_results):
        from repro.scenarios.cli import _render_table

        result = scenario_results("opt_fleet_diurnal_websearch")
        rendered = _render_table(result)
        assert "policy trials: Web Search" in rendered
        assert "best" in rendered
        assert "$/QPS-yr" in rendered
        # The private trials table must stay out of the pinned tree.
        assert "_trials" not in result.key_scalars()["analyses"]["policy_opt"]

    def test_opt_scenario_optimum_is_feasible(self, scenario_results):
        result = scenario_results("opt_autoscaler_bursty")
        block = result.extras["policy_opt"]["optimization"]["Data Serving"]
        assert block["best"]["violation_count"] == 0
        assert block["best"]["feasible"] is True
        # Halving paid full price for a fraction of the space.
        assert block["full_length_evaluations"] * 3 <= block["space"]["size"]
