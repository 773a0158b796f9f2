"""Optimizer results: the Pareto frontier and the trials table.

The frontier tests pin the skyline contract on hand-built points: no
returned point is dominated, the point set is stable under duplication
and permutation of the trials, and degenerate inputs (zero points,
NaN coordinates, mismatched axes) are rejected with precise errors.
The :class:`OptResult` tests run on synthetic trials so the ranking and
serialisation logic is exercised without any replays.
"""

import math

import pytest

from repro.opt import (
    OptResult,
    ParamSpace,
    PolicyConfig,
    Trial,
    pareto_frontier,
    trial_rank_key,
)


def _dominates(a, b):
    """True when point ``a`` strictly dominates ``b`` (both minimised)."""
    return a[0] <= b[0] and a[1] <= b[1] and a != b


class TestParetoFrontier:
    def test_single_point_is_the_frontier(self):
        assert pareto_frontier([0], [10.0]) == (0,)

    def test_no_frontier_point_dominated(self):
        violations = [0, 0, 2, 3, 1, 5, 0]
        energy = [9.0, 7.0, 5.0, 4.0, 6.0, 3.0, 8.0]
        frontier = pareto_frontier(violations, energy)
        points = [(violations[i], energy[i]) for i in frontier]
        everything = list(zip(violations, energy))
        for point in points:
            assert not any(_dominates(other, point) for other in everything)

    def test_dominated_points_dropped(self):
        # (1, 9) is dominated by (0, 7); (2, 8) by both.
        frontier = pareto_frontier([0, 1, 2], [7.0, 9.0, 8.0])
        assert frontier == (0,)

    def test_all_dominated_by_one_point_collapses_to_it(self):
        frontier = pareto_frontier([2, 0, 1], [5.0, 1.0, 3.0])
        assert frontier == (1,)

    def test_stable_under_duplicated_trials(self):
        violations = [0, 1, 0, 1, 2]
        energy = [5.0, 3.0, 5.0, 3.0, 1.0]
        frontier = pareto_frontier(violations, energy)
        points = {(violations[i], energy[i]) for i in frontier}
        assert points == {(0, 5.0), (1, 3.0), (2, 1.0)}
        # First occurrence wins for duplicated points.
        assert frontier == (0, 1, 4)

    def test_point_set_invariant_under_permutation(self):
        violations = [0, 3, 1, 0, 2]
        energy = [8.0, 2.0, 5.0, 9.0, 4.0]
        baseline = {
            (violations[i], energy[i])
            for i in pareto_frontier(violations, energy)
        }
        order = [4, 0, 3, 1, 2]
        permuted_v = [violations[i] for i in order]
        permuted_e = [energy[i] for i in order]
        permuted = {
            (permuted_v[i], permuted_e[i])
            for i in pareto_frontier(permuted_v, permuted_e)
        }
        assert permuted == baseline

    def test_zero_trials_rejected(self):
        with pytest.raises(
            ValueError,
            match=r"cannot compute a Pareto frontier over zero trials",
        ):
            pareto_frontier([], [])

    def test_nan_coordinate_rejected(self):
        with pytest.raises(
            ValueError, match=r"point 1 has a NaN coordinate"
        ):
            pareto_frontier([0, 1], [2.0, math.nan])

    def test_mismatched_axes_rejected(self):
        with pytest.raises(
            ValueError, match=r"one energy per violation count"
        ):
            pareto_frontier([0, 1], [2.0])


def _config(fleet_size=4, governor="qos_tracker", routing="pack"):
    return PolicyConfig(
        governor=governor,
        routing=routing,
        fleet_size=fleet_size,
        fill_fraction=0.75,
    )


def _trial(config, violations, cost, energy_per_request, rung=0, steps=8):
    feasible = violations == 0
    summary = {
        "violation_count": violations,
        "queue_violation_count": 0,
        "total_energy_j": energy_per_request * 1000.0,
        "energy_per_request_j": energy_per_request,
        "mean_qps": 100.0,
    }
    economics = {
        "cost_per_qps_year": cost,
        "cost_per_million_requests": cost / 10.0,
    }
    return Trial(
        config=config,
        rung=rung,
        steps=steps,
        summary=summary,
        economics=economics,
        objective=cost if feasible else math.inf,
        feasible=feasible,
    )


SPACE = ParamSpace(fleet_sizes=(2, 4, 6))


class TestTrialRanking:
    def test_feasible_always_precedes_infeasible(self):
        cheap_violating = _trial(_config(2), violations=3, cost=0.1,
                                 energy_per_request=0.01)
        pricey_clean = _trial(_config(4), violations=0, cost=9.0,
                              energy_per_request=0.02)
        assert trial_rank_key(pricey_clean) < trial_rank_key(cheap_violating)

    def test_feasible_ranked_by_cost(self):
        a = _trial(_config(2), 0, cost=2.0, energy_per_request=0.01)
        b = _trial(_config(4), 0, cost=1.0, energy_per_request=0.02)
        assert trial_rank_key(b) < trial_rank_key(a)

    def test_ties_broken_by_config_key(self):
        a = _trial(_config(2), 0, cost=1.0, energy_per_request=0.01)
        b = _trial(_config(4), 0, cost=1.0, energy_per_request=0.01)
        assert trial_rank_key(a) < trial_rank_key(b)


class TestOptResult:
    def _result(self, trials):
        return OptResult(
            space=SPACE,
            strategy="grid",
            trials=trials,
            full_steps=8,
            evaluations=len(trials),
            full_length_evaluations=len(trials),
        )

    def test_zero_trials_rejected(self):
        with pytest.raises(
            ValueError, match=r"cannot build an OptResult from zero trials"
        ):
            self._result([])

    def test_short_final_rung_trial_rejected(self):
        with pytest.raises(ValueError, match=r"ran 4 steps, not the full 8"):
            self._result(
                [_trial(_config(2), 0, 1.0, 0.01, steps=4)]
            )

    def test_best_is_cheapest_feasible(self):
        trials = [
            _trial(_config(2), 2, cost=0.5, energy_per_request=0.01),
            _trial(_config(4), 0, cost=2.0, energy_per_request=0.03),
            _trial(_config(6), 0, cost=1.5, energy_per_request=0.05),
        ]
        result = self._result(trials)
        assert result.best_index == 2
        assert result.best_config.fleet_size == 6

    def test_frontier_over_final_rung_only(self):
        trials = [
            # Cheap prefix rung: would dominate everything if counted.
            _trial(_config(2), 0, cost=0.1, energy_per_request=0.001,
                   rung=0, steps=4),
            _trial(_config(2), 0, cost=1.0, energy_per_request=0.02,
                   rung=1, steps=8),
            _trial(_config(4), 1, cost=0.9, energy_per_request=0.01,
                   rung=1, steps=8),
        ]
        result = OptResult(
            space=SPACE,
            strategy="halving",
            trials=trials,
            full_steps=8,
            evaluations=3,
            full_length_evaluations=2,
        )
        assert result.final_indices == (1, 2)
        assert set(result.frontier_indices) == {1, 2}

    def test_trial_dicts_mark_exactly_one_best(self):
        trials = [
            _trial(_config(2), 0, cost=1.0, energy_per_request=0.02),
            _trial(_config(4), 0, cost=0.5, energy_per_request=0.01),
        ]
        rows = self._result(trials).trial_dicts()
        assert [row["best"] for row in rows] == [False, True]
        assert rows[1]["label"] == _config(4).label()

    def test_as_dict_pins_optimum_counters_and_frontier(self):
        trials = [
            _trial(_config(2), 0, cost=1.0, energy_per_request=0.02),
            _trial(_config(4), 1, cost=0.5, energy_per_request=0.01),
        ]
        data = self._result(trials).as_dict()
        assert data["strategy"] == "grid"
        assert data["trial_count"] == 2
        assert data["best"]["config"]["fleet_size"] == 2
        assert data["best"]["violation_count"] == 0
        assert data["frontier_metric"] == "energy_per_request_j"
        # Both points survive: (0 viol, 0.02) and (1 viol, 0.01).
        assert len(data["frontier"]) == 2
        assert "wall_s" not in data

    def test_frontier_metric_falls_back_to_total_energy(self):
        trial = _trial(_config(2), 0, cost=1.0, energy_per_request=0.02)
        no_requests = Trial(
            config=_config(4),
            rung=0,
            steps=8,
            summary={**trial.summary, "energy_per_request_j": None},
            economics=trial.economics,
            objective=1.0,
            feasible=True,
        )
        result = self._result([trial, no_requests])
        assert result.frontier_metric == "total_energy_j"
