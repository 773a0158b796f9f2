"""The core analyzers are views over one ModelContext.

Every core operating point (the body-bias scan behind vdd and core
power) is solved by :meth:`ModelContext.operating_point`, once per
process for each core-model value, and the consolidation and
proportionality analyzers read the records a scenario's sweep already
memoized: their powers, throughputs, floors and optima equal the
sweep's columns bit for bit and add no design point to the context.
"""

import collections
import sys

import pytest

from repro.core.consolidation import ConsolidationAnalyzer
from repro.core.efficiency import SCOPE_POWER_COLUMN, EfficiencyScope
from repro.core.energy_proportionality import EnergyProportionalityAnalyzer
from repro.scenarios import ScenarioRunner
from repro.sweep.context import ModelContext
from repro.technology.a57_model import CortexA57PowerModel, operating_point_memo

SCENARIOS = ("ablation_memory_tech", "consolidation_oversubscribe", "colocation_mixed")


@pytest.fixture(scope="module")
def traced_runs():
    """Fresh runs of the analyzer scenarios plus every operating-point solve.

    The process-wide operating-point memo is emptied first, so the runs
    solve every point they need.  Each solve is logged as ``(caller
    code, caller's self, model, frequency, activity)``; holding the
    caller keeps every context alive, so contexts compare by identity
    without id reuse.
    """
    operating_point_memo.cache_clear()
    solves = []
    solve = CortexA57PowerModel.operating_point

    def traced(self, frequency_hz, activity=1.0):
        caller = sys._getframe(1)
        solves.append(
            (
                caller.f_code,
                caller.f_locals.get("self"),
                self,
                frequency_hz,
                activity,
            )
        )
        return solve(self, frequency_hz, activity)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CortexA57PowerModel, "operating_point", traced)
        runner = ScenarioRunner()
        results = {name: runner.run(name) for name in SCENARIOS}
    return results, solves


def test_every_operating_point_solve_goes_through_the_context(traced_runs):
    _, solves = traced_runs
    assert solves
    callers = {code for code, _, _, _, _ in solves}
    assert callers == {ModelContext.operating_point.__code__}
    assert all(isinstance(context, ModelContext) for _, context, _, _, _ in solves)


def test_no_operating_point_is_solved_twice_in_the_process(traced_runs):
    """No (model value, frequency, activity) key is solved twice.

    Across all three scenarios' contexts, including the alternative
    LPDDR4 chip's context ``ablation_memory_tech`` builds per workload,
    which shares the scenario's core model.
    """
    _, solves = traced_runs
    counts = collections.Counter(
        (model, frequency, activity) for _, _, model, frequency, activity in solves
    )
    assert max(counts.values()) == 1


@pytest.mark.parametrize("name", SCENARIOS)
def test_analyzers_read_the_sweep_bit_for_bit(traced_runs, name):
    """Plans, record powers and summaries are the sweep's columns."""
    result = traced_runs[0][name]
    context = result.context
    consolidation = ConsolidationAnalyzer(context)
    summaries = result.summary_by_workload()
    for workload_name, workload in result.spec.workloads().items():
        rows = result.sweep.filter(workload_name=workload_name)
        frequencies = rows.column("frequency_hz").tolist()
        assert list(context.reachable_frequencies()) == frequencies
        records = [context.evaluate(workload, f) for f in frequencies]
        for column in SCOPE_POWER_COLUMN.values():
            powers = [getattr(record, column) for record in records]
            assert powers == rows.column(column).tolist()
        for index, frequency in enumerate(frequencies):
            plan = consolidation.plan(workload, frequency)
            assert plan.server_power == rows.column("server_power")[index]
            assert plan.chip_uips == rows.column("chip_uips")[index]
        summary = summaries[workload_name]
        assert summary.optimal_frequency_by_scope == rows.scope_optima()
        assert summary.qos_floor_hz == rows.qos_floor()
    # Every read above was a memo hit on the sweep's records.
    assert context.evaluated_points == len(result.sweep)


def test_proportionality_reads_the_sweep_columns(traced_runs):
    result = traced_runs[0]["ablation_memory_tech"]
    analyzer = EnergyProportionalityAnalyzer(result.context)
    for workload_name, workload in result.spec.workloads().items():
        rows = result.sweep.filter(workload_name=workload_name)
        power = rows.column("server_power")
        uips = rows.column("chip_uips")
        frequencies = rows.column("frequency_hz").tolist()
        floor = frequencies.index(min(frequencies))
        nominal = frequencies.index(result.context.configuration.nominal_frequency_hz)
        expected = (1.0 - power[floor] / power[nominal]) / (
            1.0 - uips[floor] / uips[nominal]
        )
        assert analyzer.proportionality_index(workload) == max(0.0, min(1.0, expected))
        best = rows.argmax(rows.efficiency(EfficiencyScope.SERVER))
        assert analyzer.report(workload).server_optimum_hz == frequencies[best]
    assert result.context.evaluated_points == len(result.sweep)
