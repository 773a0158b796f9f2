"""Tests for the batched sweep engine (context, columnar result, runner).

The central guarantee: the batched :class:`SweepRunner` produces
records numerically identical to evaluating every point through a
fresh per-point :class:`ModelContext`, and a sweep plus its summaries
resolve each (workload, frequency) point exactly once.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import default_server
from repro.core.efficiency import EfficiencyScope
from repro.power.soc import SoCPowerModel
from repro.sweep import ModelContext, SweepResult, SweepRunner
from repro.sweep.context import record_memo
from repro.utils.units import ghz, mhz
from repro.workloads.banking_vm import virtualized_workloads
from repro.workloads.base import WorkloadCharacteristics, WorkloadClass
from repro.workloads.cloudsuite import scale_out_workloads


def _scale_out(name, base_cpi, l1_mpki, llc_fraction, mlp, activity, headroom):
    return WorkloadCharacteristics(
        name=name,
        workload_class=WorkloadClass.SCALE_OUT,
        base_cpi=base_cpi,
        branch_fraction=0.15,
        branch_predictability=0.9,
        l1_mpki=l1_mpki,
        llc_mpki=l1_mpki * llc_fraction,
        memory_level_parallelism=mlp,
        activity_factor=activity,
        write_fraction=0.3,
        instructions_per_request=1.0e6,
        minimum_latency_99th_seconds=0.001,
        qos_limit_seconds=0.001 * headroom,
    )


def _virtualized(name, base_cpi, l1_mpki, llc_fraction, mlp, activity, _headroom):
    return WorkloadCharacteristics(
        name=name,
        workload_class=WorkloadClass.VIRTUALIZED,
        base_cpi=base_cpi,
        branch_fraction=0.15,
        branch_predictability=0.9,
        l1_mpki=l1_mpki,
        llc_mpki=l1_mpki * llc_fraction,
        memory_level_parallelism=mlp,
        activity_factor=activity,
        write_fraction=0.3,
    )


workload_params = st.tuples(
    st.booleans(),
    st.floats(min_value=0.4, max_value=1.5),
    st.floats(min_value=1.0, max_value=60.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=1.0, max_value=6.0),
    st.floats(min_value=0.3, max_value=1.0),
    st.floats(min_value=2.0, max_value=20.0),
)


def _build_workload(index, params):
    scale_out, base_cpi, l1_mpki, llc_fraction, mlp, activity, headroom = params
    builder = _scale_out if scale_out else _virtualized
    return builder(
        f"random-{index}", base_cpi, l1_mpki, llc_fraction, mlp, activity, headroom
    )


grids = st.lists(
    st.sampled_from(
        [mhz(150), mhz(300), mhz(500), mhz(900), ghz(1.3), ghz(1.7), ghz(2.0)]
    ),
    min_size=1,
    max_size=4,
    unique=True,
)


@settings(max_examples=15, deadline=None)
@given(params_list=st.lists(workload_params, min_size=1, max_size=3), grid=grids)
def test_sweep_runner_matches_per_point_explorer(params_list, grid):
    """A batched sweep == fresh per-point evaluation."""
    configuration = default_server()
    workloads = [
        _build_workload(index, params) for index, params in enumerate(params_list)
    ]

    batched = SweepRunner.for_configuration(configuration).run(workloads, grid)

    expected = []
    for workload in workloads:
        for frequency in grid:
            # A fresh context per point: no context state shared with the runner.
            context = ModelContext(configuration)
            if not context.is_reachable(frequency):
                continue
            expected.append(context.evaluate(workload, frequency))

    assert len(batched) == len(expected)
    assert batched.to_records() == expected


def test_sweep_and_summaries_evaluate_each_point_exactly_once():
    runner = SweepRunner.for_configuration(default_server())
    workloads = list(scale_out_workloads().values()) + list(
        virtualized_workloads().values()
    )
    sweep = runner.run(workloads)
    summaries = [
        SweepRunner.summarize_workload(sweep, workload.name) for workload in workloads
    ]
    grid = runner.context.reachable_frequencies()
    assert runner.context.evaluated_points == len(workloads) * len(grid)
    assert [summary.workload_name for summary in summaries] == [
        workload.name for workload in workloads
    ]
    # Re-sweeping hits the record cache: no new evaluations.
    runner.run(workloads)
    assert runner.context.evaluated_points == len(workloads) * len(grid)


def test_summarize_workload_matches_batched_summaries():
    """A workload's summary is the same from one batched sweep of every
    workload as from a sweep of that workload alone."""
    runner = SweepRunner.for_configuration(default_server())
    workloads = list(scale_out_workloads().values())
    batched = runner.run(workloads)
    for workload in workloads:
        alone = runner.run([workload])
        assert SweepRunner.summarize_workload(
            batched, workload.name
        ) == SweepRunner.summarize_workload(alone, workload.name)
    with pytest.raises(ValueError, match="no rows"):
        SweepRunner.summarize_workload(batched, "no-such-workload")


def test_summarize_matches_per_workload_summaries():
    """Each summary field is the matching reduction of the workload's rows."""
    runner = SweepRunner.for_configuration(default_server())
    workloads = list(scale_out_workloads().values()) + list(
        virtualized_workloads().values()
    )
    sweep = runner.run(workloads)
    for workload in workloads:
        rows = sweep.filter(workload_name=workload.name)
        summary = SweepRunner.summarize_workload(sweep, workload.name)
        assert summary.qos_floor_hz == rows.qos_floor()
        assert summary.optimal_frequency_by_scope == rows.scope_optima()
        best = max(
            (record for record in rows if record.meets_qos),
            key=lambda record: record.server_efficiency,
        )
        assert summary.best_qos_respecting_frequency == best.frequency_hz
        assert summary.best_qos_respecting_efficiency == best.server_efficiency


# -- ModelContext -----------------------------------------------------------------------


def test_context_caches_operating_points_and_models():
    context = ModelContext(default_server())
    assert context.performance_model is context.performance_model
    assert context.server_power_model is context.server_power_model
    first = context.operating_point(ghz(1.0), 0.7)
    assert context.operating_point(ghz(1.0), 0.7) is first
    assert context.is_reachable(ghz(1.0))
    assert not context.is_reachable(ghz(10.0))


def test_context_resolves_one_soc_breakdown_per_evaluated_record(monkeypatch):
    """A record's SoC and server powers come from one SoC breakdown."""
    record_memo.cache_clear()  # earlier tests resolved these records
    calls = []
    breakdown = SoCPowerModel.breakdown

    def counted(self, *args, **kwargs):
        calls.append(args)
        return breakdown(self, *args, **kwargs)

    monkeypatch.setattr(SoCPowerModel, "breakdown", counted)
    context = ModelContext(default_server())
    workloads = list(scale_out_workloads().values()) + list(
        virtualized_workloads().values()
    )
    for workload in workloads:
        context.evaluate_workload(workload)
        context.evaluate_workload(workload)  # memo hits solve nothing
    assert context.evaluated_points > 0
    assert len(calls) == context.evaluated_points


def test_context_reachable_frequencies_preserve_order():
    context = ModelContext(default_server())
    grid = [ghz(2.0), mhz(500), ghz(1.0)]
    assert context.reachable_frequencies(grid) == (ghz(2.0), mhz(500), ghz(1.0))


# -- SweepResult ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    workloads = list(scale_out_workloads().values()) + list(
        virtualized_workloads().values()
    )
    return SweepRunner.for_configuration(default_server()).run(
        workloads, [mhz(500), ghz(1.0), ghz(2.0)]
    )


def test_result_roundtrips_records(sweep):
    records = sweep.to_records()
    rebuilt = SweepResult.from_records(records)
    assert rebuilt.to_records() == records


def test_result_concat_preserves_order(sweep):
    rebuilt = SweepResult.concat(
        sweep.filter(workload_name=name)
        for name in dict.fromkeys(sweep.column("workload_name"))
    )
    assert rebuilt.to_records() == sweep.to_records()
    assert len(SweepResult.concat([])) == 0


def test_result_filter_by_equality(sweep):
    web = sweep.filter(workload_name="Web Search")
    assert len(web) == 3
    assert set(web.column("workload_name")) == {"Web Search"}
    ok = sweep.filter(workload_name="Web Search", meets_qos=True)
    assert all(record.meets_qos for record in ok)


def test_result_filter_with_mask_and_callable(sweep):
    fast = sweep.filter(sweep.column("frequency_hz") >= ghz(1.0))
    assert set(fast.column("frequency_hz")) == {ghz(1.0), ghz(2.0)}
    same = sweep.filter(lambda table: table.column("frequency_hz") >= ghz(1.0))
    assert same.to_records() == fast.to_records()


def test_result_group_by_preserves_order(sweep):
    groups = sweep.group_by("workload_name")
    assert list(groups) == list(dict.fromkeys(sweep.column("workload_name")))
    assert sum(len(group) for group in groups.values()) == len(sweep)


def test_result_argmax_and_best(sweep):
    index = sweep.argmax("chip_uips")
    assert sweep.column("chip_uips")[index] == sweep.column("chip_uips").max()
    best = sweep.best(sweep.efficiency(EfficiencyScope.SERVER))
    manual = max(sweep.to_records(), key=lambda record: record.server_efficiency)
    assert best == manual


def test_result_qos_floor(sweep):
    web = sweep.filter(workload_name="Web Search")
    assert web.qos_floor() == min(
        record.frequency_hz for record in web if record.meets_qos
    )
    none_meet = web.filter(web.column("frequency_hz") < 0)
    assert none_meet.qos_floor() is None
    vms = sweep.filter(workload_name="VMs low-mem")
    strict = vms.qos_floor(degradation_bound=2.0)
    relaxed = vms.qos_floor(degradation_bound=4.0)
    assert strict is not None and relaxed is not None
    assert relaxed <= strict
    assert vms.qos_floor(degradation_bound=0.0) is None


def test_result_scope_optima_take_the_first_peak(sweep):
    record = sweep.filter(workload_name="Web Search").record(0)
    tied = SweepResult.from_records(
        dataclasses.replace(record, frequency_hz=frequency)
        for frequency in (ghz(2.0), ghz(1.0), mhz(500))
    )
    assert tied.scope_optima() == {
        "cores": ghz(2.0),
        "soc": ghz(2.0),
        "server": ghz(2.0),
    }


def test_result_argmax_empty_raises(sweep):
    empty = sweep.filter(workload_name="no-such-workload")
    with pytest.raises(ValueError, match="empty"):
        empty.argmax("chip_uips")


def test_result_efficiency_matches_record_properties(sweep):
    for scope in EfficiencyScope:
        column = sweep.efficiency(scope)
        for index, record in enumerate(sweep):
            assert column[index] == pytest.approx(record.efficiency(scope))


def test_result_slicing_and_negative_index(sweep):
    head = sweep[:4]
    assert isinstance(head, SweepResult)
    assert len(head) == 4
    assert head.record(0) == sweep.record(0)
    assert sweep[-1] == sweep.record(len(sweep) - 1)
    with pytest.raises(IndexError):
        sweep.record(len(sweep))


def test_result_unknown_column_raises(sweep):
    with pytest.raises(KeyError, match="unknown sweep column"):
        sweep.column("no_such_column")


def test_result_optional_columns_round_trip_none(sweep):
    scale_out = sweep.filter(workload_class="scale-out")
    virtualized = sweep.filter(workload_class="virtualized")
    assert np.isnan(scale_out.column("degradation")).all()
    assert np.isnan(virtualized.column("latency_seconds")).all()
    assert scale_out.record(0).degradation is None
    assert virtualized.record(0).latency_seconds is None
    assert virtualized.record(0).degradation is not None


def test_group_by_nan_keys_form_one_group(sweep):
    """Grouping by an optional column must not lose NaN rows (mixed sweep)."""
    import math

    groups = sweep.group_by("degradation")
    grouped_rows = sum(len(rows) for rows in groups.values())
    assert grouped_rows == len(sweep)
    nan_keys = [key for key in groups if isinstance(key, float) and math.isnan(key)]
    assert len(nan_keys) == 1
    nan_group = groups[nan_keys[0]]
    # Exactly the scale-out rows (no degradation) land in the NaN group.
    assert set(nan_group.column("workload_class")) == {"scale-out"}
    assert len(nan_group) == len(sweep.filter(workload_class="scale-out"))
