"""Unit tests for the scenario spec/registry/runner/CLI layer."""

import dataclasses
import json
import platform
import sys

import pytest

from repro import obs
from repro.core.config import default_server
from repro.dvfs import (
    GOVERNORS,
    REPLAY_COLUMNS,
    GovernorSimulator,
    load_trace_by_name,
)
from repro.fleet import FLEET_COLUMNS, Autoscaler, FleetSimulator
from repro.fleet.routing import ROUTERS
from repro.scenarios import (
    ALL_WORKLOADS,
    ANALYSES,
    REGISTRY,
    ScenarioRegistry,
    ScenarioRunner,
    ScenarioSpec,
    get_scenario,
    scenario_names,
    workload_set,
)
from repro.scenarios.cli import main as cli_main
from repro.technology.process import FDSOI_28NM_FBB
from repro.utils.units import mhz


# -- spec ------------------------------------------------------------------------------


def test_workload_sets_resolve():
    assert len(workload_set("scale-out")) == 4
    assert len(workload_set("virtualized")) == 2
    assert len(workload_set(ALL_WORKLOADS)) == 6


def test_workload_set_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown workload set 'gpu'"):
        workload_set("gpu")


def test_spec_configuration_applies_all_deltas():
    spec = ScenarioSpec(
        name="combo",
        title="t",
        technology="fdsoi-28nm-fbb",
        bias_policy="optimal",
        memory_chip="lpddr4-4gbit-x8",
        cluster_count=3,
        cores_per_cluster=16,
        frequency_grid_hz=(mhz(500), mhz(1000)),
    )
    configuration = spec.configuration()
    assert configuration.technology is FDSOI_28NM_FBB
    assert configuration.bias_policy.value == "optimal"
    assert configuration.memory_chip.name == "lpddr4-4gbit-x8"
    assert configuration.cluster_count == 3
    assert configuration.cores_per_cluster == 16
    assert configuration.core_count == 48
    assert configuration.frequency_grid == (mhz(500), mhz(1000))


def test_spec_without_deltas_is_default_server():
    assert ScenarioSpec(name="plain", title="t").configuration() == default_server()


def test_spec_workload_names_preserve_order():
    spec = ScenarioSpec(
        name="ordered",
        title="t",
        workload_names=("Web Search", "Data Serving"),
    )
    assert list(spec.workloads()) == ["Web Search", "Data Serving"]


def test_with_overrides_revalidates():
    spec = get_scenario("fig2_qos")
    with pytest.raises(ValueError, match="frequency grid must not be empty"):
        spec.with_overrides(frequency_grid_hz=())


def test_bias_policy_without_technology_applies_to_base():
    spec = ScenarioSpec(name="biased", title="t", bias_policy="optimal")
    assert spec.configuration().bias_policy.value == "optimal"
    assert spec.configuration().technology == default_server().technology


def test_memory_technology_analysis_requires_compare_chip(scenario_results):
    result = scenario_results("fig2_qos")
    with pytest.raises(ValueError, match="compare_memory_chip"):
        ANALYSES["memory_technology"](result.spec, result.context, result.sweep)


# -- registry --------------------------------------------------------------------------


def test_registry_has_required_scenarios():
    required = {
        "fig2_qos",
        "fig3_scaleout",
        "fig4_virtualized",
        "table1_ddr4",
        "ablation_body_bias",
        "ablation_cluster_size",
        "ablation_memory_tech",
        "consolidation_oversubscribe",
        "colocation_mixed",
        "sweep_governor_grid",
    }
    assert required <= set(scenario_names())
    assert len(REGISTRY) >= 8


def test_registry_membership_and_iteration():
    assert "fig2_qos" in REGISTRY
    assert "no_such" not in REGISTRY
    assert [spec.name for spec in REGISTRY] == list(scenario_names())


def test_every_scenario_analysis_is_registered():
    for spec in REGISTRY:
        for analysis in spec.analyses:
            assert analysis in ANALYSES


def test_registry_builds_its_builtins_on_first_read_and_retries_a_failure():
    calls = []

    def builtins():
        calls.append(len(calls))
        if len(calls) == 1:
            ScenarioSpec(name="broken", title="t", analyses=("no_such",))
        return [ScenarioSpec(name="a", title="t")]

    registry = ScenarioRegistry(builtins)
    assert calls == []
    with pytest.raises(ValueError, match="'broken': unknown analyses"):
        registry.names()
    assert registry.names() == ("a",)
    # A registration reads the registry too: built-ins come first.
    registry.register(ScenarioSpec(name="b", title="t"))
    assert [spec.name for spec in registry] == ["a", "b"]
    with pytest.raises(ValueError, match="'a' is already registered"):
        registry.register(ScenarioSpec(name="a", title="t"))
    assert calls == [0, 1]


# -- runner ----------------------------------------------------------------------------


@pytest.mark.parametrize("name", scenario_names())
def test_every_scenario_runs_and_is_uniform(name, scenario_results):
    result = scenario_results(name)
    spec = get_scenario(name)
    workloads = spec.workloads()
    # Uniform shape: one summary per workload, workload-major sweep,
    # every declared analysis present.
    assert [summary.workload_name for summary in result.summaries] == list(workloads)
    assert len(result.sweep) % len(workloads) == 0
    assert len(result.sweep) > 0
    assert set(result.extras) == set(spec.analyses)
    # Exactly-once evaluation on the shared context.
    assert result.context.evaluated_points == len(result.sweep)


def test_key_scalars_are_json_roundtrippable(scenario_results):
    scalars = scenario_results("fig3_scaleout").key_scalars()
    assert json.loads(json.dumps(scalars)) == scalars
    workload = scalars["workloads"]["Web Search"]
    assert workload["qos_floor_hz"] == 200e6
    assert set(workload["optimal_frequency_by_scope_hz"]) == {"cores", "soc", "server"}


def test_runner_accepts_spec_objects(scenario_results):
    spec = get_scenario("table1_ddr4")
    result = ScenarioRunner().run(spec)
    assert result.spec is spec
    assert result.extras["memory_table"]["table1_rows"][0]["chip"] == "ddr4-4gbit-x8"


def test_colocation_mixed_covers_both_classes(scenario_results):
    result = scenario_results("colocation_mixed")
    classes = set(result.sweep.column("workload_class"))
    assert classes == {"scale-out", "virtualized"}
    # The relaxed bound leaves a common feasible band across all six
    # workloads (the scenario's reason to exist).
    floors = result.extras["qos_floors"]
    assert all(floor is not None for floor in floors.values())
    assert max(floors.values()) <= 2e9


def test_sweep_to_dicts_roundtrip(scenario_results):
    sweep = scenario_results("fig4_virtualized").sweep
    rows = sweep.to_dicts()
    assert len(rows) == len(sweep)
    assert rows[0]["workload_name"] == sweep.record(0).workload_name
    assert rows[0]["latency_seconds"] is None  # virtualized rows have no latency
    assert json.loads(json.dumps(rows)) == rows


# -- CLI -------------------------------------------------------------------------------


def test_cli_list_names_every_scenario(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_cli_list_json(capsys):
    assert cli_main(["list", "--json"]) == 0
    specs = json.loads(capsys.readouterr().out)
    assert [spec["name"] for spec in specs] == list(scenario_names())


def test_cli_show(capsys):
    assert cli_main(["show", "fig2_qos"]) == 0
    spec = json.loads(capsys.readouterr().out)
    assert spec["workload_set"] == "scale-out"


def test_cli_show_unknown_fails(capsys):
    assert cli_main(["show", "no_such"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_run_table(capsys):
    assert cli_main(["run", "table1_ddr4"]) == 0
    out = capsys.readouterr().out
    assert "scenario: table1_ddr4" in out
    assert "Web Search" in out


def test_cli_run_json_and_csv_files(tmp_path, capsys):
    assert (
        cli_main(
            [
                "run",
                "fig4_virtualized",
                "--format",
                "json",
                "--sweep",
                "--output",
                str(tmp_path / "fig4.json"),
            ]
        )
        == 0
    )
    data = json.loads((tmp_path / "fig4.json").read_text())
    assert data["scenario"] == "fig4_virtualized"
    assert len(data["sweep"]) == data["key_scalars"]["rows"]

    assert (
        cli_main(
            ["run", "table1_ddr4", "--format", "csv", "--outdir", str(tmp_path)]
        )
        == 0
    )
    csv_text = (tmp_path / "table1_ddr4.csv").read_text()
    assert csv_text.splitlines()[0].startswith("scenario,workload_name")


def test_outdir_and_output_write_complete_artifacts(tmp_path, capsys):
    out = tmp_path / "nested" / "table1.json"
    code = cli_main(
        ["run", "table1_ddr4", "--format", "json", "--output", str(out)]
    )
    assert code == 0
    assert f"wrote {out}" in capsys.readouterr().out
    assert json.loads(out.read_text())["scenario"] == "table1_ddr4"


def test_cli_run_rejects_bad_usage(capsys, tmp_path):
    assert cli_main(["run"]) == 2
    assert cli_main(["run", "fig2_qos", "--all"]) == 2
    assert (
        cli_main(
            [
                "run",
                "fig2_qos",
                "fig3_scaleout",
                "--output",
                str(tmp_path / "x.json"),
            ]
        )
        == 2
    )
    assert cli_main(["run", "no_such"]) == 2


def test_cli_run_with_all_flag_runs_every_registered_scenario(tmp_path, capsys):
    # A small private registry keeps --all fast while still proving it
    # hits every registered scenario exactly once.
    from repro.scenarios import ScenarioRegistry

    registry = ScenarioRegistry()
    for name in ("tiny_one", "tiny_two"):
        registry.register(
            ScenarioSpec(
                name=name,
                title=f"tiny scenario {name}",
                workload_names=("Web Search",),
                frequency_grid_hz=(mhz(1000), mhz(2000)),
            )
        )
    assert (
        cli_main(
            ["run", "--all", "--format", "json", "--outdir", str(tmp_path)],
            registry=registry,
        )
        == 0
    )
    written = sorted(path.stem for path in tmp_path.glob("*.json"))
    assert written == ["tiny_one", "tiny_two"]
    out = capsys.readouterr().out
    assert "tiny_one.json" in out and "tiny_two.json" in out


def test_cli_run_unknown_name_fails_and_lists_known_names(capsys):
    assert cli_main(["run", "no_such_scenario"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario 'no_such_scenario'" in err
    for name in scenario_names():
        assert name in err


def test_cli_run_unknown_name_among_valid_ones_still_fails(capsys, tmp_path):
    # One bad name poisons the whole invocation (non-zero exit), even
    # when other requested scenarios exist -- and it is caught before
    # any scenario runs, so nothing is printed or written.
    code = cli_main(
        ["run", "table1_ddr4", "no_such", "--outdir", str(tmp_path)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "unknown scenario 'no_such'" in captured.err
    assert "wrote" not in captured.out
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_run_timing_table(capsys):
    assert cli_main(["run", "table1_ddr4", "--timing"]) == 0
    out = capsys.readouterr().out
    # Per-scenario line plus the aligned summary table.
    assert "evaluated points" in out
    assert "wall (s)" in out
    assert "timing:" in out
    assert "s wall" in out


def test_cli_run_timing_json_embeds_counts(tmp_path, capsys):
    output = tmp_path / "timed.json"
    assert (
        cli_main(
            [
                "run",
                "table1_ddr4",
                "--format",
                "json",
                "--timing",
                "--output",
                str(output),
            ]
        )
        == 0
    )
    data = json.loads(output.read_text())
    assert data["timing"]["wall_s"] > 0
    assert data["timing"]["evaluated_points"] > 0
    # The summary table still lands on stdout, not in the file.
    out = capsys.readouterr().out
    assert "wall (s)" in out


def test_cli_run_without_timing_has_no_timing_output(tmp_path, capsys):
    output = tmp_path / "untimed.json"
    assert (
        cli_main(
            ["run", "table1_ddr4", "--format", "json", "--output", str(output)]
        )
        == 0
    )
    assert "timing" not in json.loads(output.read_text())
    assert "wall (s)" not in capsys.readouterr().out


# -- batched governor grid scenario -----------------------------------------------------


def _grid_batch_size() -> int:
    # One workload x three registry traces x every registered governor.
    return 3 * len(GOVERNORS)


def test_sweep_governor_grid_matches_sequential_replays(scenario_results):
    """The batched grid's summaries equal sequential simulator replays."""
    result = scenario_results("sweep_governor_grid")
    extras = result.extras["sweep_governor_grid"]
    assert extras["batch_size"] == _grid_batch_size()
    assert extras["batched_replays"] == _grid_batch_size()
    assert extras["fallback_replays"] == 0
    assert set(extras["governors"]) == set(GOVERNORS)
    spec = get_scenario("sweep_governor_grid")
    for name, workload in spec.workloads().items():
        simulator = GovernorSimulator(
            result.context, workload, frequencies=spec.frequency_grid_hz
        )
        by_trace = extras["replays"][name]
        assert set(by_trace) == {"diurnal", "bursty", "bitbrains"}
        for trace_name, per_governor in by_trace.items():
            trace = load_trace_by_name(trace_name)
            for governor, summary in per_governor.items():
                assert summary == simulator.replay(trace, governor).summary()


def test_sweep_governor_grid_picks_best_governor(scenario_results):
    extras = scenario_results("sweep_governor_grid").extras[
        "sweep_governor_grid"
    ]
    for by_trace in extras["best_governor_at_zero_violations"].values():
        for trace_name, best in by_trace.items():
            per_governor = extras["replays"]["Web Search"][trace_name]
            if best is None:
                assert all(
                    summary["violation_count"] > 0
                    for summary in per_governor.values()
                )
                continue
            winner = per_governor[best]
            assert winner["violation_count"] == 0
            assert all(
                winner["total_energy_j"] <= summary["total_energy_j"]
                for summary in per_governor.values()
                if summary["violation_count"] == 0
            )


def test_cli_run_batched_scenario_reports_throughput(capsys):
    assert cli_main(["run", "sweep_governor_grid", "--timing"]) == 0
    out = capsys.readouterr().out
    assert f"batch of {_grid_batch_size()} replays" in out
    assert "replays/s" in out
    # The summary table grows batch columns alongside the old ones.
    assert "batch" in out
    assert "wall (s)" in out
    assert "evaluated points" in out


def test_cli_run_batched_scenario_timing_json(tmp_path, capsys):
    output = tmp_path / "grid.json"
    assert (
        cli_main(
            [
                "run",
                "sweep_governor_grid",
                "--format",
                "json",
                "--timing",
                "--output",
                str(output),
            ]
        )
        == 0
    )
    data = json.loads(output.read_text())
    assert data["timing"]["batch_size"] == _grid_batch_size()
    assert data["timing"]["replays_per_s"] > 0
    assert data["timing"]["wall_s"] > 0
    capsys.readouterr()


def test_cli_timing_shows_dashes_for_unbatched_scenarios(tmp_path, capsys):
    # A scenario without a batched analysis: no batch keys in JSON...
    output = tmp_path / "untimed.json"
    assert (
        cli_main(
            [
                "run",
                "table1_ddr4",
                "--format",
                "json",
                "--timing",
                "--output",
                str(output),
            ]
        )
        == 0
    )
    assert "batch_size" not in json.loads(output.read_text())["timing"]
    # ...and dash cells in the shared timing summary table.
    out = capsys.readouterr().out
    rows = [
        line
        for line in out.splitlines()
        if line.startswith("table1_ddr4")
    ]
    assert rows and all("-" in row for row in rows)


# -- profiling and run reports ----------------------------------------------------------


def test_cli_run_profile_prints_span_tree(capsys):
    assert cli_main(["run", "table1_ddr4", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "profile: table1_ddr4" in out
    assert "scenario.run" in out
    assert "scenario.context_build" in out
    assert "scenario.analysis" in out
    assert "context.memo_misses" in out


def test_cli_report_out_writes_a_valid_report_covering_the_run(
    tmp_path, capsys
):
    output = tmp_path / "report.json"
    assert (
        cli_main(
            ["run", "sweep_governor_grid", "--report-out", str(output)]
        )
        == 0
    )
    assert f"wrote {output}" in capsys.readouterr().out
    data = json.loads(output.read_text())
    obs.validate_report(data)
    report = obs.RunReport.from_dict(data)
    assert data["meta"]["scenarios"] == ["sweep_governor_grid"]
    # The spans cover every stage of the run: context build, table
    # build, the batched replay, the sweep and the analyses.
    assert {
        "scenario.run",
        "scenario.context_build",
        "scenario.sweep",
        "scenario.summaries",
        "scenario.analysis",
        "context.table_build",
        "batch.run",
    } <= set(report.names)
    (batch,) = report.spans_named("batch.run")
    assert batch["attributes"]["batch_size"] == _grid_batch_size()
    assert report.counters["batch.batched_replays"] == _grid_batch_size()
    assert report.counters["context.memo_misses"] > 0
    assert report.counters["context.memo_hits"] > 0


def test_cli_report_out_merges_multiple_scenarios(tmp_path, capsys):
    output = tmp_path / "multi.json"
    assert (
        cli_main(
            ["run", "table1_ddr4", "fig2_qos", "--report-out", str(output)]
        )
        == 0
    )
    out = capsys.readouterr().out
    # --report-out alone does not switch on the timing output.
    assert "timing:" not in out
    data = json.loads(output.read_text())
    obs.validate_report(data)
    report = obs.RunReport.from_dict(data)
    assert data["meta"]["scenarios"] == ["table1_ddr4", "fig2_qos"]
    assert len(report.spans_named("scenario.run")) == 2
    scenarios = [
        span["attributes"]["scenario"]
        for span in report.spans_named("scenario.run")
    ]
    assert scenarios == ["table1_ddr4", "fig2_qos"]


def test_cli_report_meta_carries_the_run_environment(
    tmp_path, monkeypatch, capsys
):
    """Run from a directory with no ``.git``: the commit is unknown."""
    monkeypatch.chdir(tmp_path)
    output = tmp_path / "report.json"
    assert (
        cli_main(["run", "table1_ddr4", "--report-out", str(output)]) == 0
    )
    data = json.loads(output.read_text())
    obs.validate_report(data)
    env = data["meta"]["env"]
    assert set(env) == {"python", "numpy", "nproc", "git_sha", "argv", "threads"}
    assert env["git_sha"] is None
    assert env["python"] == platform.python_version()
    assert env["argv"] == sys.argv
    assert set(env["threads"]) == {
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    }


def test_cli_run_leaves_instrumentation_off(tmp_path):
    output = tmp_path / "report.json"
    assert (
        cli_main(["run", "table1_ddr4", "--report-out", str(output)]) == 0
    )
    assert not obs.is_enabled()


# -- per-step tables --------------------------------------------------------------------

# Per scenario: the analysis holding its ``_steps``, their column keys
# and the title prefix of the CLI's step tables.
_STEP_TABLES = {
    "dvfs_diurnal_websearch": ("dvfs_replay", REPLAY_COLUMNS, "replay"),
    "fleet_diurnal_websearch": ("fleet_replay", FLEET_COLUMNS, "fleet"),
    "stress_node_crash": ("fleet_stress", FLEET_COLUMNS, "stress fleet"),
}


def _step_results(name, context):
    """The scenario's replays, rerun per (workload, policy) outside it."""
    spec = get_scenario(name)
    trace = load_trace_by_name(spec.load_trace)
    results = {}
    for workload_name, workload in spec.workloads().items():
        if spec.fleet_size is None:
            simulator = GovernorSimulator(
                context, workload, frequencies=spec.frequency_grid_hz
            )
            results[workload_name] = simulator.compare(
                trace, spec.governors or None
            )
            continue
        simulator = FleetSimulator(
            context,
            workload,
            fleet_size=spec.fleet_size,
            governor=spec.fleet_governor,
            autoscaler=Autoscaler() if spec.fleet_autoscale else None,
            frequencies=spec.frequency_grid_hz,
        )
        results[workload_name] = simulator.compare(
            trace,
            spec.fleet_routings or None,
            disturbances=(
                spec.disturbance_schedule() if spec.disturbances else None
            ),
        )
    return results


def _first_step_cells(prefix, columns):
    """The cells the CLI prints on a step table's first body line."""
    first = {name: values[0] for name, values in columns.items()}
    qos = "violated" if first["violation"] else "ok"
    if prefix == "replay":
        return [
            str(first["step"]),
            f"{first['time_s']:.0f}",
            f"{first['utilization']:.2f}",
            f"{first['frequency_hz'] / 1e6:.0f}",
            f"{first['power_w']:.1f}",
            f"{first['energy_j']:.0f}",
            qos,
        ]
    if prefix == "fleet":
        tail = first["tail_latency_s"]
        if tail is None:
            tail_cell = "-"
        elif tail == "saturated":
            tail_cell = "sat"
        else:
            tail_cell = f"{tail * 1e3:.1f}"
        return [
            str(first["step"]),
            f"{first['time_s']:.0f}",
            f"{first['utilization']:.2f}",
            str(first["active_servers"]),
            str(first["serving_servers"]),
            str(first["used_servers"]),
            f"{first['total_power_w']:.1f}",
            f"{first['energy_j']:.0f}",
            tail_cell,
            qos,
        ]
    return [
        str(first["step"]),
        f"{first['utilization']:.2f}",
        str(first["active_servers"]),
        str(first["serving_servers"]),
        f"{first['energy_j']:.0f}",
        qos,
    ]


def _step_table_bodies(out, prefix):
    """``{title: body lines}`` of the step tables titled ``prefix: ...``."""
    lines = out.splitlines()
    tables = {}
    for index, line in enumerate(lines):
        if line.startswith(f"{prefix}: "):
            body = []
            for row in lines[index + 3 :]:  # past the header and rule
                if not row:
                    break
                body.append(row)
            tables[line[len(prefix) + 2 :]] = body
    return tables


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("name", sorted(_STEP_TABLES))
def test_cli_step_tables_render_the_step_columns(
    name, scenario_results, tmp_path, capsys
):
    analysis, column_names, prefix = _STEP_TABLES[name]
    results = _step_results(name, scenario_results(name).context)

    # Table format: one body line per trace step, led by the first step.
    assert cli_main(["run", name]) == 0
    tables = _step_table_bodies(capsys.readouterr().out, prefix)
    expected_titles = [
        f"{workload} under {policy}"
        for workload, by_policy in results.items()
        for policy in by_policy
    ]
    assert list(tables) == expected_titles
    for workload, by_policy in results.items():
        for policy, result in by_policy.items():
            body = tables[f"{workload} under {policy}"]
            assert len(body) == len(result)
            assert body[0].split() == _first_step_cells(
                prefix, result.to_columns()
            )

    # JSON format: compact strict JSON whose _steps leaves are the
    # results' columns, keyed in the class's column order.
    output = tmp_path / f"{name}.json"
    assert cli_main(["run", name, "--format", "json", "--output", str(output)]) == 0
    capsys.readouterr()
    text = output.read_text()
    assert text.count("\n") == 1  # one compact line
    steps = json.loads(text, parse_constant=_reject_constant)["extras"][analysis][
        "_steps"
    ]
    assert list(steps) == list(results)
    for workload, by_policy in results.items():
        assert list(steps[workload]) == list(by_policy)
        for policy, result in by_policy.items():
            columns = steps[workload][policy]
            assert tuple(columns) == column_names
            assert {len(values) for values in columns.values()} == {len(result)}
            assert columns == result.to_columns()


# -- fleet spec fields ------------------------------------------------------------------


def _fleet_spec(**overrides):
    fields = dict(
        name="fleet_probe",
        title="fleet validation probe",
        workload_names=("Web Search",),
        load_trace="diurnal",
        fleet_size=4,
        analyses=("fleet_replay",),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def test_fleet_spec_accepts_valid_fields():
    spec = _fleet_spec(fleet_routings=("pack", "spread"), fleet_autoscale=False)
    assert spec.fleet_size == 4
    assert spec.fleet_governor == "qos_tracker"


def test_fleet_spec_rejects_non_positive_fleet_size():
    with pytest.raises(ValueError, match="fleet_size must be >= 1"):
        _fleet_spec(fleet_size=0)


@pytest.mark.parametrize("fleet_size", [2.0, True])
def test_fleet_spec_rejects_non_int_fleet_size(fleet_size):
    """Rejected at the spec itself, not in the derived opt parameter space."""
    registered = get_scenario("fleet_diurnal_websearch")
    with pytest.raises(ValueError) as error:
        dataclasses.replace(registered, fleet_size=fleet_size)
    message = str(error.value)
    assert message.startswith("scenario 'fleet_diurnal_websearch': fleet_size")
    assert f"must be an int, got {fleet_size!r}" in message
    assert "parameter space" not in message


def test_fleet_spec_rejects_unknown_routing():
    with pytest.raises(ValueError, match="unknown fleet routings.*random"):
        _fleet_spec(fleet_routings=("pack", "random"))


def test_fleet_spec_rejects_duplicate_routings():
    with pytest.raises(ValueError, match="duplicates"):
        _fleet_spec(fleet_routings=("pack", "pack"))


def test_fleet_spec_rejects_unknown_governor():
    with pytest.raises(ValueError, match="unknown fleet governor"):
        _fleet_spec(fleet_governor="turbo")


def test_fleet_replay_analysis_requires_fleet_size():
    with pytest.raises(ValueError, match="needs fleet_size"):
        _fleet_spec(fleet_size=None)


def test_fleet_replay_analysis_requires_load_trace():
    with pytest.raises(ValueError, match="needs load_trace"):
        _fleet_spec(load_trace=None)


def test_fleet_scenarios_are_registered_with_goldens():
    for name in (
        "fleet_diurnal_websearch",
        "fleet_bursty_dataserving",
        "fleet_bitbrains_consolidation",
    ):
        spec = get_scenario(name)
        assert "fleet_replay" in spec.analyses
        assert spec.fleet_size is not None and spec.load_trace is not None


# -- stress spec fields -----------------------------------------------------------------


def _stress_spec(**overrides):
    fields = dict(
        name="stress_probe",
        title="stress validation probe",
        workload_names=("Web Search",),
        load_trace="diurnal",
        fleet_size=4,
        surge_start=8,
        surge_steps=4,
        surge_factor=2.0,
        analyses=("fleet_stress",),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def test_stress_spec_accepts_valid_fields():
    spec = _stress_spec(surge_shape="ramp")
    assert spec.surge_steps == 4
    assert len(spec.disturbance_schedule()) == 0


def test_stress_spec_rejects_bad_surge_fields():
    with pytest.raises(ValueError, match="surge_start must be >= 0"):
        _stress_spec(surge_start=-1)
    with pytest.raises(ValueError, match="surge_steps must be >= 0"):
        _stress_spec(surge_steps=-2)
    with pytest.raises(ValueError, match="surge_factor must be positive"):
        _stress_spec(surge_factor=0.0)
    with pytest.raises(ValueError, match="surge_shape must be"):
        _stress_spec(surge_shape="cliff")


def test_stress_spec_validates_disturbance_tuples():
    spec = _stress_spec(
        surge_steps=0,
        disturbances=(("node_crash", 0, 6), ("node_restore", 0, 10)),
    )
    schedule = spec.disturbance_schedule()
    assert schedule.kinds == ("node_crash", "node_restore")
    assert len(schedule) == 2
    with pytest.raises(ValueError, match="stress_probe.*unknown disturbance"):
        _stress_spec(disturbances=(("comet", 0, 6),))
    with pytest.raises(ValueError, match="without a preceding crash"):
        _stress_spec(disturbances=(("node_restore", 0, 6),))


def test_fleet_stress_analysis_needs_a_stressor():
    with pytest.raises(ValueError, match="needs a surge"):
        _stress_spec(surge_steps=0)
    with pytest.raises(ValueError, match="needs fleet_size"):
        _stress_spec(fleet_size=None)
    with pytest.raises(ValueError, match="needs load_trace"):
        _stress_spec(load_trace=None)


def test_stress_scenarios_are_registered_with_goldens():
    for name in (
        "stress_flash_crowd",
        "stress_node_crash",
        "stress_thermal_cap",
    ):
        spec = get_scenario(name)
        assert "fleet_stress" in spec.analyses
        assert spec.fleet_size is not None and spec.load_trace is not None
    assert get_scenario("stress_flash_crowd").surge_steps > 0
    assert get_scenario("stress_node_crash").disturbance_schedule().kinds == (
        "node_crash",
        "node_restore",
    )
    capped = get_scenario("stress_thermal_cap")
    assert capped.disturbance_schedule().kinds == ("thermal_cap",)
    with obs.capture() as window:
        ScenarioRunner().run(capped)
    deltas = window.counter_deltas()
    # One kernel replay per routing: the capped fleet never falls back
    # to the object path.
    assert deltas["fleet.kernel_replays"] == len(ROUTERS)
    assert deltas.get("fleet.reference_replays", 0) == 0
