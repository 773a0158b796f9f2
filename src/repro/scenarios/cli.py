"""Command-line interface: ``python -m repro.scenarios``.

Commands
--------

``list``
    One line per registered scenario (name, workload set, title);
    ``--json`` emits the machine-readable spec list.
``show NAME``
    The full spec of one scenario.
``run NAME... | --all``
    Execute scenarios and emit results as an aligned text table
    (default), ``--format csv`` (the sweep rows) or ``--format json``
    (compact strict JSON: summaries + key scalars + analyses, per-step
    tables as columns; ``--sweep`` adds the full table).  ``--output
    FILE`` writes a single scenario's output to a file; ``--outdir
    DIR`` writes one file per scenario.  Every name is resolved before
    any scenario runs, so an unknown one exits 2 with nothing written.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.scenarios.registry import REGISTRY, ScenarioRegistry

# The runner loads on the ``run`` path only, so ``list`` and ``show``
# do not compile it.
if TYPE_CHECKING:
    from repro.scenarios.runner import ScenarioResult


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="List and run the registered paper-reproduction scenarios.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser("list", help="list registered scenarios")
    list_parser.add_argument(
        "--json", action="store_true", help="emit the spec list as JSON"
    )

    show_parser = commands.add_parser("show", help="print one scenario's spec")
    show_parser.add_argument("name", help="registered scenario name")

    run_parser = commands.add_parser("run", help="run one or more scenarios")
    run_parser.add_argument("names", nargs="*", help="registered scenario names")
    run_parser.add_argument(
        "--all", action="store_true", help="run every registered scenario"
    )
    run_parser.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default: table)",
    )
    run_parser.add_argument(
        "--sweep",
        action="store_true",
        help="include the full sweep table in JSON output",
    )
    run_parser.add_argument(
        "--timing",
        action="store_true",
        help=(
            "report per-scenario wall time and evaluated-point counts "
            "(appended to table output, embedded in JSON output)"
        ),
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print each scenario's instrumentation report (span tree, "
            "per-span totals, counters) after its output"
        ),
    )
    run_parser.add_argument(
        "--report-out",
        type=Path,
        metavar="PATH",
        help=(
            "write the run's spans + counters as a strict-JSON "
            "repro.obs run report (scenarios merge into one file)"
        ),
    )
    run_parser.add_argument(
        "--output", type=Path, help="write a single scenario's output to FILE"
    )
    run_parser.add_argument(
        "--outdir", type=Path, help="write one output file per scenario to DIR"
    )
    return parser


def _qos_cells(violations: List[bool]) -> List[str]:
    """The QoS cell of each step: ``violated`` or ``ok``."""
    return ["violated" if violation else "ok" for violation in violations]


def _tail_cells(tails: List[object]) -> List[str]:
    """Tail-latency cells in ms; ``-`` when undefined, ``sat`` when saturated."""
    return [
        "-" if tail is None else "sat" if tail == "saturated" else f"{tail * 1e3:.1f}"
        for tail in tails
    ]


def _render_replay_steps(extras: dict) -> List[str]:
    """Per-step governor tables of a ``dvfs_replay`` analysis.

    Each ``_steps`` leaf is a columns dict (one list per column); the
    table formats the columns it shows and zips them into rows.
    """
    from repro.utils.tables import format_table

    steps = extras.get("dvfs_replay", {}).get("_steps", {})
    lines: List[str] = []
    for workload, by_governor in steps.items():
        for governor, columns in by_governor.items():
            lines.append("")
            lines.append(f"replay: {workload} under {governor}")
            lines.append(
                format_table(
                    ("step", "t (s)", "util", "f (MHz)", "P (W)", "E (J)", "QoS"),
                    zip(
                        columns["step"],
                        [f"{value:.0f}" for value in columns["time_s"]],
                        [f"{value:.2f}" for value in columns["utilization"]],
                        [f"{value / 1e6:.0f}" for value in columns["frequency_hz"]],
                        [f"{value:.1f}" for value in columns["power_w"]],
                        [f"{value:.0f}" for value in columns["energy_j"]],
                        _qos_cells(columns["violation"]),
                    ),
                )
            )
    return lines


def _render_fleet_steps(extras: dict) -> List[str]:
    """Per-step fleet tables of a ``fleet_replay`` analysis.

    Each ``_steps`` leaf is a columns dict (one list per column); the
    table formats the columns it shows and zips them into rows.
    """
    from repro.utils.tables import format_table

    steps = extras.get("fleet_replay", {}).get("_steps", {})
    lines: List[str] = []
    for workload, by_routing in steps.items():
        for routing, columns in by_routing.items():
            lines.append("")
            lines.append(f"fleet: {workload} under {routing}")
            lines.append(
                format_table(
                    (
                        "step",
                        "t (s)",
                        "util",
                        "on",
                        "serving",
                        "used",
                        "P (W)",
                        "E (J)",
                        "tail (ms)",
                        "QoS",
                    ),
                    zip(
                        columns["step"],
                        [f"{value:.0f}" for value in columns["time_s"]],
                        [f"{value:.2f}" for value in columns["utilization"]],
                        columns["active_servers"],
                        columns["serving_servers"],
                        columns["used_servers"],
                        [f"{value:.1f}" for value in columns["total_power_w"]],
                        [f"{value:.0f}" for value in columns["energy_j"]],
                        _tail_cells(columns["tail_latency_s"]),
                        _qos_cells(columns["violation"]),
                    ),
                )
            )
    return lines


def _render_stress_events(extras: dict) -> List[str]:
    """Event/recovery tables and step tables of a ``fleet_stress`` analysis.

    The step tables read the ``_steps`` columns dicts the way
    :func:`_render_fleet_steps` does.
    """
    from repro.utils.tables import format_table

    stress = extras.get("fleet_stress", {})
    lines: List[str] = []
    resilience = stress.get("resilience", {})
    for workload, by_routing in resilience.items():
        for routing, metrics in by_routing.items():
            lines.append("")
            lines.append(
                f"stress: {workload} under {routing} "
                f"(peak step energy {metrics['surge_peak_energy_j']:.0f} J)"
            )
            lines.append(
                format_table(
                    ("event", "node", "step", "recovery (steps)", "respread viol"),
                    [
                        (
                            event["kind"],
                            "-" if event["node_id"] is None else event["node_id"],
                            event["step"],
                            (
                                "never"
                                if event["recovery_time_steps"] is None
                                else event["recovery_time_steps"]
                            ),
                            event["violations_during_respread"],
                        )
                        for event in metrics["events"]
                    ],
                )
            )
    for workload, by_routing in stress.get("_steps", {}).items():
        for routing, columns in by_routing.items():
            lines.append("")
            lines.append(f"stress fleet: {workload} under {routing}")
            lines.append(
                format_table(
                    ("step", "util", "on", "serving", "E (J)", "QoS"),
                    zip(
                        columns["step"],
                        [f"{value:.2f}" for value in columns["utilization"]],
                        columns["active_servers"],
                        columns["serving_servers"],
                        [f"{value:.0f}" for value in columns["energy_j"]],
                        _qos_cells(columns["violation"]),
                    ),
                )
            )
    return lines


def _render_opt_trials(extras: dict) -> List[str]:
    """Per-workload trials tables of a ``policy_opt`` analysis."""
    from repro.utils.tables import format_table

    trials = extras.get("policy_opt", {}).get("_trials", {})
    lines: List[str] = []
    for workload, rows in trials.items():
        lines.append("")
        lines.append(f"policy trials: {workload}")
        lines.append(
            format_table(
                (
                    "trial",
                    "rung",
                    "steps",
                    "config",
                    "viol",
                    "mJ/req",
                    "$/QPS-yr",
                    "",
                ),
                [
                    (
                        row["trial"],
                        row["rung"],
                        row["steps"],
                        row["label"],
                        row["violation_count"],
                        (
                            "-"
                            if row["energy_per_request_j"] is None
                            else f"{row['energy_per_request_j'] * 1e3:.2f}"
                        ),
                        (
                            "-"
                            if row["cost_per_qps_year"] is None
                            else f"{row['cost_per_qps_year']:.4f}"
                        ),
                        "best" if row["best"] else "",
                    )
                    for row in rows
                ],
            )
        )
    return lines


def _render_table(result: ScenarioResult) -> str:
    from repro.core.report import render_summary
    from repro.scenarios.runner import _public_tree

    lines = [
        f"scenario: {result.spec.name}",
        f"  {result.spec.title}",
        f"  rows: {len(result.sweep)}  "
        f"workloads: {', '.join(result.spec.workloads())}",
        "",
        render_summary(result.summaries),
    ]
    if result.extras:
        lines.append("")
        lines.append("analyses: " + ", ".join(result.extras))
        lines.append(json.dumps(_public_tree(result.extras), indent=2, sort_keys=True))
        lines.extend(_render_replay_steps(result.extras))
        lines.extend(_render_fleet_steps(result.extras))
        lines.extend(_render_stress_events(result.extras))
        lines.extend(_render_opt_trials(result.extras))
    return "\n".join(lines)


def _render_csv(result: ScenarioResult) -> str:
    from repro.sweep.result import COLUMNS

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=("scenario",) + COLUMNS)
    writer.writeheader()
    for row in result.sweep.to_dicts():
        writer.writerow({"scenario": result.spec.name, **row})
    return buffer.getvalue()


def _render(
    result: ScenarioResult,
    fmt: str,
    include_sweep: bool,
    timing: Dict[str, object] | None = None,
) -> str:
    if fmt == "table":
        rendered = _render_table(result)
        if timing is not None:
            rendered += (
                f"\ntiming: {timing['wall_s']:.3f} s wall, "
                f"{timing['evaluated_points']} evaluated points"
            )
            if "batch_size" in timing:
                rendered += (
                    f", batch of {timing['batch_size']} replays"
                )
                if timing.get("replays_per_s") is not None:
                    rendered += (
                        f" ({timing['replays_per_s']:.0f} replays/s)"
                    )
        return rendered
    if fmt == "csv":
        return _render_csv(result)
    data = result.as_dict(include_sweep=include_sweep)
    if timing is not None:
        data["timing"] = timing
    return json.dumps(data, separators=(",", ":"), allow_nan=False)


def _render_timing_summary(rows: List[Tuple[str, Dict[str, object]]]) -> str:
    """One aligned table of wall time and evaluated points per scenario.

    Scenarios that ran a batched replay engine also report the batch
    size and the replays/second throughput; the columns show ``-`` for
    scenarios without a batched analysis.
    """
    from repro.utils.tables import format_table

    def _batch_cells(timing: Dict[str, object]) -> Tuple[object, object]:
        if "batch_size" not in timing:
            return "-", "-"
        rate = timing.get("replays_per_s")
        return (
            timing["batch_size"],
            "-" if rate is None else f"{rate:.0f}",
        )

    return format_table(
        ("scenario", "wall (s)", "evaluated points", "batch", "replays/s"),
        [
            (
                name,
                f"{timing['wall_s']:.3f}",
                timing["evaluated_points"],
            )
            + _batch_cells(timing)
            for name, timing in rows
        ],
    )


def _batch_timing(capture: obs.Capture) -> Dict[str, object] | None:
    """Aggregate the run's ``batch.run`` spans, if any batched engine ran.

    Sums batch sizes and wall time across every
    :class:`~repro.kernels.batch.BatchReplayRunner` pass the scenario
    made (timing is additive; the throughput is recomputed from the
    totals).  Returns ``None`` when no analysis used the batched
    engine.
    """
    spans = [span for span in capture.spans if span.name == "batch.run"]
    if not spans:
        return None
    total = sum(int(span.attributes.get("batch_size", 0)) for span in spans)
    wall = sum(span.duration_s for span in spans)
    return {
        "batch_size": total,
        "replays_per_s": total / wall if wall > 0 else None,
    }


def _run_command(args: argparse.Namespace, registry: ScenarioRegistry) -> int:
    if args.all and args.names:
        print("error: give scenario names or --all, not both", file=sys.stderr)
        return 2
    names: List[str] = list(registry.names()) if args.all else args.names
    if not names:
        print("error: no scenarios given (use names or --all)", file=sys.stderr)
        return 2
    if args.output is not None and len(names) > 1:
        print(
            "error: --output only takes a single scenario; use --outdir",
            file=sys.stderr,
        )
        return 2
    # Resolve every name before running any, so an unknown one fails
    # the invocation with nothing emitted.
    try:
        specs = [registry.get(name) for name in names]
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    from repro.scenarios.runner import ScenarioRunner
    from repro.utils.files import atomic_write_text

    runner = ScenarioRunner(registry=registry)
    extension = {"table": "txt", "csv": "csv", "json": "json"}[args.format]
    want_report = args.profile or args.report_out is not None
    timing_rows: List[Tuple[str, Dict[str, object]]] = []
    reports: List[obs.RunReport] = []
    instrument = args.timing or want_report
    for spec in specs:
        # One capture per scenario: --timing reads its wall clock and
        # batch.run spans, --profile/--report-out freeze it whole.
        # Without any of those flags instrumentation stays off (the
        # library default) and the run pays only no-op checks.
        capture = obs.capture()
        try:
            if instrument:
                with capture:
                    result = runner.run(spec)
            else:
                result = runner.run(spec)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        report: Optional[obs.RunReport] = None
        if want_report:
            report = capture.report(
                meta={
                    "scenario": result.spec.name,
                    "evaluated_points": result.context.evaluated_points,
                }
            )
            reports.append(report)
        timing: Dict[str, object] | None = None
        if args.timing:
            timing = {
                "wall_s": capture.duration_s,
                "evaluated_points": result.context.evaluated_points,
            }
            batch_info = _batch_timing(capture)
            if batch_info is not None:
                timing.update(batch_info)
            timing_rows.append((result.spec.name, timing))
        rendered = _render(result, args.format, args.sweep, timing)
        _emit(args, result.spec.name, rendered, extension)
        if args.profile and report is not None:
            print()
            print(f"profile: {result.spec.name}")
            print(report.render())
    if timing_rows:
        print()
        print(_render_timing_summary(timing_rows))
    if args.report_out is not None:
        merged = obs.RunReport.merge(
            reports, meta={"scenarios": list(names), "env": obs.environment()}
        )
        atomic_write_text(args.report_out, merged.to_json() + "\n")
        print(f"wrote {args.report_out}")
    return 0


def _emit(
    args: argparse.Namespace, name: str, rendered: str, extension: str
) -> None:
    """Deliver one scenario's rendered output (stdout or atomic file)."""
    from repro.utils.files import atomic_write_text

    if args.output is not None:
        atomic_write_text(args.output, rendered + "\n")
        print(f"wrote {args.output}")
    elif args.outdir is not None:
        path = args.outdir / f"{name}.{extension}"
        atomic_write_text(path, rendered + "\n")
        print(f"wrote {path}")
    else:
        print(rendered)


def main(argv: Sequence[str] | None = None, registry: ScenarioRegistry = REGISTRY) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        specs = registry.specs()
        if args.json:
            print(
                json.dumps(
                    [dataclasses.asdict(spec) for spec in specs],
                    indent=2,
                    default=str,
                )
            )
        else:
            width = max(len(spec.name) for spec in specs)
            for spec in specs:
                print(
                    f"{spec.name:<{width}}  [{spec.workload_set}]  {spec.title}"
                )
        return 0

    if args.command == "show":
        try:
            spec = registry.get(args.name)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(json.dumps(dataclasses.asdict(spec), indent=2, default=str))
        return 0

    return _run_command(args, registry)
