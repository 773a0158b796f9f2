"""The run command's fault-tolerance surface.

Exit-code contract: 0 = every requested scenario produced output,
3 = ``--keep-going`` quarantined some but at least one succeeded,
2 = a hard error or nothing succeeded.  Checkpointed runs resume
completed scenarios byte for byte; ``--inject-fault`` drives the chaos
harness end to end through the real CLI, at both the scenario and the
analysis fault sites.
"""

import json

import pytest

from repro.resilience import CheckpointStore, InjectedFault
from repro.resilience.checkpoint import payload_digest
from repro.scenarios.cli import main as cli_main


def test_keep_going_quarantines_and_exits_3(tmp_path, capsys):
    code = cli_main(
        [
            "run",
            "fig2_qos",
            "table1_ddr4",
            "--keep-going",
            "--inject-fault",
            "scenario.run:1:raise",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "error (quarantined): scenario 'fig2_qos'" in captured.err
    assert "quarantined 1 of 2 scenarios: fig2_qos" in captured.err
    # The survivor's artifact landed; the quarantined one has none.
    assert (tmp_path / "table1_ddr4.txt").exists()
    assert not (tmp_path / "fig2_qos.txt").exists()


def test_keep_going_with_nothing_succeeding_exits_2(capsys):
    code = cli_main(
        [
            "run",
            "fig2_qos",
            "--keep-going",
            "--inject-fault",
            "scenario.run:1:raise",
        ]
    )
    assert code == 2
    assert "quarantined 1 of 1" in capsys.readouterr().err


def test_without_keep_going_the_fault_propagates(capsys):
    with pytest.raises(InjectedFault):
        cli_main(
            ["run", "fig2_qos", "--inject-fault", "scenario.run:1:raise"]
        )


def test_bad_inject_fault_syntax_exits_2(capsys):
    assert cli_main(["run", "fig2_qos", "--inject-fault", "nonsense"]) == 2
    assert "error:" in capsys.readouterr().err


def test_keep_going_quarantines_an_analysis_fault(tmp_path, capsys):
    code = cli_main(
        [
            "run",
            "fig2_qos",
            "table1_ddr4",
            "--keep-going",
            "--inject-fault",
            "scenario.analysis:1:raise",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 3
    assert "quarantined 1 of 2 scenarios: fig2_qos" in capsys.readouterr().err
    assert (tmp_path / "table1_ddr4.txt").exists()
    assert not (tmp_path / "fig2_qos.txt").exists()


def test_checkpointed_rerun_resumes_byte_for_byte(tmp_path, capsys):
    checkpoints = tmp_path / "ckpt"
    argv = [
        "run",
        "table1_ddr4",
        "--format",
        "json",
        "--checkpoint-dir",
        str(checkpoints),
    ]
    assert cli_main(argv) == 0
    first = capsys.readouterr()
    assert "resumed" not in first.err

    assert cli_main(argv) == 0
    second = capsys.readouterr()
    assert "note: table1_ddr4 resumed from checkpoint" in second.err
    assert second.out == first.out  # byte-identical rendered output
    assert json.loads(second.out)["scenario"] == "table1_ddr4"


def test_checkpoint_fingerprint_binds_the_output_format(tmp_path, capsys):
    checkpoints = tmp_path / "ckpt"
    base = ["run", "table1_ddr4", "--checkpoint-dir", str(checkpoints)]
    assert cli_main(base + ["--format", "json"]) == 0
    capsys.readouterr()
    # A different format must not resume the JSON bytes.
    assert cli_main(base + ["--format", "table"]) == 0
    captured = capsys.readouterr()
    assert "resumed" not in captured.err
    assert "scenario: table1_ddr4" in captured.out
    # Nor may a checkpoint from before the output layout was bound (same
    # flags, row-dict steps and indented JSON) resume into a compact run.
    CheckpointStore(
        checkpoints,
        fingerprint=payload_digest(
            {"format": "json", "sweep": False, "timing": False}
        ),
    ).save("table1_ddr4", {"scenario": "table1_ddr4", "rendered": "{\n  }"})
    assert cli_main(base + ["--format", "json"]) == 0
    captured = capsys.readouterr()
    assert "resumed" not in captured.err
    assert json.loads(captured.out)["scenario"] == "table1_ddr4"


def test_report_out_skipped_when_everything_resumed(tmp_path, capsys):
    checkpoints = tmp_path / "ckpt"
    report = tmp_path / "report.json"
    argv = [
        "run",
        "table1_ddr4",
        "--checkpoint-dir",
        str(checkpoints),
        "--report-out",
        str(report),
    ]
    assert cli_main(argv) == 0
    capsys.readouterr()
    report_bytes = report.read_bytes()
    report.unlink()

    # Fully resumed: nothing was instrumented, so no report -- and no
    # stale file overwriting a previous run's data.
    assert cli_main(argv) == 0
    captured = capsys.readouterr()
    assert f"note: no scenarios executed; {report} not written" in captured.err
    assert not report.exists()
    assert json.loads(report_bytes)["meta"]["scenarios"] == ["table1_ddr4"]


def test_outdir_and_output_write_complete_artifacts(tmp_path, capsys):
    out = tmp_path / "nested" / "table1.json"
    code = cli_main(
        ["run", "table1_ddr4", "--format", "json", "--output", str(out)]
    )
    assert code == 0
    assert f"wrote {out}" in capsys.readouterr().out
    assert json.loads(out.read_text())["scenario"] == "table1_ddr4"
