"""Unit tests for the ``repro.obs`` instrumentation layer.

Covers the span/counter primitives (off-path no-ops, capture windows,
nesting, thread-local stacks), the :class:`RunReport` schema (strict
JSON round trips, validation, merge) and the ``python -m repro.obs``
artifact CLI.
"""

import json
import threading
import time

import pytest

from repro import obs
from repro.obs.__main__ import main as obs_main


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test starts and ends with an empty global registry."""
    obs.reset()
    yield
    assert not obs.is_enabled(), "a test leaked an open capture/enable"
    obs.reset()


# -- the off switch --------------------------------------------------------------------


def test_disabled_by_default_everything_is_a_noop():
    assert not obs.is_enabled()
    span = obs.trace("anything", rows=3)
    assert span is obs.trace("something_else")  # the shared null span
    with span as live:
        live.set(more=1)  # still a no-op
    obs.count("events", 5)
    assert obs.counters_snapshot() == {}


def test_enable_disable_nest():
    obs.enable()
    obs.enable()
    obs.disable()
    assert obs.is_enabled()
    obs.disable()
    assert not obs.is_enabled()
    obs.disable()  # already off: stays off, no underflow
    assert not obs.is_enabled()


def test_suspended_forces_the_off_path_inside_a_capture():
    with obs.capture() as cap:
        with obs.suspended():
            assert not obs.is_enabled()
            with obs.trace("hidden"):
                obs.count("hidden")
        assert obs.is_enabled()
        with obs.trace("seen"):
            pass
    assert [span.name for span in cap.spans] == ["seen"]
    assert cap.counter_deltas() == {}


# -- spans -----------------------------------------------------------------------------


def test_capture_records_nested_spans_with_parents_and_depths():
    with obs.capture() as cap:
        with obs.trace("outer", kind="test") as outer:
            with obs.trace("inner"):
                pass
            outer.set(rows=3)
    assert [span.name for span in cap.spans] == ["outer", "inner"]
    outer_record, inner_record = cap.spans
    assert outer_record.parent_id is None and outer_record.depth == 0
    assert inner_record.parent_id == outer_record.span_id
    assert inner_record.depth == 1
    assert outer_record.attributes == {"kind": "test", "rows": 3}
    assert 0 <= inner_record.duration_s <= outer_record.duration_s
    assert cap.duration_s > 0


def test_sibling_spans_share_a_parent():
    with obs.capture() as cap:
        with obs.trace("parent") as parent:
            with obs.trace("first"):
                pass
            with obs.trace("second"):
                pass
    first, second = cap.spans[1], cap.spans[2]
    assert first.name == "first" and second.name == "second"
    assert first.parent_id == second.parent_id == parent.span_id
    assert first.depth == second.depth == 1


def test_nested_captures_isolate_inner_spans():
    with obs.capture() as outer_cap:
        with obs.trace("before"):
            pass
        with obs.capture() as inner_cap:
            with obs.trace("inside"):
                pass
        with obs.trace("after"):
            pass
    assert [span.name for span in inner_cap.spans] == ["inside"]
    assert [span.name for span in outer_cap.spans] == [
        "before",
        "inside",
        "after",
    ]


def test_last_capture_exit_clears_the_span_buffer():
    with obs.capture():
        with obs.trace("old"):
            pass
    with obs.capture() as cap:
        pass
    assert cap.spans == ()


def test_span_stacks_are_thread_local():
    barrier = threading.Barrier(2)
    errors = []

    def worker(name):
        try:
            barrier.wait(timeout=5)
            with obs.trace(name):
                time.sleep(0.005)
        except Exception as error:  # pragma: no cover - diagnostic only
            errors.append(error)

    with obs.capture() as cap:
        threads = [
            threading.Thread(target=worker, args=(f"thread_{index}",))
            for index in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert not errors
    # Concurrent spans on different threads are both roots: neither is
    # the other's parent, even though their lifetimes overlap.
    assert sorted(span.name for span in cap.spans) == ["thread_0", "thread_1"]
    assert all(span.parent_id is None for span in cap.spans)
    assert all(span.depth == 0 for span in cap.spans)


# -- counters --------------------------------------------------------------------------


def test_counter_deltas_are_window_scoped_and_integer_normalised():
    with obs.capture():
        obs.count("events", 2)
    with obs.capture() as cap:
        obs.count("events")
        obs.count("ratio", 0.5)
    deltas = cap.counter_deltas()
    assert deltas == {"events": 1, "ratio": 0.5}
    assert isinstance(deltas["events"], int)
    # The global registry keeps the cumulative values.
    assert obs.counters_snapshot() == {"events": 3, "ratio": 0.5}


def test_counter_deltas_freeze_at_capture_exit():
    with obs.capture() as cap:
        obs.count("events")
    with obs.capture():
        obs.count("events", 10)
        assert cap.counter_deltas() == {"events": 1}


# -- run reports -----------------------------------------------------------------------


def _sample_report(meta=None) -> obs.RunReport:
    with obs.capture() as cap:
        with obs.trace("outer", kind="sample"):
            with obs.trace("inner"):
                pass
        obs.count("events", 3)
    return cap.report(meta=meta)


def test_report_from_capture_uses_positions_and_window_relative_starts():
    report = _sample_report(meta={"scenario": "sample"})
    assert len(report) == 2
    assert report.names == ("outer", "inner")
    assert report.parents == (None, 0)
    assert report.depths == (0, 1)
    assert all(start >= 0 for start in report.starts_s)
    assert report.starts_s[1] >= report.starts_s[0]
    assert report.counters == {"events": 3}
    assert report.meta == {"scenario": "sample"}
    assert report.spans_named("inner") == [
        {
            "name": "inner",
            "start_s": report.starts_s[1],
            "duration_s": report.durations_s[1],
            "depth": 1,
            "parent": 0,
            "attributes": {},
        }
    ]


def test_report_json_round_trip_and_validation():
    report = _sample_report(meta={"scenario": "sample"})
    document = json.loads(report.to_json())
    obs.validate_report(document)  # must not raise
    rebuilt = obs.RunReport.from_dict(document)
    assert rebuilt == report


def test_report_rejects_mismatched_column_lengths():
    with pytest.raises(ValueError, match="mismatched lengths"):
        obs.RunReport(
            duration_s=1.0,
            names=("a",),
            starts_s=(),
            durations_s=(0.0,),
            depths=(0,),
            parents=(None,),
            attributes=({},),
        )


def test_merge_offsets_starts_rebases_parents_and_sums_counters():
    first = _sample_report()
    second = _sample_report()
    merged = obs.RunReport.merge([first, second], meta={"runs": 2})
    assert merged.names == ("outer", "inner", "outer", "inner")
    assert merged.parents == (None, 0, None, 2)
    assert merged.counters == {"events": 6}
    assert merged.meta == {"runs": 2}
    assert merged.duration_s == pytest.approx(
        first.duration_s + second.duration_s
    )
    # The second report's spans start after the first report's window.
    assert merged.starts_s[2] >= first.duration_s
    obs.validate_report(json.loads(merged.to_json()))


def test_merge_single_report_without_meta_is_identity():
    report = _sample_report()
    assert obs.RunReport.merge([report]) is report


def test_merge_zero_reports_raises():
    with pytest.raises(ValueError, match="cannot merge zero reports"):
        obs.RunReport.merge([])


def test_render_shows_tree_totals_and_counters():
    rendered = _sample_report().render()
    assert "run report: 2 spans" in rendered
    assert "  inner" in rendered  # depth-indented tree row
    assert "kind=sample" in rendered
    assert "calls" in rendered and "share" in rendered
    assert "events" in rendered


@pytest.mark.parametrize(
    ("mutate", "message"),
    [
        (lambda d: d.pop("counters"), "top-level keys"),
        (lambda d: d.update(schema="other"), "schema"),
        (lambda d: d.update(version=99), "version"),
        (lambda d: d.update(duration_s=-1.0), "duration_s"),
        (lambda d: d["spans"].pop("depth"), "span columns"),
        (lambda d: d["spans"]["name"].append("extra"), "mismatched lengths"),
        (lambda d: d["spans"]["name"].__setitem__(0, ""), "non-empty string"),
        (lambda d: d["spans"]["depth"].__setitem__(0, 0.5), "integer"),
        (lambda d: d["spans"]["parent"].__setitem__(0, 0), "points at itself"),
        (lambda d: d["spans"]["parent"].__setitem__(1, 99), "span position"),
        (
            lambda d: d["spans"]["attributes"].__setitem__(0, {"k": [1]}),
            "JSON scalar",
        ),
        (lambda d: d["counters"].update(events=True), "finite number"),
        (lambda d: d["counters"].update({"": 1}), "non-empty string"),
    ],
)
def test_validate_rejects_malformed_documents(mutate, message):
    document = json.loads(_sample_report().to_json())
    mutate(document)
    with pytest.raises(ValueError, match=message):
        obs.validate_report(document)


def test_to_json_is_strict_about_non_finite_values():
    report = obs.RunReport(duration_s=float("nan"))
    with pytest.raises(ValueError):
        report.to_json()


# -- the run environment ---------------------------------------------------------------

_SHA = "0123456789abcdef0123456789abcdef01234567"


@pytest.mark.parametrize("layout", ["loose", "packed", "detached"])
def test_environment_reads_the_checked_out_commit(tmp_path, monkeypatch, layout):
    """The commit of the current directory's ``.git``, however it is stored."""
    git = tmp_path / ".git"
    git.mkdir()
    if layout == "detached":
        (git / "HEAD").write_text(_SHA + "\n")
    else:
        (git / "HEAD").write_text("ref: refs/heads/main\n")
    if layout == "loose":
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "refs" / "heads" / "main").write_text(_SHA + "\n")
    elif layout == "packed":
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{'f' * 40} refs/heads/feature\n"
            f"{_SHA} refs/heads/main\n"
        )
    monkeypatch.chdir(tmp_path)
    assert obs.environment()["git_sha"] == _SHA
    monkeypatch.chdir(git)  # no .git here
    assert obs.environment()["git_sha"] is None


# -- the artifact CLI ------------------------------------------------------------------


def test_obs_cli_validate_accepts_a_good_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(_sample_report().to_json() + "\n")
    assert obs_main(["validate", str(path)]) == 0
    assert f"{path}: ok" in capsys.readouterr().out


def test_obs_cli_validate_flags_bad_reports_but_checks_all(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(_sample_report().to_json() + "\n")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}))
    assert obs_main(["validate", str(bad), str(good)]) == 1
    captured = capsys.readouterr()
    assert "INVALID" in captured.err
    assert f"{good}: ok" in captured.out


def test_obs_cli_validate_rejects_nonfinite_json_constants(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(_sample_report().to_json().replace("3", "NaN", 1))
    assert obs_main(["validate", str(path)]) == 1
    assert "non-finite JSON constant" in capsys.readouterr().err


def test_obs_cli_validate_reports_missing_files(tmp_path, capsys):
    assert obs_main(["validate", str(tmp_path / "absent.json")]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_obs_cli_show_renders_tables(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(_sample_report().to_json() + "\n")
    assert obs_main(["show", str(path)]) == 0
    out = capsys.readouterr().out
    assert "run report: 2 spans" in out
    assert "counter" in out


def test_obs_cli_show_rejects_invalid_documents(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "nope"}))
    assert obs_main(["show", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().err
