"""Machine-readable run reports: frozen columnar spans + counters.

:class:`RunReport` freezes one :class:`~repro.obs.core.Capture` window
into plain columnar data -- parallel tuples per span field plus a
counter mapping -- and serialises it to **strict JSON** (no NaN or
Infinity, sorted keys) so CI can archive a performance artifact per
run and future perf PRs can diff against a pinned baseline.

``validate_report`` checks a decoded document against the schema
(exact top-level keys, column types, equal column lengths, finite
numbers) and raises a :class:`ValueError` naming the offending field;
``python -m repro.obs validate PATH`` wraps it for CI.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

SCHEMA = "repro.obs/run-report"
SCHEMA_VERSION = 1

SPAN_COLUMNS = (
    "name",
    "start_s",
    "duration_s",
    "depth",
    "parent",
    "attributes",
)
"""The span table's columns, in serialisation order."""


def _round(value: float) -> float:
    """9-significant-digit rounding (matches the golden fixtures')."""
    return float(f"{value:.9g}")


@dataclass(frozen=True)
class RunReport:
    """One run's instrumentation, frozen columnar.

    Span fields are parallel tuples indexed by span position (sorted
    by start time); ``parents`` holds the *position* of each span's
    parent in the same tuples (``None`` for roots), so consumers can
    rebuild the tree without id bookkeeping.  ``counters`` are the
    counter deltas accrued during the capture window.
    """

    duration_s: float
    names: Tuple[str, ...] = ()
    starts_s: Tuple[float, ...] = ()
    durations_s: Tuple[float, ...] = ()
    depths: Tuple[int, ...] = ()
    parents: Tuple[Optional[int], ...] = ()
    attributes: Tuple[Mapping[str, object], ...] = ()
    counters: Mapping[str, float] = field(default_factory=dict)
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {
            len(column)
            for column in (
                self.names,
                self.starts_s,
                self.durations_s,
                self.depths,
                self.parents,
                self.attributes,
            )
        }
        if len(lengths) > 1:
            raise ValueError(
                f"run report: span columns have mismatched lengths {sorted(lengths)}"
            )

    # -- construction --------------------------------------------------------------------

    @classmethod
    def from_capture(
        cls, capture, meta: Optional[Mapping[str, object]] = None
    ) -> "RunReport":
        """Freeze a closed :class:`~repro.obs.core.Capture` window."""
        spans = capture.spans
        positions = {span.span_id: index for index, span in enumerate(spans)}
        return cls(
            duration_s=_round(capture.duration_s),
            names=tuple(span.name for span in spans),
            starts_s=tuple(
                _round(span.start_s - capture.start_s) for span in spans
            ),
            durations_s=tuple(_round(span.duration_s) for span in spans),
            depths=tuple(span.depth for span in spans),
            parents=tuple(
                positions.get(span.parent_id) if span.parent_id is not None else None
                for span in spans
            ),
            attributes=tuple(dict(span.attributes) for span in spans),
            counters=capture.counter_deltas(),
            meta=dict(meta or {}),
        )

    @classmethod
    def merge(
        cls,
        reports: Sequence["RunReport"],
        meta: Optional[Mapping[str, object]] = None,
    ) -> "RunReport":
        """Concatenate several reports into one.

        Span start times are offset by the cumulative duration of the
        preceding reports (so ordering stays monotone), parent links
        are re-based, and counters are summed.
        """
        if not reports:
            raise ValueError("run report: cannot merge zero reports")
        if len(reports) == 1 and meta is None:
            return reports[0]
        names: List[str] = []
        starts: List[float] = []
        durations: List[float] = []
        depths: List[int] = []
        parents: List[Optional[int]] = []
        attributes: List[Mapping[str, object]] = []
        counters: Dict[str, float] = {}
        offset = 0.0
        for report in reports:
            base = len(names)
            names.extend(report.names)
            starts.extend(_round(start + offset) for start in report.starts_s)
            durations.extend(report.durations_s)
            depths.extend(report.depths)
            parents.extend(
                None if parent is None else parent + base
                for parent in report.parents
            )
            attributes.extend(report.attributes)
            for key, value in report.counters.items():
                counters[key] = counters.get(key, 0) + value
            offset += report.duration_s
        return cls(
            duration_s=_round(offset),
            names=tuple(names),
            starts_s=tuple(starts),
            durations_s=tuple(durations),
            depths=tuple(depths),
            parents=tuple(parents),
            attributes=tuple(attributes),
            counters=counters,
            meta=dict(meta or {}),
        )

    # -- access --------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def spans(self) -> Iterator[Dict[str, object]]:
        """One dict per span, in start order."""
        for index in range(len(self.names)):
            yield {
                "name": self.names[index],
                "start_s": self.starts_s[index],
                "duration_s": self.durations_s[index],
                "depth": self.depths[index],
                "parent": self.parents[index],
                "attributes": dict(self.attributes[index]),
            }

    def spans_named(self, name: str) -> List[Dict[str, object]]:
        """Every span called ``name``, in start order."""
        return [span for span in self.spans() if span["name"] == name]

    # -- serialisation -------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """The schema document (plain JSON-able types only)."""
        return {
            "schema": SCHEMA,
            "version": SCHEMA_VERSION,
            "meta": dict(self.meta),
            "duration_s": self.duration_s,
            "spans": {
                "name": list(self.names),
                "start_s": list(self.starts_s),
                "duration_s": list(self.durations_s),
                "depth": list(self.depths),
                "parent": list(self.parents),
                "attributes": [dict(attrs) for attrs in self.attributes],
            },
            "counters": dict(self.counters),
        }

    def to_json(self) -> str:
        """Strict JSON: sorted keys, NaN/Infinity rejected outright."""
        return json.dumps(
            self.to_dict(), indent=2, sort_keys=True, allow_nan=False
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunReport":
        """Rebuild a report from a validated schema document."""
        validate_report(data)
        spans = data["spans"]
        return cls(
            duration_s=float(data["duration_s"]),
            names=tuple(spans["name"]),
            starts_s=tuple(float(v) for v in spans["start_s"]),
            durations_s=tuple(float(v) for v in spans["duration_s"]),
            depths=tuple(int(v) for v in spans["depth"]),
            parents=tuple(
                None if v is None else int(v) for v in spans["parent"]
            ),
            attributes=tuple(dict(attrs) for attrs in spans["attributes"]),
            counters=dict(data["counters"]),
            meta=dict(data["meta"]),
        )

    # -- rendering -----------------------------------------------------------------------

    def render(self) -> str:
        """CLI tables: the span tree, per-name totals, and counters."""
        from repro.utils.tables import format_table

        lines = [f"run report: {len(self)} spans, {self.duration_s:.3f} s"]
        if self.names:
            lines.append("")
            lines.append(
                format_table(
                    ("span", "start (ms)", "wall (ms)", "attributes"),
                    [
                        (
                            "  " * self.depths[index] + self.names[index],
                            f"{self.starts_s[index] * 1e3:.1f}",
                            f"{self.durations_s[index] * 1e3:.2f}",
                            " ".join(
                                f"{key}={value}"
                                for key, value in sorted(
                                    self.attributes[index].items()
                                )
                            ),
                        )
                        for index in range(len(self))
                    ],
                )
            )
            totals: Dict[str, Tuple[int, float]] = {}
            for index, name in enumerate(self.names):
                count, wall = totals.get(name, (0, 0.0))
                totals[name] = (count + 1, wall + self.durations_s[index])
            lines.append("")
            lines.append(
                format_table(
                    ("span", "calls", "total (ms)", "share"),
                    [
                        (
                            name,
                            count,
                            f"{wall * 1e3:.2f}",
                            (
                                f"{wall / self.duration_s:.1%}"
                                if self.duration_s > 0
                                else "-"
                            ),
                        )
                        for name, (count, wall) in sorted(
                            totals.items(),
                            key=lambda item: -item[1][1],
                        )
                    ],
                )
            )
        if self.counters:
            lines.append("")
            lines.append(
                format_table(
                    ("counter", "value"),
                    [
                        (name, self.counters[name])
                        for name in sorted(self.counters)
                    ],
                )
            )
        return "\n".join(lines)


_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> Dict[str, object]:
    """The run environment a report keeps under ``meta["env"]``; the
    commit is read from the current directory's ``.git`` without a
    subprocess, and is ``None`` without one."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(Path(".git")),
        "argv": list(sys.argv),
        "threads": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
    }


def _git_sha(git: Path) -> Optional[str]:
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head  # a detached HEAD holds the commit itself
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        # A packed ref is a "<sha> <ref>" line of packed-refs.
        packed = (git / "packed-refs").read_text(encoding="utf-8").split()
        return packed[packed.index(ref) - 1]
    except (OSError, ValueError):
        return None


# -- validation ------------------------------------------------------------------------


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"run report: {message}")


def _check_finite_numbers(values, path: str, integral: bool = False) -> None:
    for index, value in enumerate(values):
        _check(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{path}[{index}] must be a number, got {value!r}",
        )
        _check(
            math.isfinite(value), f"{path}[{index}] must be finite, got {value!r}"
        )
        if integral:
            _check(
                isinstance(value, int),
                f"{path}[{index}] must be an integer, got {value!r}",
            )


def validate_report(data: object) -> None:
    """Check a decoded report document; raise ValueError on violation."""
    _check(isinstance(data, dict), f"document must be an object, got {type(data).__name__}")
    expected_keys = {"schema", "version", "meta", "duration_s", "spans", "counters"}
    _check(
        set(data) == expected_keys,
        f"top-level keys {sorted(data)} != {sorted(expected_keys)}",
    )
    _check(data["schema"] == SCHEMA, f"schema {data['schema']!r} != {SCHEMA!r}")
    _check(
        data["version"] == SCHEMA_VERSION,
        f"version {data['version']!r} != {SCHEMA_VERSION}",
    )
    _check(isinstance(data["meta"], dict), "meta must be an object")
    duration = data["duration_s"]
    _check(
        isinstance(duration, (int, float))
        and not isinstance(duration, bool)
        and math.isfinite(duration)
        and duration >= 0,
        f"duration_s must be a finite non-negative number, got {duration!r}",
    )
    spans = data["spans"]
    _check(isinstance(spans, dict), "spans must be an object of columns")
    _check(
        set(spans) == set(SPAN_COLUMNS),
        f"span columns {sorted(spans)} != {sorted(SPAN_COLUMNS)}",
    )
    lengths = {name: len(spans[name]) for name in SPAN_COLUMNS}
    _check(
        len(set(lengths.values())) == 1,
        f"span columns have mismatched lengths {lengths}",
    )
    size = lengths["name"]
    for index, name in enumerate(spans["name"]):
        _check(
            isinstance(name, str) and name,
            f"spans.name[{index}] must be a non-empty string, got {name!r}",
        )
    _check_finite_numbers(spans["start_s"], "spans.start_s")
    _check_finite_numbers(spans["duration_s"], "spans.duration_s")
    _check_finite_numbers(spans["depth"], "spans.depth", integral=True)
    for index, parent in enumerate(spans["parent"]):
        _check(
            parent is None
            or (
                isinstance(parent, int)
                and not isinstance(parent, bool)
                and 0 <= parent < size
            ),
            f"spans.parent[{index}] must be null or a span position, got {parent!r}",
        )
        if parent is not None:
            _check(
                parent != index,
                f"spans.parent[{index}] points at itself",
            )
    for index, attrs in enumerate(spans["attributes"]):
        _check(
            isinstance(attrs, dict),
            f"spans.attributes[{index}] must be an object, got {type(attrs).__name__}",
        )
        for key, value in attrs.items():
            _check(
                isinstance(key, str),
                f"spans.attributes[{index}] key {key!r} must be a string",
            )
            _check(
                value is None or isinstance(value, (str, int, float, bool)),
                f"spans.attributes[{index}].{key} must be a JSON scalar, got {value!r}",
            )
            if isinstance(value, float):
                _check(
                    math.isfinite(value),
                    f"spans.attributes[{index}].{key} must be finite, got {value!r}",
                )
    counters = data["counters"]
    _check(isinstance(counters, dict), "counters must be an object")
    for name, value in counters.items():
        _check(
            isinstance(name, str) and name,
            f"counter name {name!r} must be a non-empty string",
        )
        _check(
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value),
            f"counters.{name} must be a finite number, got {value!r}",
        )
