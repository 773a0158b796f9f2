"""Process-wide span tracing and counter registry.

The instrumentation switch is **off by default** and the off-path is a
no-op: :func:`trace` returns a shared null span and :func:`count`
returns before touching any state, so instrumented hot paths pay one
boolean check per event (the overhead-guard benchmark
``benchmarks/test_bench_obs_overhead.py`` pins the cost at under 2% of
a kernel fleet replay).

Three primitives:

* :func:`trace` -- a hierarchical span: a context manager recording
  wall time, nesting (parent id and depth, per thread), and tagged
  attributes (``with trace("batch.run", batch_size=B) as span: ...``;
  ``span.set(...)`` adds attributes discovered mid-span).
* :func:`count` -- a process-wide counter registry keyed by dotted
  names (``context.memo_hits``, ``batch.fallback_replays``, ...).
* :func:`capture` -- the collection window: enables instrumentation on
  entry, and on exit yields exactly the spans started inside the window
  and the counter *deltas* accrued during it, so concurrent or repeated
  captures never see each other's events.

Everything is thread-safe: span entry/exit and counter updates take a
single module lock, and the span stack (which defines parent/child
nesting) is thread-local, so code tracing from several threads records
a correct forest.  The module has zero dependencies beyond the standard library.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: immutable once recorded.

    ``start_s`` is an absolute ``time.perf_counter`` reading; reports
    normalise it to the capture window's start.  ``parent_id`` is the
    ``span_id`` of the enclosing span on the same thread (``None`` for
    roots) and ``depth`` that thread's nesting level at entry.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    duration_s: float
    depth: int
    attributes: Mapping[str, object]


class _State:
    """The module-global instrumentation state."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.enabled = 0  # capture/enable nesting depth; 0 = off
        self.next_id = 0
        self.spans: List[SpanRecord] = []
        self.counters: Dict[str, float] = {}
        self.local = threading.local()

    def stack(self) -> List["Span"]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = []
            self.local.stack = stack
        return stack


_STATE = _State()


def is_enabled() -> bool:
    """True while at least one capture (or explicit enable) is open."""
    return _STATE.enabled > 0


def enable() -> None:
    """Switch instrumentation on (nests; prefer :func:`capture`)."""
    with _STATE.lock:
        _STATE.enabled += 1


def disable() -> None:
    """Undo one :func:`enable`; at zero the off-path is a no-op again."""
    with _STATE.lock:
        if _STATE.enabled > 0:
            _STATE.enabled -= 1


def reset() -> None:
    """Drop every recorded span and counter (test isolation helper)."""
    with _STATE.lock:
        _STATE.spans.clear()
        _STATE.counters.clear()


class _Suspended:
    """Force the off-path while open (see :func:`suspended`)."""

    __slots__ = ("_saved",)

    def __enter__(self) -> "_Suspended":
        with _STATE.lock:
            self._saved = _STATE.enabled
            _STATE.enabled = 0
        return self

    def __exit__(self, *exc: object) -> bool:
        with _STATE.lock:
            _STATE.enabled = self._saved
        return False


def suspended() -> _Suspended:
    """Force instrumentation off inside a ``with`` block.

    Open captures keep collecting once the block exits; events inside
    the block are simply never recorded.  This is how the overhead
    benchmark measures the true off-path under a capture-holding
    fixture -- production code should not need it.
    """
    return _Suspended()


class _NullSpan:
    """The shared no-op span returned while instrumentation is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attributes: object) -> None:
        """No-op twin of :meth:`Span.set`."""


_NULL_SPAN = _NullSpan()


class Span:
    """A live span; use via ``with trace(name, **attrs) as span:``."""

    __slots__ = (
        "name",
        "attributes",
        "span_id",
        "parent_id",
        "depth",
        "_start",
    )

    def __init__(self, name: str, attributes: Dict[str, object]) -> None:
        self.name = name
        self.attributes = attributes

    def __enter__(self) -> "Span":
        state = _STATE
        stack = state.stack()
        with state.lock:
            self.span_id = state.next_id
            state.next_id += 1
        self.parent_id = stack[-1].span_id if stack else None
        self.depth = len(stack)
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def set(self, **attributes: object) -> None:
        """Attach attributes discovered while the span is open."""
        self.attributes.update(attributes)

    def __exit__(self, *exc: object) -> bool:
        duration = time.perf_counter() - self._start
        stack = _STATE.stack()
        if stack and stack[-1] is self:
            stack.pop()
        record = SpanRecord(
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            start_s=self._start,
            duration_s=duration,
            depth=self.depth,
            attributes=dict(self.attributes),
        )
        with _STATE.lock:
            _STATE.spans.append(record)
        return False


def trace(name: str, **attributes: object):
    """A span context manager; the shared no-op span while disabled.

    Attribute values must be JSON-able scalars (str/int/float/bool/
    None) -- reports serialise them verbatim into strict JSON.
    """
    if not _STATE.enabled:
        return _NULL_SPAN
    return Span(name, attributes)


def count(name: str, value: float = 1) -> None:
    """Add ``value`` to counter ``name`` (no-op while disabled)."""
    if not _STATE.enabled:
        return
    with _STATE.lock:
        _STATE.counters[name] = _STATE.counters.get(name, 0) + value


def counters_snapshot() -> Dict[str, float]:
    """The registry's current cumulative values (copy)."""
    with _STATE.lock:
        return dict(_STATE.counters)


class Capture:
    """One collection window: spans started and counters accrued inside.

    Entering enables instrumentation (nested captures stack); exiting
    disables it again and freezes :attr:`spans`, :attr:`duration_s` and
    the counter deltas.  When the last open capture closes, the global
    span buffer is cleared so long-lived processes never grow it
    unboundedly.
    """

    def __init__(self) -> None:
        self.spans: Tuple[SpanRecord, ...] = ()
        self.duration_s = 0.0
        self._id_start = 0
        self._counter_start: Dict[str, float] = {}
        self._start = 0.0
        self._closed_deltas: Optional[Dict[str, float]] = None

    def __enter__(self) -> "Capture":
        with _STATE.lock:
            _STATE.enabled += 1
            self._id_start = _STATE.next_id
            self._counter_start = dict(_STATE.counters)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.duration_s = time.perf_counter() - self._start
        with _STATE.lock:
            _STATE.enabled -= 1
            collected = [
                span
                for span in _STATE.spans
                if span.span_id >= self._id_start
            ]
            if _STATE.enabled == 0:
                _STATE.spans.clear()
        collected.sort(key=lambda span: (span.start_s, span.span_id))
        self.spans = tuple(collected)
        self._closed_deltas = self.counter_deltas()
        return False

    @property
    def start_s(self) -> float:
        """The window's ``perf_counter`` origin (spans normalise to it)."""
        return self._start

    def counter_deltas(self) -> Dict[str, float]:
        """Counters accrued inside the window (live until exit).

        Integral values come back as ``int`` so reports serialise
        event counts without a spurious ``.0``.
        """
        if self._closed_deltas is not None:
            return dict(self._closed_deltas)
        current = counters_snapshot()
        deltas: Dict[str, float] = {}
        for name, value in current.items():
            delta = value - self._counter_start.get(name, 0)
            if delta != 0:
                deltas[name] = int(delta) if delta == int(delta) else delta
        return deltas

    def report(self, meta: Optional[Mapping[str, object]] = None):
        """The window as a frozen :class:`~repro.obs.report.RunReport`."""
        from repro.obs.report import RunReport

        return RunReport.from_capture(self, meta=meta)


def capture() -> Capture:
    """Open a collection window: ``with capture() as cap: ...``."""
    return Capture()
