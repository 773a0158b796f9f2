"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures and
prints the corresponding rows/series (who wins, where the optima and
crossovers fall), while pytest-benchmark times the underlying model
evaluation.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core.config import default_server
from repro.utils.units import mhz


@pytest.fixture()
def bench_artifact():
    """The shared ``BENCH_*.json`` artifact writer.

    Every benchmark emits one gitignored machine-readable artifact that
    CI archives; this fixture owns the shared conventions -- the
    ``BENCH_<NAME>_JSON`` env-var redirect, the default
    ``BENCH_<name>.json`` filename, strict sorted-key JSON with a
    trailing newline -- and embeds the run's :mod:`repro.obs` counter
    snapshot under ``obs_counters`` (the fixture keeps a capture open
    for the test's duration, so the snapshot covers exactly this
    benchmark's cache hits, replay counts and dedup ratios).

    Usage: ``out_path = bench_artifact("fleet", artifact)``.
    """
    with obs.capture() as capture:

        def write(name: str, payload: dict) -> Path:
            out_path = Path(
                os.environ.get(
                    f"BENCH_{name.upper()}_JSON", f"BENCH_{name}.json"
                )
            )
            artifact = dict(payload)
            artifact["obs_counters"] = capture.counter_deltas()
            out_path.write_text(
                json.dumps(artifact, indent=2, sort_keys=True) + "\n"
            )
            return out_path

        yield write


@pytest.fixture()
def paired_walls():
    """Wall times of two functions, run back to back ``repeats`` times.

    Returns ``[(first_s, second_s), ...]``, one pair per repeat, in
    argument order.  The two runs of a pair sit a moment apart, so
    host-speed drift between pairs (a shared machine swings up to ~2x
    for seconds at a time) scales both walls of a pair alike and
    cancels out of its ratio; gate on the median pair ratio, not on
    separately taken bests.  Which function runs first alternates from
    repeat to repeat, so whatever running first or second is worth
    (warm caches, drift within a pair) lands on both sides alike.

    Usage: ``pairs = paired_walls(first, second, repeats=12)``.
    """

    def measure(first, second, repeats: int):
        functions = (first, second)
        pairs = []
        for repeat in range(repeats):
            walls = [0.0, 0.0]
            for index in (0, 1) if repeat % 2 == 0 else (1, 0):
                started = time.perf_counter()
                functions[index]()
                walls[index] = time.perf_counter() - started
            pairs.append(tuple(walls))
        return pairs

    return measure


@pytest.fixture(scope="session")
def server_configuration():
    """The paper's default FD-SOI server configuration."""
    return default_server()


@pytest.fixture(scope="session")
def sweep_frequencies():
    """A representative subset of the paper's 100MHz-2GHz sweep."""
    return tuple(
        mhz(value) for value in (100, 200, 300, 400, 500, 700, 900, 1100, 1300, 1600, 2000)
    )
