"""Shared fixtures for the test suite.

Model stacks (configurations, contexts, scenario runs) are expensive
relative to the assertions made on them, and most test modules probe
the same default server.  The session-scoped fixtures here build each
stack once per pytest run; ``scenario_results`` memoises one
:class:`~repro.scenarios.runner.ScenarioResult` per registered scenario
so the golden-regression and property tests share a single execution.

``--update-golden`` regenerates the golden JSON fixtures under
``tests/golden/`` from the current model outputs (see
``tests/test_golden_scenarios.py``).
"""

from pathlib import Path

import pytest

from repro.core.config import default_server
from repro.dvfs import GovernorSimulator, LoadTrace
from repro.scenarios import REGISTRY, ScenarioRunner
from repro.sweep import ModelContext, SweepRunner
from repro.workloads.banking_vm import VMS_LOW_MEM, virtualized_workloads
from repro.workloads.cloudsuite import WEB_SEARCH, scale_out_workloads

GOLDEN_DIR = Path(__file__).parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden scenario fixtures in tests/golden/",
    )
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked @pytest.mark.slow (long trace replays)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def update_golden(request) -> bool:
    """True when the run should rewrite the golden fixtures."""
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    """Directory of the golden scenario fixtures."""
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def default_configuration():
    """The paper's default FD-SOI server configuration."""
    return default_server()


@pytest.fixture(scope="session")
def default_context(default_configuration):
    """A shared model context for the default configuration.

    The context memoises models and operating points; tests must treat
    it as read-only shared state (evaluate/query, never mutate).
    """
    return ModelContext(default_configuration)


@pytest.fixture(scope="session")
def default_sweep(default_context):
    """Every workload swept over the default grid on the shared context.

    Scale-out workloads first, then the VMs; a read-only columnar table.
    """
    workloads = {**scale_out_workloads(), **virtualized_workloads()}
    return SweepRunner(context=default_context).run(workloads.values())


@pytest.fixture(scope="session")
def diurnal_trace():
    """The default one-day diurnal load trace (48 half-hour steps)."""
    return LoadTrace.diurnal()


@pytest.fixture(scope="session")
def bursty_trace():
    """The default two-hour bursty load trace (120 one-minute steps)."""
    return LoadTrace.bursty()


@pytest.fixture(scope="session")
def websearch_simulator(default_context):
    """A governor simulator for Web Search on the shared default context.

    The simulator memoises its platform view and the context memoises
    the operating points, so every dvfs test shares one set of model
    evaluations.  Treat as read-only shared state (replay, never mutate).
    """
    return GovernorSimulator(default_context, WEB_SEARCH)


@pytest.fixture(scope="session")
def vm_simulator(default_context):
    """A governor simulator for the low-memory VM class (read-only)."""
    return GovernorSimulator(default_context, VMS_LOW_MEM)


@pytest.fixture(scope="session")
def scenario_registry():
    """The built-in scenario registry."""
    return REGISTRY


@pytest.fixture(scope="session")
def scenario_results():
    """Memoised access to scenario runs: ``scenario_results(name)``.

    Each registered scenario is executed at most once per test session;
    golden, property and unit tests all share the same result objects.
    """
    runner = ScenarioRunner()
    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = runner.run(name)
        return cache[name]

    return get
