"""First-import smoke tests: every ``repro`` package imports on its own.

``repro.sweep.context`` imports ``repro.core``, whose analyzers take a
``ModelContext``; a module-level import of the context from
``repro.core`` closes a cycle that breaks ``import repro.sweep`` (and
the scenario CLI) as a *first* import.  Inside one test process every
module is already imported, so the cycle only shows in a fresh
interpreter: each case here starts one.

The same goes for the lazy package exports (``repro._lazy``) and the
import guards: a package's names must resolve, and a replay harness or
``python -m repro.scenarios list`` must leave the rarely used modules
(and, for ``list``, numpy) unloaded, on a first import.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
PACKAGES = sorted(
    module.name for module in pkgutil.iter_modules(repro.__path__) if module.ispkg
)


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _loaded_modules(*args: str, package: str = "repro") -> list:
    """``package`` modules a fresh ``python -X importtime ARGS`` loads."""
    completed = _python("-X", "importtime", *args)
    assert completed.returncode == 0, completed.stderr
    # A submodule that its package's __init__ imports is listed twice:
    # inside the package's import, and for the import that asked for it.
    names = {
        line.split("|")[2].strip()
        for line in completed.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }
    return sorted(
        name
        for name in names
        if name == package or name.startswith(package + ".")
    )


def _deferred(modules: list, packages: tuple, exact: tuple) -> list:
    return [
        name
        for name in modules
        if name in exact
        or any(name == pkg or name.startswith(pkg + ".") for pkg in packages)
    ]


def test_every_package_is_covered():
    assert {"core", "scenarios", "sweep"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_in_a_fresh_interpreter(package):
    completed = _python("-c", f"import repro.{package}")
    assert completed.returncode == 0, completed.stderr


def test_scenario_cli_lists_in_a_fresh_interpreter():
    completed = _python("-m", "repro.scenarios", "list")
    assert completed.returncode == 0, completed.stderr
    assert "fig2_qos" in completed.stdout


# Run in a fresh interpreter per package: listing, star-import,
# attribute access and the unknown-name error of its lazy exports.
EXPORTS_CHECK = """
import importlib, sys
name = sys.argv[1]
package = importlib.import_module(name)
exported = list(package.__all__)
assert len(set(exported)) == len(exported), "duplicate __all__ entries"
unlisted = [item for item in exported if item not in dir(package)]
assert not unlisted, f"dir({name}) misses {unlisted}"
namespace = {}
exec(f"from {name} import *", namespace)
unbound = [item for item in exported if item not in namespace]
assert not unbound, f"'from {name} import *' binds none of {unbound}"
for item in exported:
    value = getattr(package, item)
    assert value is namespace[item], item
    assert vars(package)[item] is value, f"{item} was not cached"
try:
    package.no_such_export
except AttributeError as error:
    assert repr(name) in str(error), str(error)
else:
    raise AssertionError("an unknown name resolved")
assert not hasattr(package, "no_such_export")
print(len(exported))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_every_lazy_export_resolves_in_a_fresh_interpreter(package):
    completed = _python("-c", EXPORTS_CHECK, f"repro.{package}")
    assert completed.returncode == 0, completed.stderr
    assert int(completed.stdout) > 0


def test_submodules_resolve_as_package_attributes():
    completed = _python(
        "-c",
        "import repro.fleet, repro.uarch\n"
        "from repro.kernels import fleet\n"
        "assert repro.fleet.economics.CostModel.__name__ == 'CostModel'\n"
        "assert repro.uarch.cache.SetAssociativeCache\n"
        "assert fleet.fleet_replay_columns\n"
        "from repro import kernels\n"
        "assert kernels.fleet_kernel_supports is fleet.supports\n",
    )
    assert completed.returncode == 0, completed.stderr


# The ``from repro...`` lines of perfbench/suite.py: a replay harness's
# import list.
PERFBENCH_IMPORTS = """
from repro.core.config import default_server
from repro.dvfs import GOVERNORS, GovernorSimulator, LoadTrace
from repro.fleet import (
    Autoscaler,
    DisturbanceSchedule,
    FleetSimulator,
    node_crash,
    node_restore,
    thermal_cap,
)
from repro.fleet.routing import ROUTERS
from repro.kernels import BatchReplayRunner, ReplaySpec
from repro.scenarios import REGISTRY, ScenarioRunner
from repro import obs
from repro.sweep.context import ModelContext
from repro.workloads.cloudsuite import WEB_SEARCH
"""

DETAILED_PATH = (
    "repro.uarch.cache",
    "repro.uarch.hierarchy",
    "repro.uarch.coherence",
    "repro.workloads.trace_gen",
)


def test_replay_harness_imports_leave_rare_modules_unloaded():
    modules = _loaded_modules("-c", PERFBENCH_IMPORTS)
    loaded = _deferred(
        modules,
        packages=("repro.opt", "repro.analysis", "repro.dram", "repro.sim"),
        exact=(
            "repro.scenarios.analyses",
            "repro.sweep.runner",
            "repro.resilience.quarantine",
            "repro.obs.report",
            "repro.core.dse",
            "repro.core.qos",
            "repro.core.consolidation",
            "repro.core.energy_proportionality",
            "repro.core.report",
            "repro.fleet.economics",
        )
        + DETAILED_PATH,
    )
    print(f"replay harness imports load {len(modules)} repro modules")
    assert not loaded, loaded
    assert "repro.fleet.simulator" in modules


def test_scenario_list_leaves_the_engines_unloaded():
    args = ("-m", "repro.scenarios", "list")
    modules = _loaded_modules(*args)
    loaded = _deferred(
        modules,
        packages=("repro.kernels", "repro.analysis", "repro.dram", "repro.sim"),
        exact=(
            "repro.opt.tuner",
            "repro.obs.report",
            "repro.scenarios.analyses",
            "repro.dvfs.trace",
            "repro.fleet.autoscaler",
            "repro.fleet.simulator",
            "repro.fleet.economics",
        )
        + DETAILED_PATH,
    )
    print(f"'python -m repro.scenarios list' loads {len(modules)} repro modules")
    assert not loaded, loaded
    # The registry still checks every spec's parameter space.
    assert "repro.opt.space" in modules
    assert _loaded_modules(*args, package="numpy") == []
