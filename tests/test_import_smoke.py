"""First-import smoke tests: every ``repro`` package imports on its own.

``repro.sweep.context`` imports ``repro.core``, whose analyzers take a
``ModelContext``; a module-level import of the context from
``repro.core`` closes a cycle that breaks ``import repro.sweep`` (and
the scenario CLI) as a *first* import.  Inside one test process every
module is already imported, so the cycle only shows in a fresh
interpreter: each case here starts one.
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
