"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` lists its public names per
submodule and takes its module-level ``__getattr__`` and ``__dir__``
from :func:`lazy_exports`.  Importing a package then loads none of its
submodules: a name imports its submodule on first access and is cached
in the package namespace, so a process compiles only the modules it
uses (``from repro.fleet import FleetSimulator`` loads no cost model,
``from repro.uarch import IntervalCoreModel`` no cache simulator).
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``.

    ``exports`` maps each submodule (relative name) to the names the
    package re-exports from it; ``"name as alias"`` exports ``name``
    under ``alias``.  The submodule names resolve too.  Any other name
    raises ``AttributeError`` naming the package, which ``hasattr`` and
    ``from package import submodule`` rely on.
    """
    origins: Dict[str, Tuple[str, str]] = {}
    for submodule, names in exports.items():
        for entry in names:
            name, _, alias = entry.partition(" as ")
            origins[alias or name] = (submodule, name)

    def load(submodule: str):
        # __import__, unlike importlib.import_module, is the import
        # statement's path, so ``python -X importtime`` lists the module.
        __import__(f"{package}.{submodule}")
        return sys.modules[f"{package}.{submodule}"]

    def __getattr__(name: str):
        if name in origins:
            submodule, attribute = origins[name]
            value = getattr(load(submodule), attribute)
        elif name in exports:
            value = load(name)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *origins, *exports})

    return __getattr__, __dir__
