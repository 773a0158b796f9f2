"""Deterministic chaos injection for the replay/optimization stack.

A :class:`FaultPlan` names a *site* (an instrumented point in the
stack, e.g. ``"batch.replay"`` or ``"tuner.objective"``), the *Nth
call* of that site at which to fire, and an *action*:

* ``"raise"`` -- raise an :class:`~repro.resilience.errors.InjectedFault`
  at the site;
* ``"nan"`` -- corrupt the value flowing through the site to NaN
  (sites passing a value through :func:`corrupt`).

Plans are plain data: :meth:`FaultPlan.parse` reads the CLI's
``SITE:N:ACTION`` syntax and :meth:`FaultPlan.seeded` derives the site
and call index from a seed (SHA-256, no :mod:`random` state), which is
what the property tests sweep -- for *any* single injected fault,
quarantine-mode results must equal the fault-free run minus exactly
the quarantined item.

Injection is explicit and scoped: nothing fires unless a plan is
active via the :func:`inject` context manager (tests) or
:func:`install` (the CLI's ``--inject-fault``).  Instrumented code
calls :func:`fault_point` / :func:`corrupt` unconditionally; with no
active plan these are near-free counter bumps on a thread-local dict.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro import obs
from repro.resilience.errors import InjectedFault

ACTIONS = ("raise", "nan")

SITES = (
    "batch.replay",
    "batch.group",
    "tuner.rung",
    "tuner.objective",
    "scenario.run",
    "scenario.analysis",
)
"""Instrumented sites, for ``--inject-fault`` validation and seeded plans."""


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault: fire ``action`` at call ``at_call`` of ``site``."""

    site: str
    at_call: int
    action: str = "raise"

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("fault plan: site must be a non-empty name")
        if not isinstance(self.at_call, int) or self.at_call < 1:
            raise ValueError(
                f"fault plan: at_call must be an integer >= 1, "
                f"got {self.at_call!r}"
            )
        if self.action not in ACTIONS:
            raise ValueError(
                f"fault plan: unknown action {self.action!r} "
                f"(expected one of {', '.join(ACTIONS)})"
            )

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI syntax ``SITE:N:ACTION`` (e.g. ``batch.replay:3:raise``)."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"fault plan: expected SITE:N:ACTION, got {text!r}"
            )
        site, raw_call, action = parts
        try:
            at_call = int(raw_call)
        except ValueError:
            raise ValueError(
                f"fault plan: call index must be an integer, "
                f"got {raw_call!r}"
            ) from None
        return cls(site=site, at_call=at_call, action=action)

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        sites: Sequence[str] = SITES,
        max_call: int = 16,
        actions: Sequence[str] = ("raise",),
    ) -> "FaultPlan":
        """Derive a plan from ``seed`` alone (SHA-256, no RNG state).

        The site, call index in ``[1, max_call]`` and action are each
        read from independent bytes of the seed digest, so sweeping
        seeds sweeps the fault surface deterministically.
        """
        if not sites:
            raise ValueError("fault plan: sites must be non-empty")
        if max_call < 1:
            raise ValueError(
                f"fault plan: max_call must be >= 1, got {max_call}"
            )
        digest = hashlib.sha256(f"fault-plan:{seed}".encode()).digest()
        site = sites[int.from_bytes(digest[0:4], "big") % len(sites)]
        at_call = 1 + int.from_bytes(digest[4:8], "big") % max_call
        action = actions[int.from_bytes(digest[8:12], "big") % len(actions)]
        return cls(site=site, at_call=at_call, action=action)

    def describe(self) -> str:
        """The CLI syntax for this plan."""
        return f"{self.site}:{self.at_call}:{self.action}"


class _Injector:
    """Thread-local active plan plus per-site call counts."""

    def __init__(self) -> None:
        self._local = threading.local()

    def _state(self) -> Dict[str, object]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"plan": None, "counts": {}}
            self._local.state = state
        return state

    @property
    def plan(self) -> Optional[FaultPlan]:
        return self._state()["plan"]  # type: ignore[return-value]

    def install(self, plan: Optional[FaultPlan]) -> None:
        state = self._state()
        state["plan"] = plan
        state["counts"] = {}

    def counts(self) -> Dict[str, int]:
        return dict(self._state()["counts"])  # type: ignore[arg-type]

    def fire(self, site: str) -> Optional[str]:
        """Count a call at ``site``; return the action if the plan fires."""
        state = self._state()
        plan: Optional[FaultPlan] = state["plan"]  # type: ignore[assignment]
        if plan is None:
            return None
        counts: Dict[str, int] = state["counts"]  # type: ignore[assignment]
        counts[site] = counts.get(site, 0) + 1
        if site == plan.site and counts[site] == plan.at_call:
            obs.count("resilience.faults_injected")
            return plan.action
        return None


_INJECTOR = _Injector()


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` for this thread (``None`` clears; counts reset)."""
    _INJECTOR.install(plan)


def active_plan() -> Optional[FaultPlan]:
    """The plan currently armed on this thread, if any."""
    return _INJECTOR.plan


def call_counts() -> Dict[str, int]:
    """Per-site call counts since the active plan was installed."""
    return _INJECTOR.counts()


class inject:
    """Scope a plan to a ``with`` block, restoring the previous one after."""

    def __init__(self, plan: Optional[FaultPlan]) -> None:
        self._plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> Optional[FaultPlan]:
        self._previous = _INJECTOR.plan
        _INJECTOR.install(self._plan)
        return self._plan

    def __exit__(self, *exc: object) -> bool:
        _INJECTOR.install(self._previous)
        return False


def fault_point(site: str, *, identity: str = "") -> None:
    """Mark one call of ``site``; fire the active plan's fault if due.

    ``"raise"`` and ``"nan"`` both raise here (there is no value to
    corrupt at a bare fault point).
    """
    if _INJECTOR.fire(site) is None:
        return
    raise InjectedFault(
        f"injected fault at site {site!r} "
        f"(call {_INJECTOR.counts().get(site, 0)})",
        identity=identity,
    )


def corrupt(site: str, value: float, *, identity: str = "") -> float:
    """Pass ``value`` through ``site``, corrupting it if the plan fires.

    ``"nan"`` returns NaN in place of ``value``; ``"raise"`` raises as
    at a bare :func:`fault_point`.
    """
    action = _INJECTOR.fire(site)
    if action is None:
        return value
    if action == "nan":
        return float("nan")
    raise InjectedFault(
        f"injected fault at site {site!r} "
        f"(call {_INJECTOR.counts().get(site, 0)})",
        identity=identity,
    )
