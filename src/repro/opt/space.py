"""Policy parameter spaces: the knobs an optimizer may turn.

A :class:`ParamSpace` is a frozen, fully-validated description of a
policy design space: which DVFS governors, routing policies, fleet
sizes, pack fill fractions, autoscaler utilisation bands and wake
latencies (and optionally QoS/degradation bounds) the optimizer may
combine.  Every field is checked at construction time -- a space that
exists is a space that can be enumerated -- mirroring the
:class:`~repro.scenarios.spec.ScenarioSpec` contract.

:meth:`ParamSpace.configs` enumerates the cross product as
*canonicalized* :class:`PolicyConfig` points: parameters that are
no-ops for a combination (the pack fill fraction under a non-pack
routing, the wake latency of a fleet that never autoscales) are
normalised to ``None`` and the resulting duplicates dropped, so two
parameter combinations that would replay identically become one trial.
Configs materialise straight into
:class:`~repro.kernels.batch.ReplaySpec` instances, which keeps the
optimizer a pure driver of the batched replay engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.dvfs.trace import LoadTrace
from repro.fleet.autoscaler import Autoscaler
from repro.fleet.routing import PackRouting, RoutingPolicy, router_by_name
from repro.workloads.base import WorkloadCharacteristics

if TYPE_CHECKING:
    from repro.kernels.batch import ReplaySpec

Band = Optional[Tuple[float, float]]
"""An autoscaler utilisation band ``(low, high)``; ``None`` = static fleet."""


@dataclass(frozen=True)
class PolicyConfig:
    """One canonical point of a policy space.

    ``fill_fraction`` is ``None`` unless the routing is ``pack`` (it is
    a no-op everywhere else); ``band`` is ``None`` for a fleet that
    never autoscales, in which case ``wake_steps`` is ``None`` too.
    ``degradation_bound`` is ``None`` when the trial inherits the
    scenario's bound.  Two equal configs replay identically, which is
    what lets :meth:`ParamSpace.configs` deduplicate the cross product.
    """

    governor: str
    routing: str
    fleet_size: int
    fill_fraction: Optional[float] = None
    band: Band = None
    wake_steps: Optional[int] = None
    degradation_bound: Optional[float] = None

    def key(self) -> tuple:
        """Deterministic total-order key (tie-breaking, sorting)."""
        return (
            self.fleet_size,
            self.governor,
            self.routing,
            -1.0 if self.fill_fraction is None else self.fill_fraction,
            self.band is not None,
            (-1.0, -1.0) if self.band is None else self.band,
            -1 if self.wake_steps is None else self.wake_steps,
            -1.0 if self.degradation_bound is None else self.degradation_bound,
        )

    def label(self) -> str:
        """Compact human-readable identifier (CLI trials table)."""
        parts = [f"{self.routing}", f"{self.governor}", f"n={self.fleet_size}"]
        if self.fill_fraction is not None:
            parts.append(f"fill={self.fill_fraction:g}")
        if self.band is None:
            parts.append("static")
        else:
            parts.append(f"band={self.band[0]:g}-{self.band[1]:g}")
            parts.append(f"wake={self.wake_steps}")
        if self.degradation_bound is not None:
            parts.append(f"bound={self.degradation_bound:g}")
        return " ".join(parts)

    # -- materialisation ---------------------------------------------------------------

    def routing_policy(self) -> RoutingPolicy:
        """The configured routing policy instance."""
        if self.routing == "pack" and self.fill_fraction is not None:
            return PackRouting(fill_fraction=self.fill_fraction)
        return router_by_name(self.routing)

    def autoscaler(self) -> Optional[Autoscaler]:
        """The configured autoscaler, ``None`` for a static fleet."""
        if self.band is None:
            return None
        return Autoscaler(
            low=self.band[0],
            high=self.band[1],
            wake_steps=self.wake_steps if self.wake_steps is not None else 1,
        )

    def replay_spec(
        self, workload: WorkloadCharacteristics, trace: LoadTrace
    ) -> ReplaySpec:
        """This config as a batched-engine :class:`ReplaySpec`."""
        from repro.kernels.batch import ReplaySpec

        return ReplaySpec(
            workload=workload,
            trace=trace,
            governor=self.governor,
            fleet_size=self.fleet_size,
            routing=self.routing_policy(),
            autoscaler=self.autoscaler(),
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-able description (golden fixtures, CLI)."""
        return {
            "governor": self.governor,
            "routing": self.routing,
            "fleet_size": self.fleet_size,
            "fill_fraction": self.fill_fraction,
            "band": None if self.band is None else list(self.band),
            "wake_steps": self.wake_steps,
            "degradation_bound": self.degradation_bound,
        }


def _check_dimension_not_empty(name: str, values: tuple) -> None:
    if not values:
        raise ValueError(
            f"parameter space: dimension {name!r} must not be empty"
        )


def _check_no_duplicates(name: str, values: tuple) -> None:
    if len(set(values)) != len(values):
        raise ValueError(
            f"parameter space: dimension {name!r} contains duplicates: "
            f"{values}"
        )


@dataclass(frozen=True)
class ParamSpace:
    """Frozen validated policy design space.

    Parameters
    ----------
    fleet_sizes:
        Fleet sizes to search; each must be an integer >= 1.
    governors:
        Governor policy names from
        :data:`repro.dvfs.governors.GOVERNORS`.
    routings:
        Routing policy names from :data:`repro.fleet.routing.ROUTERS`.
    fill_fractions:
        Pack fill fractions in ``(0, 1]``; a no-op (canonicalized away)
        for combinations whose routing is not ``pack``.
    bands:
        Autoscaler utilisation bands ``(low, high)`` with
        ``0 < low < high <= 1``; a ``None`` entry searches the static
        (never-autoscaled) fleet.
    wake_steps:
        Autoscaler boot latencies in trace steps (integers >= 0); a
        no-op for the static-fleet band.
    degradation_bounds:
        QoS/degradation bounds (>= 1) to search; a ``None`` entry
        inherits the evaluation context's bound.
    """

    fleet_sizes: Tuple[int, ...] = (8,)
    governors: Tuple[str, ...] = ("qos_tracker",)
    routings: Tuple[str, ...] = ("pack",)
    fill_fractions: Tuple[float, ...] = (0.75,)
    bands: Tuple[Band, ...] = ((0.35, 0.75),)
    wake_steps: Tuple[int, ...] = (1,)
    degradation_bounds: Tuple[Optional[float], ...] = (None,)

    def __post_init__(self) -> None:
        # Imported here (like ScenarioSpec does) to keep the package
        # import graph acyclic.
        from repro.dvfs.governors import GOVERNORS
        from repro.fleet.routing import ROUTERS

        for name in (
            "fleet_sizes",
            "governors",
            "routings",
            "fill_fractions",
            "bands",
            "wake_steps",
            "degradation_bounds",
        ):
            values = getattr(self, name)
            _check_dimension_not_empty(name, values)
            _check_no_duplicates(name, values)

        for size in self.fleet_sizes:
            if isinstance(size, bool) or not isinstance(size, int) or size < 1:
                raise ValueError(
                    f"parameter space: dimension 'fleet_sizes': fleet sizes "
                    f"must be integers >= 1, got {size!r}"
                )
        unknown_governors = [g for g in self.governors if g not in GOVERNORS]
        if unknown_governors:
            known = ", ".join(GOVERNORS)
            raise ValueError(
                f"parameter space: unknown governors {unknown_governors}; "
                f"known governors: {known}"
            )
        unknown_routings = [r for r in self.routings if r not in ROUTERS]
        if unknown_routings:
            known = ", ".join(ROUTERS)
            raise ValueError(
                f"parameter space: unknown routings {unknown_routings}; "
                f"known policies: {known}"
            )
        for fill in self.fill_fractions:
            if not (math.isfinite(fill) and 0.0 < fill <= 1.0):
                raise ValueError(
                    f"parameter space: fill fractions must be finite and in "
                    f"(0, 1], got {fill!r}"
                )
        for band in self.bands:
            if band is None:
                continue
            if not isinstance(band, tuple) or len(band) != 2:
                raise ValueError(
                    f"parameter space: a band is a (low, high) pair, "
                    f"got {band!r}"
                )
            low, high = band
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValueError(
                    f"parameter space: band bounds must be finite, "
                    f"got {band!r}"
                )
            if low >= high:
                raise ValueError(
                    f"parameter space: degenerate band (need low < high), "
                    f"got low={low!r} high={high!r}"
                )
            if not (0.0 < low and high <= 1.0):
                raise ValueError(
                    f"parameter space: band must satisfy 0 < low < high <= 1, "
                    f"got {band!r}"
                )
        for steps in self.wake_steps:
            if not isinstance(steps, int) or steps < 0:
                raise ValueError(
                    f"parameter space: wake steps must be integers >= 0, "
                    f"got {steps!r}"
                )
        for bound in self.degradation_bounds:
            if bound is None:
                continue
            if math.isnan(bound):
                raise ValueError(
                    "parameter space: degradation bound must not be NaN"
                )
            if not math.isfinite(bound) or bound < 1.0:
                raise ValueError(
                    f"parameter space: degradation bound must be finite and "
                    f">= 1 (1.0 = no slowdown allowed), got {bound!r}"
                )

    # -- enumeration -------------------------------------------------------------------

    def configs(self) -> Tuple[PolicyConfig, ...]:
        """The canonical deduplicated cross product, enumeration order.

        Parameters that cannot influence a combination's replay are
        normalised away before deduplication: ``fill_fraction`` becomes
        ``None`` under a non-pack routing, and ``wake_steps`` becomes
        ``None`` for the static (``band=None``) fleet.  The first
        occurrence of each canonical config wins, so the order is a
        deterministic function of the dimension order alone.
        """
        seen = set()
        out: List[PolicyConfig] = []
        for fleet_size in self.fleet_sizes:
            for governor in self.governors:
                for routing in self.routings:
                    for fill in self.fill_fractions:
                        for band in self.bands:
                            for wake in self.wake_steps:
                                for bound in self.degradation_bounds:
                                    config = PolicyConfig(
                                        governor=governor,
                                        routing=routing,
                                        fleet_size=fleet_size,
                                        fill_fraction=(
                                            fill if routing == "pack" else None
                                        ),
                                        band=band,
                                        wake_steps=(
                                            wake if band is not None else None
                                        ),
                                        degradation_bound=bound,
                                    )
                                    if config not in seen:
                                        seen.add(config)
                                        out.append(config)
        return tuple(out)

    @property
    def size(self) -> int:
        """Number of canonical (deduplicated) configs."""
        return len(self.configs())

    @property
    def raw_size(self) -> int:
        """Size of the raw cross product, duplicates included."""
        return (
            len(self.fleet_sizes)
            * len(self.governors)
            * len(self.routings)
            * len(self.fill_fractions)
            * len(self.bands)
            * len(self.wake_steps)
            * len(self.degradation_bounds)
        )

    def summary(self) -> Dict[str, object]:
        """JSON-able description of the space (golden fixtures)."""
        return {
            "fleet_sizes": list(self.fleet_sizes),
            "governors": list(self.governors),
            "routings": list(self.routings),
            "fill_fractions": list(self.fill_fractions),
            "bands": [
                None if band is None else list(band) for band in self.bands
            ],
            "wake_steps": list(self.wake_steps),
            "degradation_bounds": list(self.degradation_bounds),
            "raw_size": self.raw_size,
            "size": self.size,
        }
