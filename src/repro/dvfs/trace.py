"""Time-varying load traces for governor replay.

A :class:`LoadTrace` is a fixed-step utilisation series: step ``t``
offers ``utilization[t]`` of the server's nominal (2GHz) throughput for
``step_seconds``.  The paper's sweeps pick one operating point per
load level; the consolidation story only pays off when a governor can
ride the V/f curve as the load moves, so this module supplies the load
signals: a constant reference, a diurnal daily curve, a two-state
bursty process, and a replay derived from the synthetic Bitbrains VM
population of :mod:`repro.workloads.bitbrains`.

Every generator is deterministic given its seed (a local
``numpy.random.default_rng``; no global random state), so replay tables
are bit-for-bit reproducible and can be pinned by golden fixtures.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.workloads.bitbrains import BitbrainsTraceModel


@dataclass(frozen=True)
class LoadTrace:
    """A fixed-step utilisation series.

    Parameters
    ----------
    name:
        Identifier of the trace (used in tables and summaries).
    step_seconds:
        Duration of every step; must be a positive, finite number
        (not a ``bool``), and is stored as a ``float``.
    utilization:
        One offered-load level per step, each in ``[0, 1]``: the
        fraction of the server's nominal-frequency throughput the load
        demands during that step.  A value above 1 would ask for more
        than the machine can ever serve and is rejected.
    """

    name: str
    step_seconds: float
    utilization: Tuple[float, ...]

    def __post_init__(self) -> None:
        step = self.step_seconds
        if isinstance(step, bool) or not isinstance(step, numbers.Real):
            raise ValueError(
                f"trace {self.name!r}: step duration must be a number, "
                f"got {step!r} ({type(step).__name__})"
            )
        # Stored as a float so summaries and rollups carry one type.
        object.__setattr__(self, "step_seconds", float(step))
        if not math.isfinite(self.step_seconds) or self.step_seconds <= 0.0:
            raise ValueError(
                f"trace {self.name!r}: step duration must be positive and "
                f"finite, got {self.step_seconds}"
            )
        if not self.utilization:
            raise ValueError(
                f"trace {self.name!r}: must contain at least one step"
            )
        for index, value in enumerate(self.utilization):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(
                    f"trace {self.name!r}: utilisation at step {index} must "
                    f"be finite and non-negative, got {value}"
                )
            if value > 1.0:
                raise ValueError(
                    f"trace {self.name!r}: utilisation at step {index} "
                    f"exceeds 1 ({value}); loads are fractions of the "
                    "nominal-frequency throughput"
                )

    # -- views ---------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.utilization)

    @property
    def steps(self) -> int:
        """Number of steps in the trace."""
        return len(self.utilization)

    @property
    def duration_seconds(self) -> float:
        """Total trace duration."""
        return self.step_seconds * len(self.utilization)

    def times(self) -> np.ndarray:
        """Start time of every step, in seconds."""
        return np.arange(len(self.utilization), dtype=np.float64) * self.step_seconds

    @functools.cached_property
    def utilization_array(self) -> np.ndarray:
        """The utilisation as a read-only float64 array, converted once.
        Not a field, so ``==``, ``hash`` and ``repr`` see only the tuple;
        a result column exposing the utilisation copies it."""
        array = np.array(self.utilization, dtype=np.float64)
        array.setflags(write=False)
        return array

    @property
    def mean_utilization(self) -> float:
        """Average offered load over the trace."""
        return float(np.mean(self.utilization_array))

    @property
    def peak_utilization(self) -> float:
        """Highest offered load in the trace."""
        return float(np.max(self.utilization_array))

    def head(self, steps: int) -> "LoadTrace":
        """The first ``steps`` steps as a new trace."""
        if steps < 1:
            raise ValueError(f"head needs at least one step, got {steps}")
        return LoadTrace(
            name=self.name,
            step_seconds=self.step_seconds,
            utilization=self.utilization[:steps],
        )

    def permuted(self, order) -> "LoadTrace":
        """The same steps in a different order (for invariance tests)."""
        indices = list(order)
        if sorted(indices) != list(range(len(self.utilization))):
            raise ValueError(
                f"trace {self.name!r}: permutation must reorder exactly the "
                f"{len(self.utilization)} steps"
            )
        return LoadTrace(
            name=f"{self.name} (permuted)",
            step_seconds=self.step_seconds,
            utilization=tuple(self.utilization[i] for i in indices),
        )

    def summary(self) -> Dict[str, object]:
        """JSON-able description (pinned by the golden fixtures)."""
        return {
            "name": self.name,
            "steps": self.steps,
            "step_seconds": self.step_seconds,
            "duration_seconds": self.duration_seconds,
            "mean_utilization": self.mean_utilization,
            "peak_utilization": self.peak_utilization,
        }

    # -- composition -----------------------------------------------------------------

    def with_surge(
        self,
        start: int,
        steps: int,
        factor: float,
        shape: str = "step",
        name: str | None = None,
    ) -> "LoadTrace":
        """A flash-crowd surge: multiply a window of steps by ``factor``.

        ``shape="step"`` applies the full multiplier across the whole
        window; ``shape="ramp"`` ramps linearly from the baseline up to
        ``factor`` at the window's last step (the crowd building).  The
        window ``[start, start + steps)`` is clamped to the trace
        bounds, and surged values clip at 1.0 -- a saturated step
        cannot offer more than the fleet's nominal throughput.
        """
        if steps < 1:
            raise ValueError(
                f"trace {self.name!r}: surge needs at least one step, "
                f"got {steps}"
            )
        if not math.isfinite(factor) or factor <= 0.0:
            raise ValueError(
                f"trace {self.name!r}: surge factor must be positive and "
                f"finite, got {factor}"
            )
        if shape not in ("step", "ramp"):
            raise ValueError(
                f"trace {self.name!r}: unknown surge shape {shape!r}; "
                "known shapes: ramp, step"
            )
        first = max(int(start), 0)
        last = min(int(start) + int(steps), len(self.utilization))
        values = list(self.utilization)
        window = last - first
        for offset in range(window):
            if shape == "ramp":
                multiplier = 1.0 + (factor - 1.0) * (offset + 1) / window
            else:
                multiplier = factor
            values[first + offset] = min(
                1.0, values[first + offset] * multiplier
            )
        return LoadTrace(
            name=name if name is not None else f"{self.name}+surge",
            step_seconds=self.step_seconds,
            utilization=tuple(values),
        )

    def concat(self, other: "LoadTrace", name: str | None = None) -> "LoadTrace":
        """This trace followed by ``other`` (regional-failover shapes).

        Both traces must share the same step duration -- concatenating
        mismatched resolutions would silently re-time one of them.
        """
        if other.step_seconds != self.step_seconds:
            raise ValueError(
                f"cannot concat traces with mismatched step_seconds: "
                f"{self.name!r} has {self.step_seconds}, "
                f"{other.name!r} has {other.step_seconds}"
            )
        return LoadTrace(
            name=name if name is not None else f"{self.name}+{other.name}",
            step_seconds=self.step_seconds,
            utilization=self.utilization + other.utilization,
        )

    def scale(self, factor: float, name: str | None = None) -> "LoadTrace":
        """Every step multiplied by ``factor``, clipped at 1.0.

        The failover primitive: a region absorbing a sibling's traffic
        sees its whole trace scaled up (values saturate at the fleet's
        nominal throughput rather than becoming invalid loads).
        """
        if not math.isfinite(factor) or factor <= 0.0:
            raise ValueError(
                f"trace {self.name!r}: scale factor must be positive and "
                f"finite, got {factor}"
            )
        return LoadTrace(
            name=name if name is not None else f"{self.name}x{factor:g}",
            step_seconds=self.step_seconds,
            utilization=tuple(
                min(1.0, value * factor) for value in self.utilization
            ),
        )

    # -- generators ------------------------------------------------------------------

    @classmethod
    def constant(
        cls,
        utilization: float = 0.6,
        steps: int = 24,
        step_seconds: float = 300.0,
        name: str = "constant",
    ) -> "LoadTrace":
        """A flat load: every step offers the same utilisation."""
        return cls(
            name=name,
            step_seconds=step_seconds,
            utilization=(float(utilization),) * int(steps),
        )

    @classmethod
    def diurnal(
        cls,
        steps: int = 48,
        step_seconds: float = 1800.0,
        low: float = 0.15,
        high: float = 0.9,
        noise: float = 0.03,
        periods: float = 1.0,
        seed: int = 2016,
        name: str = "diurnal",
    ) -> "LoadTrace":
        """A smooth day/night curve: trough ``low``, peak ``high``.

        The defaults model one day in 30-minute steps, the canonical
        interactive-service shape (morning ramp, evening peak, night
        trough) plus small Gaussian measurement noise.
        """
        rng = np.random.default_rng(seed)
        phase = 2.0 * math.pi * periods * (np.arange(steps) + 0.5) / steps
        base = low + (high - low) * 0.5 * (1.0 - np.cos(phase))
        values = np.clip(base + rng.normal(0.0, noise, steps), 0.0, 1.0)
        return cls(
            name=name, step_seconds=step_seconds, utilization=tuple(map(float, values))
        )

    @classmethod
    def bursty(
        cls,
        steps: int = 120,
        step_seconds: float = 60.0,
        base: float = 0.2,
        burst: float = 0.95,
        burst_start_probability: float = 0.08,
        burst_stop_probability: float = 0.35,
        noise: float = 0.02,
        seed: int = 2016,
        name: str = "bursty",
    ) -> "LoadTrace":
        """A two-state Markov load: quiet baseline with load spikes.

        The chain starts quiet, enters a burst with probability
        ``burst_start_probability`` per step and leaves it with
        probability ``burst_stop_probability``, giving geometrically
        distributed burst lengths -- the memcached-style flash-crowd
        pattern that punishes slow-reacting governors.
        """
        rng = np.random.default_rng(seed)
        values = np.empty(steps, dtype=np.float64)
        in_burst = False
        for index in range(steps):
            if in_burst:
                in_burst = rng.random() >= burst_stop_probability
            else:
                in_burst = rng.random() < burst_start_probability
            level = burst if in_burst else base
            values[index] = level + rng.normal(0.0, noise)
        values = np.clip(values, 0.0, 1.0)
        return cls(
            name=name, step_seconds=step_seconds, utilization=tuple(map(float, values))
        )

    @classmethod
    def from_bitbrains(
        cls,
        steps: int = 288,
        step_seconds: float = 300.0,
        vms_per_step: int = 32,
        target_mean: float = 0.45,
        model: BitbrainsTraceModel | None = None,
        seed: int = 2016,
        name: str = "bitbrains",
    ) -> "LoadTrace":
        """A utilisation replay derived from the Bitbrains population.

        Each 300-second step (the dataset's sampling interval) draws
        ``vms_per_step`` VMs from the synthetic Bitbrains population
        and consolidates their CPU utilisations onto the server; a
        diurnal envelope reproduces the business-hours swing of the
        dataset's business-critical VMs.  ``target_mean`` rescales the
        consolidated signal so the server runs at a realistic average
        load; the result is clipped to ``[0, 1]``.
        """
        if model is None:
            model = BitbrainsTraceModel(seed=seed)
        cpu = np.asarray(model.cpu_utilization(), dtype=np.float64)
        rng = np.random.default_rng(seed)
        draws = rng.integers(0, len(cpu), size=(steps, vms_per_step))
        chunk_means = cpu[draws].mean(axis=1)
        phase = 2.0 * math.pi * (np.arange(steps) + 0.5) / steps
        envelope = 0.55 + 0.45 * 0.5 * (1.0 - np.cos(phase))
        raw = chunk_means * envelope
        raw_mean = float(raw.mean())
        if raw_mean <= 0.0:
            raise ValueError(
                "LoadTrace.from_bitbrains: the sampled VM population is "
                "all-idle (mean CPU utilisation is 0), so the trace cannot "
                f"be rescaled to target_mean={target_mean}; use a model "
                "whose cpu_utilization() is nonzero for some VM"
            )
        values = np.clip(raw * (target_mean / raw_mean), 0.0, 1.0)
        return cls(
            name=name, step_seconds=step_seconds, utilization=tuple(map(float, values))
        )


LOAD_TRACES = {
    "constant": LoadTrace.constant,
    "diurnal": LoadTrace.diurnal,
    "bursty": LoadTrace.bursty,
    "bitbrains": LoadTrace.from_bitbrains,
}
"""Named trace generators scenario specs can reference (defaults only)."""


def load_trace_by_name(name: str) -> LoadTrace:
    """Build a named trace with its default parameters.

    Raises
    ------
    ValueError
        If ``name`` is unknown; the message lists what is available.
    """
    try:
        factory = LOAD_TRACES[name]
    except KeyError:
        known = ", ".join(sorted(LOAD_TRACES))
        raise ValueError(
            f"unknown load trace {name!r}; known traces: {known}"
        ) from None
    return factory()
