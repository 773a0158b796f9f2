"""Calibrated Cortex-A57 voltage/frequency/power model (Figure 1).

This is the core-level model the rest of the study consumes.  For a
requested core frequency it returns the full operating point:

* the minimum supply voltage that sustains the frequency (clamped at
  the technology's minimum functional voltage -- the L1 SRAM limit the
  paper reports at 0.5V),
* the body-bias setting (none, fixed, or power-optimal within the
  usable FBB range),
* dynamic, leakage and total power per core and per chip.

Calibration targets (the paper's Figure 1 anchors):

* FD-SOI reaches roughly 3.5GHz at nominal voltage and ~100MHz at 0.5V;
  with forward body bias the 0.5V frequency exceeds 500MHz.
* Bulk cannot operate at 0.5V (SRAM timing) and needs a higher voltage
  than FD-SOI at every frequency.
* The 36-core chip peaks around 175W at the top of the frequency range
  and sits inside the 100W chip budget at the 2GHz nominal point.
* At the same frequency:  P(bulk) > P(FD-SOI) >= P(FD-SOI+FBB), with the
  relative saving of the FD-SOI flavours over bulk growing as the
  voltage drops towards the near-threshold region.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, Tuple

from repro.technology.body_bias import BodyBiasModel
from repro.technology.dynamic_power import DynamicPowerModel
from repro.technology.leakage import LeakageModel
from repro.technology.process import (
    FDSOI_28NM,
    FDSOI_28NM_FBB,
    ProcessTechnology,
)
from repro.technology.vf_curve import TransregionalVFModel
from repro.utils.validation import check_fraction, check_positive


class BodyBiasPolicy(enum.Enum):
    """How the forward body bias is chosen per operating point."""

    NONE = "none"
    """Zero body bias (plain bulk or plain FD-SOI operation)."""

    FIXED = "fixed"
    """A constant forward bias (the classic 'FD-SOI + FBB' curve)."""

    OPTIMAL = "optimal"
    """Per-operating-point bias minimising total core power."""


@dataclass(frozen=True)
class CoreOperatingPoint:
    """Fully-resolved operating point of one core."""

    frequency_hz: float
    vdd: float
    body_bias: float
    dynamic_power: float
    leakage_power: float

    @property
    def total_power(self) -> float:
        """Total per-core power in watts."""
        return self.dynamic_power + self.leakage_power

    @property
    def energy_per_cycle(self) -> float:
        """Total energy per clock cycle in joules."""
        if self.frequency_hz <= 0.0:
            return 0.0
        return self.total_power / self.frequency_hz

    @property
    def leakage_fraction(self) -> float:
        """Leakage share of total power (0 when the core is off)."""
        total = self.total_power
        if total <= 0.0:
            return 0.0
        return self.leakage_power / total


@dataclass(frozen=True)
class CortexA57PowerModel:
    """Calibrated A57-class core model for one process flavour.

    Parameters
    ----------
    technology:
        Process flavour; use :data:`repro.technology.process.FDSOI_28NM_FBB`
        together with a FIXED or OPTIMAL policy for the body-biased curve.
    bias_policy:
        Body-bias policy (see :class:`BodyBiasPolicy`).
    fixed_body_bias:
        Forward bias used by the FIXED policy, volts.
    temperature_kelvin:
        Junction temperature used for delay and leakage.
    dynamic:
        Switching power model; default calibrated for an A57 at 28nm.
    """

    technology: ProcessTechnology = FDSOI_28NM
    bias_policy: BodyBiasPolicy = BodyBiasPolicy.NONE
    fixed_body_bias: float = 1.5
    temperature_kelvin: float = 330.0
    dynamic: DynamicPowerModel = field(default_factory=DynamicPowerModel)
    leakage_vth_slope: float = 0.065

    def __post_init__(self) -> None:
        check_positive("temperature_kelvin", self.temperature_kelvin)
        check_positive("fixed_body_bias", self.fixed_body_bias)
        if (
            self.bias_policy is BodyBiasPolicy.FIXED
            and self.fixed_body_bias > self.technology.body_bias_max
        ):
            raise ValueError(
                f"fixed body bias {self.fixed_body_bias}V exceeds the "
                f"{self.technology.name} range (max {self.technology.body_bias_max}V)"
            )

    # -- component models -------------------------------------------------------
    # The component models are immutable and depend only on constructor
    # fields, so they are built once per instance (the sweep engine calls
    # operating_point thousands of times per flavour).

    @cached_property
    def vf_model(self) -> TransregionalVFModel:
        """The transregional voltage-frequency model for this flavour."""
        return TransregionalVFModel(self.technology, self.temperature_kelvin)

    @cached_property
    def body_bias_model(self) -> BodyBiasModel:
        """The body-bias model for this flavour."""
        return BodyBiasModel(self.technology)

    @cached_property
    def leakage_model(self) -> LeakageModel:
        """The leakage model for this flavour."""
        return LeakageModel(self.technology, vth_slope=self.leakage_vth_slope)

    @cached_property
    def _candidate_bias_grid(self) -> tuple:
        return self._candidate_biases()

    # -- candidate biases ---------------------------------------------------------

    def _candidate_biases(self) -> tuple:
        if self.bias_policy is BodyBiasPolicy.NONE:
            return (0.0,)
        if self.bias_policy is BodyBiasPolicy.FIXED:
            return (min(self.fixed_body_bias, self.body_bias_model.usable_forward_bias),)
        # OPTIMAL: scan the usable forward-bias range on a fine grid.
        maximum = self.body_bias_model.usable_forward_bias
        steps = 32
        return tuple(maximum * index / steps for index in range(steps + 1))

    def _operating_point_at_bias(
        self, frequency_hz: float, bias: float, activity: float
    ) -> CoreOperatingPoint | None:
        vf_model = self.vf_model
        technology = self.technology
        maximum_frequency = vf_model.max_frequency(technology.nominal_vdd, bias)
        if frequency_hz > maximum_frequency:
            return None
        vdd = vf_model.vdd_for_frequency(frequency_hz, body_bias=bias)
        vdd = max(vdd, technology.min_functional_vdd)
        vth_eff = vf_model.effective_threshold(bias)
        dynamic_power = self.dynamic.power(vdd, frequency_hz, activity)
        leakage_power = self.leakage_model.power(
            vdd, vth_eff=vth_eff, temperature_kelvin=self.temperature_kelvin
        )
        return CoreOperatingPoint(
            frequency_hz=frequency_hz,
            vdd=vdd,
            body_bias=bias,
            dynamic_power=dynamic_power,
            leakage_power=leakage_power,
        )

    # -- public API ----------------------------------------------------------------

    @cached_property
    def _max_frequency_hz(self) -> float:
        best = 0.0
        for bias in self._candidate_bias_grid:
            best = max(
                best,
                self.vf_model.max_frequency(self.technology.nominal_vdd, bias),
            )
        return best

    def max_frequency(self) -> float:
        """Highest frequency reachable at nominal voltage (best allowed bias).

        Computed once per model instance.
        """
        return self._max_frequency_hz

    def min_voltage_frequency(self) -> float:
        """Highest frequency reachable at the minimum functional voltage.

        This is the Figure 1 anchor: ~100MHz for plain FD-SOI at 0.5V,
        above 500MHz with forward body bias.
        """
        best = 0.0
        for bias in self._candidate_bias_grid:
            best = max(
                best,
                self.vf_model.max_frequency(self.technology.min_functional_vdd, bias),
            )
        return best

    def operating_point(
        self, frequency_hz: float, activity: float = 1.0
    ) -> CoreOperatingPoint:
        """Resolve the lowest-power operating point for ``frequency_hz``.

        Raises
        ------
        ValueError
            If the frequency is not reachable by this flavour within the
            nominal-voltage and body-bias limits.
        """
        check_positive("frequency_hz", frequency_hz)
        check_fraction("activity", activity)
        best: CoreOperatingPoint | None = None
        for bias in self._candidate_bias_grid:
            candidate = self._operating_point_at_bias(frequency_hz, bias, activity)
            if candidate is None:
                continue
            if best is None or candidate.total_power < best.total_power:
                best = candidate
        if best is None:
            raise ValueError(
                f"{self.technology.name} ({self.bias_policy.value} bias) cannot reach "
                f"{frequency_hz / 1e6:.0f}MHz at nominal voltage"
            )
        return best

    def core_power(self, frequency_hz: float, activity: float = 1.0) -> float:
        """Total per-core power in watts at ``frequency_hz``."""
        return self.operating_point(frequency_hz, activity).total_power

    def chip_core_power(
        self, frequency_hz: float, core_count: int, activity: float = 1.0
    ) -> float:
        """Aggregate power of ``core_count`` identical cores in watts."""
        if core_count <= 0:
            raise ValueError(f"core_count must be positive, got {core_count}")
        return self.core_power(frequency_hz, activity) * core_count

    def is_reachable(self, frequency_hz: float) -> bool:
        """True when ``frequency_hz`` is reachable by this flavour.

        One comparison against :meth:`max_frequency`, with no solve.
        :meth:`operating_point` raises exactly when the frequency is not
        positive (NaN included) or exceeds the nominal-voltage maximum of
        every candidate bias, so this closed form agrees with the solver
        on every input.
        """
        return 0.0 < frequency_hz <= self.max_frequency()


@lru_cache(maxsize=64)
def operating_point_memo(
    model: CortexA57PowerModel,
) -> Dict[Tuple[float, float], CoreOperatingPoint]:
    """The process-wide ``(frequency_hz, activity) -> point`` memo of ``model``.

    One dict per model *value*: the model is a frozen dataclass of
    frozen fields, and :meth:`CortexA57PowerModel.operating_point` is a
    pure function of them, so every equal model shares one memo and a
    point is solved once per process, however many contexts ask for it.
    The memo is filled by
    :meth:`repro.sweep.context.ModelContext.operating_point` with an
    unlocked check-then-set, so two threads may both solve a missing
    point, and both store equal values; the solver itself stays
    uncached.  Bounded to the 64 most recently used models.
    """
    return {}


def default_flavour_models() -> dict:
    """The three Figure 1 flavours with their conventional policies.

    Returns a mapping from flavour label to a configured
    :class:`CortexA57PowerModel`:

    * ``"bulk"``        -- bulk 28nm, no body bias;
    * ``"fdsoi"``       -- FD-SOI 28nm, no body bias;
    * ``"fdsoi-fbb"``   -- FD-SOI 28nm with power-optimal forward bias.
    """
    from repro.technology.process import BULK_28NM

    return {
        "bulk": CortexA57PowerModel(
            technology=BULK_28NM, bias_policy=BodyBiasPolicy.NONE
        ),
        "fdsoi": CortexA57PowerModel(
            technology=FDSOI_28NM, bias_policy=BodyBiasPolicy.NONE
        ),
        "fdsoi-fbb": CortexA57PowerModel(
            technology=FDSOI_28NM_FBB,
            bias_policy=BodyBiasPolicy.OPTIMAL,
            fixed_body_bias=1.5,
        ),
    }
