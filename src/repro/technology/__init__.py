"""Process-technology models for near-threshold server processors.

This package implements the technology-level substrate of the paper:

* :mod:`repro.technology.process` -- named process flavours (28nm bulk,
  28nm UTBB FD-SOI, FD-SOI with forward body bias) and their electrical
  parameters.
* :mod:`repro.technology.vf_curve` -- a transregional delay model giving
  the maximum operating frequency as a function of supply voltage from
  the sub-threshold region up to nominal voltage, and its inverse.
* :mod:`repro.technology.body_bias` -- forward/reverse body-bias model
  (threshold-voltage shift, transition time, sleep-mode leakage
  reduction) for UTBB FD-SOI.
* :mod:`repro.technology.leakage` -- sub-threshold/gate leakage power
  model with temperature and body-bias dependence.
* :mod:`repro.technology.dynamic_power` -- switching (CV^2 f) power.
* :mod:`repro.technology.a57_model` -- the calibrated Cortex-A57 core
  power/performance model used to reproduce Figure 1.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "process": (
            "ProcessTechnology",
            "BULK_28NM",
            "FDSOI_28NM",
            "FDSOI_28NM_FBB",
            "TECHNOLOGIES",
            "technology_by_name",
        ),
        "vf_curve": ("TransregionalVFModel",),
        "body_bias": ("BodyBiasModel",),
        "leakage": ("LeakageModel",),
        "dynamic_power": ("DynamicPowerModel",),
        "a57_model": (
            "CortexA57PowerModel",
            "CoreOperatingPoint",
            "BodyBiasPolicy",
            "default_flavour_models",
        ),
    },
)

__all__ = [
    "ProcessTechnology",
    "BULK_28NM",
    "FDSOI_28NM",
    "FDSOI_28NM_FBB",
    "TECHNOLOGIES",
    "technology_by_name",
    "TransregionalVFModel",
    "BodyBiasModel",
    "LeakageModel",
    "DynamicPowerModel",
    "CortexA57PowerModel",
    "CoreOperatingPoint",
    "BodyBiasPolicy",
    "default_flavour_models",
]
