"""Table data builders and paper-trend validation.

* :mod:`repro.analysis.tables` -- builds Table I and the derived memory
  power numbers.
* :mod:`repro.analysis.validation` -- checks the reproduced trends
  against the claims the paper makes in its results section, producing
  the records the test suite checks.

The figures' data come from the registered scenarios
(:mod:`repro.scenarios`): Figure 1 is ``ablation_body_bias``'s
``figure1`` analysis, and Figures 2-4 are the sweep columns of
``fig2_qos``, ``fig3_scaleout`` and ``fig4_virtualized``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "tables": ("table1_rows", "memory_power_summary"),
        "validation": ("ClaimCheck", "validate_paper_claims"),
    },
)

__all__ = [
    "table1_rows",
    "memory_power_summary",
    "ClaimCheck",
    "validate_paper_claims",
]
