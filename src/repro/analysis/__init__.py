"""Figure/table data builders and paper-trend validation.

* :mod:`repro.analysis.figures` -- builds the data series behind every
  figure in the paper's evaluation (Figures 1-4).
* :mod:`repro.analysis.tables` -- builds Table I and the derived memory
  power numbers.
* :mod:`repro.analysis.validation` -- checks the reproduced trends
  against the claims the paper makes in its results section, producing
  the records the test suite checks.
"""

from repro.analysis.figures import (
    FigureSeries,
    figure1_series,
    figure2_series,
    figure3_series,
    figure4_series,
)
from repro.analysis.tables import table1_rows, memory_power_summary
from repro.analysis.validation import ClaimCheck, validate_paper_claims

__all__ = [
    "FigureSeries",
    "figure1_series",
    "figure2_series",
    "figure3_series",
    "figure4_series",
    "table1_rows",
    "memory_power_summary",
    "ClaimCheck",
    "validate_paper_claims",
]
