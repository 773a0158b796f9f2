"""Figure 1: A57 voltage and power versus frequency per technology flavour.

Regenerates the paper's Figure 1 series -- Vdd(f) and 36-core chip
power(f) for bulk 28nm, FD-SOI and FD-SOI with forward body bias -- from
the ``ablation_body_bias`` scenario's ``figure1`` analysis, and prints
them as a table.
"""

from repro.scenarios import ScenarioRunner
from repro.utils.tables import format_table
from repro.utils.units import mhz


def _build_series():
    return ScenarioRunner().run("ablation_body_bias").extras["figure1"]


def test_bench_figure1_a57_model(benchmark):
    series = benchmark(_build_series)

    rows = []
    flavours = list(series)
    for frequency in series["fdsoi"]["frequency_hz"]:
        row = [f"{frequency / 1e6:.0f}"]
        for flavour in flavours:
            points = series[flavour]
            if frequency in points["frequency_hz"]:
                position = points["frequency_hz"].index(frequency)
                row.append(f"{points['vdd_v'][position]:.2f}")
                row.append(f"{points['chip_core_power_w'][position]:.1f}")
            else:
                row.append("-")
                row.append("-")
        rows.append(row)

    headers = ["f (MHz)"]
    for flavour in flavours:
        headers.extend([f"{flavour} Vdd (V)", f"{flavour} P (W)"])
    print()
    print("Figure 1: A57 performance and power model (36-core chip)")
    print(format_table(headers, rows))

    # Shape checks matching the paper's reading of the figure: at the
    # same (2.1GHz) frequency FD-SOI burns less power than bulk, and the
    # FD-SOI flavours reach the near-threshold frequencies bulk cannot.
    def power_at(flavour, frequency):
        points = series[flavour]
        return points["chip_core_power_w"][points["frequency_hz"].index(frequency)]

    common = mhz(2100)
    assert power_at("bulk", common) > power_at("fdsoi", common)
    assert min(series["fdsoi"]["frequency_hz"]) <= mhz(200)
    assert min(series["fdsoi-fbb"]["frequency_hz"]) <= mhz(200)
