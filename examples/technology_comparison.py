"""Technology comparison: bulk vs FD-SOI vs FD-SOI + forward body bias.

Reproduces the Figure 1 comparison and the body-bias knobs of
Section II-A: the supply voltage and chip core power needed at each
frequency per flavour, the near-threshold frequencies reachable at the
minimum functional voltage, and the state-retentive sleep-mode leakage
reduction offered by reverse body bias.  The Figure 1 series, the
near-threshold reach and the body-bias knob rows come from the
registered ``ablation_body_bias`` scenario (its ``figure1`` and
``body_bias`` analyses), so this example and the benchmark harness
print the same experiment.

Run with:  python examples/technology_comparison.py
"""

from repro.scenarios import ScenarioRunner
from repro.technology import BodyBiasModel, FDSOI_28NM
from repro.utils.tables import format_table
from repro.utils.units import mhz


def main() -> None:
    extras = ScenarioRunner().run("ablation_body_bias").extras
    figure = extras["figure1"]
    frequencies = [mhz(value) for value in (200, 500, 1000, 1500, 2000, 2500, 3000, 3500)]

    print("Figure 1: supply voltage and 36-core power per technology flavour")
    rows = []
    for frequency in frequencies:
        row = [f"{frequency / 1e6:.0f}"]
        for flavour in ("bulk", "fdsoi", "fdsoi-fbb"):
            points = figure[flavour]
            if frequency in points["frequency_hz"]:
                index = points["frequency_hz"].index(frequency)
                row.append(f"{points['vdd_v'][index]:.2f}V")
                row.append(f"{points['chip_core_power_w'][index]:.0f}W")
            else:
                row.append("-")
                row.append("-")
        rows.append(row)
    print(
        format_table(
            (
                "f (MHz)",
                "bulk Vdd", "bulk P",
                "fdsoi Vdd", "fdsoi P",
                "fbb Vdd", "fbb P",
            ),
            rows,
        )
    )

    print("\nNear-threshold reach at the minimum functional voltage")
    rows = []
    for label, points in figure.items():
        rows.append(
            (
                label,
                f"{points['min_functional_vdd_v']:.2f}V",
                f"{points['frequency_at_min_vdd_hz'] / 1e6:.0f} MHz",
            )
        )
    print(format_table(("flavour", "min Vdd", "max f at min Vdd"), rows))

    print("\nBody-bias knobs (UTBB FD-SOI, from the ablation_body_bias scenario)")
    ablation = extras["body_bias"]
    bias = BodyBiasModel(FDSOI_28NM)
    sleep = ablation["sleep"]
    print(f"  Vth shift per volt of bias:      {FDSOI_28NM.body_effect_coefficient * 1000:.0f} mV/V")
    print(f"  5mm^2 core 0V->1.3V bias switch: {bias.transition_time(5.0, 1.3) * 1e6:.2f} us")
    print(
        "  RBB sleep leakage at 0.8V:       "
        f"{sleep['rbb_sleep_leakage_at_0v8_w'] * 1000:.1f} mW "
        f"(active {sleep['active_leakage_at_0v8_w'] * 1000:.1f} mW)"
    )
    print(
        format_table(
            ("FBB (V)", "effective Vth (V)", "max f @0.5V (MHz)"),
            [
                (
                    row["forward_bias_v"],
                    round(row["effective_vth_v"], 3),
                    round(row["max_frequency_at_0v5_hz"] / 1e6),
                )
                for row in ablation["rows"]
            ],
        )
    )


if __name__ == "__main__":
    main()
