"""The repository benchmark: one command, named workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload's ops with instrumentation off and
prints the end-to-end metrics, scaled to a reference host speed (see
``hostspeed.py``); ``--trace 1`` runs the same workload
untraced and then traced (``repro.obs`` capture plus timing wrappers
around the program's entry points) and prints the per-layer metrics.
Every run checks its outputs against reference replays or the golden
fixtures, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import os

# Pin numeric-library thread pools before numpy is imported anywhere, so
# the numbers measure the program and not the scheduler.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("fleet_sweep", "replay_mix", "scenario_suite")

# Set-up is measured in this process and in SETUP_PROBES fresh ones
# (cold imports each time), each followed by a host-speed calibration;
# setup_s is the median of the scaled samples.
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60
PHASES = ("import", "tables", "inputs")

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# -- set-up ------------------------------------------------------------------------------


class PhaseTimer:
    """Wall time of the named set-up phases."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + (
                time.perf_counter() - started
            )


def set_up(workload: str, seed: int):
    """Import the program and build one workload.

    Returns the ``suite`` module, the workload and the set-up phase walls.
    """
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"perfbench: no program to measure at {src / 'repro'}")
    sys.path.insert(0, str(src))
    timer = PhaseTimer()
    with timer("import"):
        import suite
    built = suite.prepare(workload, seed, ROOT, timer)
    return suite, built, timer.seconds


def probe_setup(workload: str, seed: int) -> Dict[str, float]:
    """Set-up phases measured in a fresh interpreter."""
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--setup-probe",
            "--workload",
            workload,
            "--seed",
            str(seed),
        ],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


# -- environment -------------------------------------------------------------------------


def git_sha() -> Optional[str]:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(args: argparse.Namespace, argv: List[str]) -> Dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "argv": argv,
        "workload": args.workload,
        "seed": args.seed,
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
    }


# -- timing ------------------------------------------------------------------------------


class Window:
    """Ops timed in whole passes until the window's seconds are spent.

    A closed loop: one process, one thread, the next op starts when the
    previous one returned.  Only op calls are timed; fingerprinting the
    outputs happens between them.  A host-speed calibration runs before
    the first pass and after every pass; ``scales[i]`` turns pass ``i``'s
    walls into times at the reference host speed.
    """

    def __init__(self) -> None:
        self.pass_ops: List[List[Tuple[str, float]]] = []
        self.calibrations: List[float] = []
        self.fingerprints: List[tuple] = []
        self.reports: list = []
        self.attempted = 0
        self.errors = 0

    @property
    def scales(self) -> List[float]:
        from hostspeed import scale

        return [
            scale(before, after)
            for before, after in zip(self.calibrations, self.calibrations[1:])
        ]

    @property
    def pass_walls(self) -> List[float]:
        """Raw pass walls, in seconds."""
        return [sum(latency for _, latency in ops) for ops in self.pass_ops]

    @property
    def scaled_pass_walls(self) -> List[float]:
        return [wall * s for wall, s in zip(self.pass_walls, self.scales)]

    def scaled_pass_latencies(self) -> List[List[float]]:
        return [
            [latency * s for _, latency in ops]
            for ops, s in zip(self.pass_ops, self.scales)
        ]

    def scaled_case_latencies(self) -> Dict[str, List[float]]:
        cases: Dict[str, List[float]] = {}
        for ops, s in zip(self.pass_ops, self.scales):
            for case, latency in ops:
                cases.setdefault(case, []).append(latency * s)
        return cases


def run_window(workload, seconds: float, traced: bool = False) -> Window:
    """Run whole passes of ``workload.ops`` for ``seconds``.

    With ``traced``, each pass runs inside its own ``repro.obs`` capture
    and leaves one :class:`~repro.obs.RunReport` in ``window.reports``.
    """
    from hostspeed import calibrate
    from repro import obs

    window = Window()
    window.calibrations.append(calibrate())
    deadline = time.perf_counter() + seconds
    while True:
        ops: List[Tuple[str, float]] = []
        with obs.capture() if traced else nullcontext() as capture:
            for op in workload.ops:
                window.attempted += 1
                started = time.perf_counter()
                try:
                    with obs.trace("perfbench.op", case=op.case):
                        output = op.run()
                except Exception as error:  # an op that raises is a failed op
                    print(f"op {op.case} raised {error!r}", file=sys.stderr)
                    window.errors += 1
                    continue
                ops.append((op.case, time.perf_counter() - started))
                window.fingerprints.append(
                    (op.case, workload.fingerprint(op.case, output))
                )
                del output
        if traced:
            window.reports.append(capture.report())
        window.pass_ops.append(ops)
        window.calibrations.append(calibrate())
        if time.perf_counter() >= deadline:
            return window


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- metrics ---------------------------------------------------------------------------


def end_to_end_metrics(workload, window: Window, setup_s: float, rss_mb: float) -> dict:
    """The ``--trace 0`` metrics of one untraced window, at reference speed."""
    pass_s = statistics.median(window.scaled_pass_walls)
    pass_latencies = window.scaled_pass_latencies()
    replays_per_pass = sum(workload.replays[op.case] for op in workload.ops)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "replays_per_s": {"value": replays_per_pass / pass_s, "unit": "1/s"},
        "suite_pass_s": {"value": pass_s, "unit": "s"},
        "op_p50_ms": {
            "value": statistics.median(
                latency for latencies in pass_latencies for latency in latencies
            )
            * 1e3,
            "unit": "ms",
        },
        "op_p90_ms": {
            "value": statistics.median(
                percentile(latencies, 0.9) for latencies in pass_latencies
            )
            * 1e3,
            "unit": "ms",
        },
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer_values(
    untraced: Window, traced: Window, setup: Dict[str, float], golden_mismatches: int
) -> Dict[str, float]:
    """Every per-layer value; raises ValueError if an exact count drifted."""
    from suite import MIX_WEIGHTS
    from tracing import EXACT_COUNTS, TIME_METRICS, pass_values

    per_pass = []
    for report, s in zip(traced.reports, traced.scales):
        values = pass_values(report)
        per_pass.append(
            {name: value * s if name in TIME_METRICS else value for name, value in values.items()}
        )
    drifted = [
        name for name in EXACT_COUNTS if len({values[name] for values in per_pass}) > 1
    ]
    if drifted:
        raise ValueError(f"exact counts drifted between passes: {drifted}")
    values = {
        name: per_pass[0][name]
        if name in EXACT_COUNTS
        else statistics.median(values[name] for values in per_pass)
        for name in per_pass[0]
    }
    for phase in PHASES:
        values[f"setup.{phase}_s"] = setup[phase]
    values["obs.trace_overhead_frac"] = (
        statistics.median(traced.scaled_pass_walls)
        / statistics.median(untraced.scaled_pass_walls)
        - 1.0
    )
    values["scenarios.golden_mismatches"] = golden_mismatches
    case_latencies = untraced.scaled_case_latencies()
    for case in MIX_WEIGHTS:
        latencies = case_latencies.get(case)
        values[f"fleet.case.{case}_ms"] = (
            statistics.median(latencies) * 1e3 if latencies else 0.0
        )
    dvfs = [
        latency
        for case, latencies in case_latencies.items()
        if case.startswith("dvfs.")
        for latency in latencies
    ]
    values["dvfs.replay_ms"] = statistics.median(dvfs) * 1e3 if dvfs else 0.0
    return values


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer"]
    return {metric["name"]: metric["unit"] for metric in declared}


def write_report(traced: Window, path: Path, meta: Dict[str, object]) -> bool:
    """Write the traced passes as one RunReport; True if it validates."""
    from repro.obs import RunReport
    from repro.obs.__main__ import main as obs_cli

    report = RunReport.merge(traced.reports, meta=meta)
    path.write_text(report.to_json() + "\n", encoding="utf-8")
    return obs_cli(["validate", str(path)]) == 0


# -- the run -----------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)

    suite, workload, phases = set_up(args.workload, args.seed)
    import hostspeed

    phases["calibration"] = hostspeed.calibrate()
    if args.setup_probe:
        print(json.dumps(phases))
        return 0
    samples = [phases] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    scaled = [
        {phase: sample[phase] * hostspeed.scale(sample["calibration"]) for phase in PHASES}
        for sample in samples
    ]
    setup = {
        phase: statistics.median(sample[phase] for sample in scaled) for phase in PHASES
    }
    setup_s = statistics.median(sum(sample.values()) for sample in scaled)

    from tracing import LayerTracer

    suite.count_replays(workload)
    if args.trace:
        untraced = run_window(workload, args.seconds / 2)
        with LayerTracer():
            traced = run_window(workload, args.seconds / 2, traced=True)
        windows = [untraced, traced]
    else:
        windows = [run_window(workload, args.seconds)]
    rss_mb = peak_rss_mb()

    expected = workload.expected()
    mismatches = sum(
        1
        for window in windows
        for case, fingerprint in window.fingerprints
        if expected.get(case) != fingerprint
    )
    attempted = sum(window.attempted for window in windows)
    failed = mismatches + sum(window.errors for window in windows)
    correct = failed == 0
    passes = sum(len(window.pass_ops) for window in windows)
    print(
        f"{args.workload}: {attempted} ops in {passes} passes of {len(workload.ops)}; "
        f"error_rate {failed / attempted:.4f} ({failed}/{attempted})"
    )

    env = environment(args, argv)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        try:
            values = per_layer_values(
                untraced,
                traced,
                setup,
                mismatches if args.workload == "scenario_suite" else 0,
            )
        except ValueError as error:
            print(error, file=sys.stderr)
            return 1
        units = per_layer_units()
        metrics = {
            name: {"value": values[name], "unit": units[name]} for name in sorted(units)
        }
        meta = {
            "env": env,
            "traced_passes": len(traced.reports),
            "metrics": {name: values[name] for name in sorted(units)},
        }
        if not write_report(traced, OUT_DIR / f"{stem}.report.json", meta):
            correct = False
    else:
        metrics = end_to_end_metrics(workload, windows[0], setup_s, rss_mb)

    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    calibrations = [c for window in windows for c in window.calibrations]
    print(
        f"host speed: calibration median {statistics.median(calibrations) * 1e3:.3f} ms "
        f"(reference {hostspeed.REFERENCE_S * 1e3:.3f} ms); "
        f"raw median pass {statistics.median(windows[0].pass_walls):.4f} s"
    )
    print(f"env: {json.dumps(env, sort_keys=True)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "env": env,
        "setup_samples": samples,
        "pass_walls_s": [window.pass_walls for window in windows],
        "calibrations_s": [window.calibrations for window in windows],
    }
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps({**result, **details}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
