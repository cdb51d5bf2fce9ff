"""Reference timings of single seqpol calls, one line per row of the table in
README.md ("Reference figures").

    python3 perfbench/reference.py

In-process rows are the mean over repeated calls in one warm interpreter,
timed with ``time.perf_counter`` for at least one second and three calls.
Process rows are the median wall time of seven fresh interpreters.  The
10,000-point rows are single calls; together they take about 40 s today.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from seqpol import algebra, harness, instrument, analysis  # noqa: E402


def mean_seconds(call, minimum_s: float = 1.0, minimum_calls: int = 3) -> float:
    calls, start = 0, time.perf_counter()
    while calls < minimum_calls or time.perf_counter() - start < minimum_s:
        call()
        calls += 1
    return (time.perf_counter() - start) / calls


def launch_seconds(argv: list[str], times: int) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    seconds = []
    for _ in range(times):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


def main() -> None:
    params = instrument.SetupParams(10.0)
    psi = algebra.make_linear_polarization(67.5)
    target = algebra.make_stokes("PM")
    povm = instrument.sequential_povm(params)
    record = harness.monte_carlo_counts(params, 67.5, 1_000_000, 1)
    rows = [
        ("algebra", "make_linear_polarization", lambda: algebra.make_linear_polarization(67.5)),
        ("instrument", "sequential_povm", lambda: instrument.sequential_povm(params)),
        ("instrument", "pm_marginal_povm", lambda: instrument.pm_marginal_povm(params)),
        ("analysis", "optimal_error", lambda: analysis.optimal_error(psi, povm, target)),
        ("harness", "analytic_row", lambda: harness.analytic_row(params)),
        ("harness", "run_sweep, 46 points", lambda: harness.run_sweep(harness.SweepConfig())),
        ("harness", "find_crossings, 46 points", lambda: harness.find_crossings(harness.SweepConfig())),
        ("harness", "monte_carlo_counts, 10^6 photons",
         lambda: harness.monte_carlo_counts(params, 67.5, 1_000_000, 1)),
        ("harness", "bootstrap_standard_errors, 200 resamples",
         lambda: harness.bootstrap_standard_errors(record, 200, 1)),
    ]
    for layer, what, call in rows:
        print(f"| {layer} | {what} | {mean_seconds(call) * 1e3:.3g} ms |")
    grid = tuple(22.5 * i / 9999 for i in range(10_000))
    large = mean_seconds(lambda: harness.run_sweep(harness.SweepConfig(grid)), 0.0, 1)
    print(f"| harness | run_sweep, 10,000 points | {large:.3g} s |")
    launches = [("import seqpol", ["-c", "import seqpol"], 7),
                ("seqpol sweep", ["-m", "seqpol", "sweep"], 7),
                ("seqpol sweep --steps 10000", ["-m", "seqpol", "sweep", "--steps", "10000"], 1)]
    for what, argv, times in launches:
        print(f"| process | {what} | {launch_seconds(argv, times):.3g} s |")


if __name__ == "__main__":
    main()
