"""Benchmark of seqpol: fine analytic scans, Monte Carlo with bootstrap, and
cold command-line launches.

    python3 perfbench/run.py --workload analytic-fine --seed 1 --seconds 36 --trace 0

Run from the repository root.  Each workload is a closed loop with one client
in this process: the next operation starts when the previous one has ended,
and child processes are launched one at a time.  Every operation's output is
checked against ``oracle``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` the run records spans around seqpol's functions (see
``tracing``) and reports per-layer metrics instead of end-to-end ones.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import compileall
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

# One BLAS thread here and in every process the benchmark starts.  seqpol's
# matrices are 2x2, so OpenBLAS never uses a second thread for them, but
# starting one adds 0 to 70 ms to `import numpy`, depending on how soon the
# other CPU of a 2-core virtual machine runs it; that would set setup_s.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

V_PM, V_HV, INPUT_ANGLE = 0.93, 0.9976, 67.5
THETA_MAX = 22.5
FINE_STEPS = 250
DEFAULT_STEPS = 46
N_PHOTONS = 1_000_000
BOOTSTRAP_RESAMPLES = 200
BOOTSTRAP_POINTS = range(0, DEFAULT_STEPS, 3)
# setup_s is the median of fresh `import seqpol` launches: SETUP_LAUNCHES before
# the loop and one more whenever LAUNCH_EVERY_S of the loop have passed, so
# that a slow spell of the machine at the start of a run cannot set it.
SETUP_LAUNCHES = 3
LAUNCH_EVERY_S = 4.0
CHILD_TIMEOUT_S = 120.0
# op_s_tail is the 11th-largest operation time; from 40 operations on it is
# at least the 75th percentile with ten samples beyond it.
MIN_OPERATIONS = 40
TAIL_BEYOND = 10


class Operation:
    """Outcome of one operation: its timed seconds, rows, and failure reason."""

    def __init__(self, seconds: float, rows: int, failure: str | None = None):
        self.seconds, self.rows, self.failure = seconds, rows, failure


class Run:
    """State shared by the workloads of one benchmark run."""

    def __init__(self, seed: int, workdir: Path, tracer):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.tracer = tracer
        self.layers = tracing.LayerTotals()
        self.grid_points = 0
        self.errors: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def fold_spans(self) -> None:
        if self.tracer is not None:
            self.layers.add(*self.tracer.take())

    def check(self, check, *args):
        """Run one output check; a wrong value marks the run incorrect."""
        try:
            return check(*args)
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


def run_child(command: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time and outcome of one child process, with its output captured.

    ``subprocess.run(timeout=...)`` polls for the exit at intervals that grow
    to 50 ms, which rounds a 0.2 s launch up to the next poll.  Here the wait
    blocks, and a timer kills a child that outlives CHILD_TIMEOUT_S.
    """
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env) as child:
        timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        timer.start()
        try:
            stdout, stderr = child.communicate()
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    return seconds, subprocess.CompletedProcess(command, child.returncode, stdout, stderr)


def timed_main(argv: list[str]) -> tuple[float, int]:
    from seqpol import cli

    start = time.perf_counter()
    status = cli.main(argv)
    return time.perf_counter() - start, status


def analytic_fine(run: Run) -> list[Operation]:
    """sweep (CSV), crossings (CSV), lgi (JSON) and reconstruct (JSON) on one fine grid.

    The grid starts at a seed-drawn offset below 0.05 degrees, so every
    operation sees new strengths at the same size; ``--lam`` is seed-drawn too.
    """
    theta_min = run.rng.uniform(0.0, 0.05)
    lam = run.rng.uniform(0.5, 1.0)
    grid = ["--theta-min", repr(theta_min), "--steps", str(FINE_STEPS)]
    commands = (("sweep", "csv", []), ("crossings", "csv", []), ("lgi", "json", []),
                ("reconstruct", "json", ["--lam", repr(lam)]))
    seconds, outputs = 0.0, {}
    for command, fmt, extra in commands:
        path = run.workdir / f"{command}.{fmt}"
        elapsed, status = timed_main([command, *grid, *extra, "--format", fmt, "--output", str(path)])
        seconds += elapsed
        if status != 0:
            return [Operation(seconds, 0, f"{command} exited with status {status}")]
        outputs[command] = run.check(checks.parse_rows, path.read_text(encoding="utf-8"), fmt)
        if outputs[command] is None:
            return [Operation(seconds, 0)]
    run.grid_points += len(commands) * FINE_STEPS
    theta = run.check(checks.check_grid, outputs["sweep"], theta_min, FINE_STEPS)
    if theta is None:
        return [Operation(seconds, 0)]
    model = (theta, V_PM, V_HV, INPUT_ANGLE)
    run.check(checks.check_sweep, outputs["sweep"], *model)
    failure = run.check(checks.check_crossings, outputs["crossings"], *model)
    run.check(checks.check_lgi, outputs["lgi"], *model)
    run.check(checks.check_reconstruct, outputs["reconstruct"], *model, lam)
    return [Operation(seconds, sum(len(rows) for rows in outputs.values()), failure)]


def mc_bootstrap(run: Run) -> list[Operation]:
    """``montecarlo`` at the default grid, then bootstrap errors on every third point.

    The montecarlo base seed and the bootstrap seed are drawn from the
    workload seed; point i of the grid uses base seed + i, as the command does.
    """
    from seqpol import cli, harness, instrument

    mc_seed = run.rng.randrange(2**31 - DEFAULT_STEPS)
    boot_seed = run.rng.randrange(2**31 - DEFAULT_STEPS)
    path = run.workdir / "montecarlo.json"
    start = time.perf_counter()
    status = cli.main(["montecarlo", "--seed", str(mc_seed), "--format", "json",
                       "--output", str(path)])
    if status != 0:
        return [Operation(time.perf_counter() - start, 0, f"montecarlo exited with status {status}")]
    resampled = []
    for i in BOOTSTRAP_POINTS:
        setup = instrument.SetupParams(i * THETA_MAX / (DEFAULT_STEPS - 1), V_PM, V_HV)
        record = harness.monte_carlo_counts(setup, INPUT_ANGLE, N_PHOTONS, mc_seed + i)
        errors = harness.bootstrap_standard_errors(record, BOOTSTRAP_RESAMPLES, boot_seed + i)
        resampled.append((i, record, errors))
    seconds = time.perf_counter() - start
    run.grid_points += DEFAULT_STEPS + len(resampled)
    rows = run.check(checks.parse_rows, path.read_text(encoding="utf-8"), "json")
    if rows is None:
        return [Operation(seconds, 0)]
    theta = run.check(checks.check_grid, rows, 0.0, DEFAULT_STEPS)
    if theta is not None:
        run.check(checks.check_montecarlo, rows, theta, V_PM, V_HV, INPUT_ANGLE, N_PHOTONS)
    for i, record, errors in resampled:
        run.check(checks.check_counts, record, rows[i], N_PHOTONS)
        run.check(checks.check_bootstrap, errors, rows[i]["theta_deg"], V_PM, V_HV,
                  INPUT_ANGLE, N_PHOTONS)
    return [Operation(seconds, len(rows) + len(resampled))]


# The two edge inputs fail on every run today: the first ends in a
# ZeroDivisionError traceback, the second reports a branch swap for a P
# eigenstate input.  A clean error exit (one ``error:`` line) would pass.
EDGE_INPUTS = (
    ["crossings", "--input-angle", "0", "--v-pm", "1", "--v-hv", "1"],
    ["crossings", "--input-angle", "45"],
)


def cli_cold_round(run: Run) -> list[tuple[list[str], bool]]:
    """One cycle: every command in CSV and JSON at the default grid, then the edge inputs."""
    mc_seed = str(run.rng.randrange(2**31 - DEFAULT_STEPS))
    lam = repr(run.rng.uniform(0.5, 1.0))
    extra = {"montecarlo": ["--seed", mc_seed], "reconstruct": ["--lam", lam]}
    argvs = [([command, *extra.get(command, []), "--format", fmt], False)
             for command in ("sweep", "crossings", "montecarlo", "reconstruct", "lgi")
             for fmt in ("csv", "json")]
    return argvs + [(list(argv), True) for argv in EDGE_INPUTS]


def launch(run: Run, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    if run.tracer is None:
        command = [sys.executable, "-m", "seqpol", *argv]
    else:
        spans_path = run.workdir / "spans.json"
        spans_path.unlink(missing_ok=True)  # a child that writes none must not reuse old spans
        command = [sys.executable, str(HERE / "trace_child.py"), str(spans_path), *argv]
    seconds, done = run_child(command, run.env)
    if run.tracer is not None:
        recorded = json.loads(spans_path.read_text(encoding="utf-8"))
        run.layers.add(recorded["spans"], recorded["output_bytes"])
    return seconds, done


def _option(argv: list[str], flag: str, default: float) -> float:
    return float(argv[argv.index(flag) + 1]) if flag in argv else default


ROW_CHECKS = {"sweep": checks.check_sweep, "montecarlo": checks.check_montecarlo,
              "reconstruct": checks.check_reconstruct, "lgi": checks.check_lgi}


def cold_launch(run: Run, argv: list[str], edge: bool) -> Operation:
    seconds, done = launch(run, argv)
    run.grid_points += DEFAULT_STEPS
    error_lines = done.stderr.splitlines()
    if done.returncode != 0:
        clean = (done.returncode in (1, 2) and len(error_lines) == 1
                 and error_lines[0].startswith("error:"))
        reason = None if edge and clean else (
            f"{' '.join(argv)} exited with status {done.returncode}: "
            + (error_lines[-1] if error_lines else "no message"))
        return Operation(seconds, 0, reason)
    command = argv[0]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    rows = run.check(checks.parse_rows, done.stdout, fmt)
    if rows is None:
        return Operation(seconds, 0)
    angle = _option(argv, "--input-angle", INPUT_ANGLE)
    v_pm, v_hv = _option(argv, "--v-pm", V_PM), _option(argv, "--v-hv", V_HV)
    failure = None
    if command == "crossings":
        theta = np.linspace(0.0, THETA_MAX, DEFAULT_STEPS)
        failure = run.check(checks.check_crossings, rows, theta, v_pm, v_hv, angle)
    else:
        theta = run.check(checks.check_grid, rows[::4] if command == "reconstruct" else rows,
                          0.0, DEFAULT_STEPS)
        extra = {"montecarlo": (N_PHOTONS,), "reconstruct": (_option(argv, "--lam", 1.0),)}
        if theta is not None:
            run.check(ROW_CHECKS[command], rows, theta, v_pm, v_hv, angle,
                      *extra.get(command, ()))
    return Operation(seconds, 0 if failure else len(rows), failure)


def cli_cold(run: Run) -> list[Operation]:
    """One cycle of launches; a launch that raises counts alone as failed."""
    operations = []
    for argv, edge in cli_cold_round(run):
        begun = time.perf_counter()
        try:
            operations.append(cold_launch(run, argv, edge))
        except Exception as exc:
            traceback.print_exc()
            operations.append(Operation(time.perf_counter() - begun, 0, f"raised {exc!r}"))
    return operations


WORKLOADS = {"analytic-fine": analytic_fine, "mc-bootstrap": mc_bootstrap, "cli-cold": cli_cold}
IN_PROCESS = ("analytic-fine", "mc-bootstrap")


def launch_seconds(env: dict, code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    seconds, done = run_child([sys.executable, "-c", code], env)
    done.check_returncode()
    return seconds


def end_to_end(operations: list[Operation], setup_s: float, workload: str) -> dict:
    seconds = sorted(op.seconds for op in operations)
    usage = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(seconds), "s"),
        "op_s_tail": (seconds[-TAIL_BEYOND - 1], "s"),
        "rows_per_s": (sum(op.rows for op in operations) / sum(seconds), "rows/s"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run: Run, operations: list[Operation], process: dict) -> dict:
    """Per-operation layer figures; a layer the workload never calls reads 0."""
    ops = len(operations)
    layers = run.layers

    def self_s(layer: str) -> tuple[float, str]:
        return (layers.self_s[layer] / ops, "s")

    bootstrap = ("harness", "bootstrap_standard_errors")
    resample = (bootstrap, ("harness", "estimate_from_counts"))
    resamples = layers.nested.get(resample, 0)
    bootstrap_s = layers.total_s[bootstrap]
    return {
        "algebra.calls": (layers.layer_calls("algebra") / ops, "count"),
        "algebra.self_s": self_s("algebra"),
        "instrument.self_s": self_s("instrument"),
        "instrument.povm_builds_per_point": (
            layers.calls[("instrument", "sequential_povm")] / run.grid_points, "count"),
        "analysis.operator.self_s": self_s("analysis.operator"),
        "analysis.counts.self_s": self_s("analysis.counts"),
        "harness.sweep.self_s": self_s("harness.sweep"),
        "harness.crossings.self_s": self_s("harness.crossings"),
        "harness.crossing_evals": (layers.nested.get((
            ("harness", "find_crossings"), ("instrument", "sequential_povm")), 0) / ops, "count"),
        "harness.sampling.self_s": self_s("harness.sampling"),
        "harness.estimate.self_s": self_s("harness.estimate"),
        "harness.estimate.calls": (layers.calls[("harness", "estimate_from_counts")] / ops, "count"),
        "harness.bootstrap.self_s": self_s("harness.bootstrap"),
        "harness.bootstrap.resamples_per_s": (resamples / bootstrap_s if resamples else 0.0, "1/s"),
        "cli.parse_s": self_s("cli.parse"),
        "cli.render_s": self_s("cli.render"),
        "cli.write_s": self_s("cli.emit"),
        "cli.output_bytes": (layers.output_bytes / ops, "bytes"),
        "process.interpreter_s": (process["interpreter_s"], "s"),
        "process.import_s": (process["import_s"], "s"),
        "trace.op_s_p50": (statistics.median(op.seconds for op in operations), "s"),
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    compileall.compile_dir(str(SRC), quiet=1)
    tracer = tracing.Tracer() if trace else None
    run = Run(seed, workdir, tracer)
    launches = {"import seqpol": [], "pass": []}

    def launch_round() -> None:
        for code in launches if trace else ["import seqpol"]:
            launches[code].append(launch_seconds(run.env, code))

    for _ in range(SETUP_LAUNCHES):
        launch_round()
    sys.path.insert(0, str(SRC))
    if trace:
        tracer.install()
    step = WORKLOADS[workload]
    if workload in IN_PROCESS:
        step(run)  # warm-up: first-call costs are paid before timing
        run.grid_points, run.layers = 0, tracing.LayerTotals()
        if tracer is not None:
            tracer.take()

    operations: list[Operation] = []
    start = time.perf_counter()
    next_launch = start + LAUNCH_EVERY_S
    while time.perf_counter() - start < seconds or len(operations) < MIN_OPERATIONS:
        begun = time.perf_counter()
        try:
            operations.extend(step(run))
        except Exception as exc:  # an operation that raises counts as failed
            traceback.print_exc()
            operations.append(Operation(time.perf_counter() - begun, 0, f"raised {exc!r}"))
        run.fold_spans()
        if time.perf_counter() >= next_launch:
            launch_round()
            next_launch += LAUNCH_EVERY_S
    import_s = statistics.median(launches["import seqpol"])
    failures = [op.failure for op in operations if op.failure]
    for message in sorted(set(failures)) + run.errors[:5]:
        print(message, file=sys.stderr)
    if trace:
        interpreter_s = statistics.median(launches["pass"])
        process = {"interpreter_s": interpreter_s, "import_s": import_s - interpreter_s}
        metrics = per_layer(run, operations, process)
    else:
        metrics = end_to_end(operations, import_s, workload)
    return {
        "correct": not run.errors,
        "attempted": len(operations),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "seqpol" / "__init__.py").is_file():
        print(f"error: no seqpol sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
