"""Command-line surface: sweeps, crossings, Monte Carlo runs, reconstruction
checks, and the quasi-probability diagnostic, emitted as CSV or JSON.

Precedence for every setting: command-line flags override config-file values,
which override built-in defaults.  Output is bit-stable: the same
configuration (including the seed) always produces byte-identical files.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .algebra import born_probability, expectation, make_linear_polarization, make_stokes
from .analysis import (
    ReconstructionConfig,
    conditional_average,
    outcome_terms,
    quasi_probability,
    reconstruct_correlation,
    variation_states,
)
from .exceptions import SeqpolError, UnresolvableOutcomeError
from .harness import (
    DEFAULT_INPUT_ANGLE_DEG,
    SweepConfig,
    estimate_from_counts,
    find_crossings,
    monte_carlo_counts,
    row_as_dict,
    run_sweep,
)
from .instrument import (
    OUTCOMES,
    SetupParams,
    THETA_MAX_DEG,
    V_HV_DEFAULT,
    V_PM_DEFAULT,
    sequential_povm,
)

SWEEP_COLUMNS = [
    "theta_deg", "p_error",
    "p_pp", "p_pm", "p_mp", "p_mm",
    "aopt_m1_plus", "aopt_m1_minus",
    "aopt_pp", "aopt_pm", "aopt_mp", "aopt_mm",
    "eps_eigen", "eps_opt_m1", "eps_opt_m1m2",
]
CROSSING_COLUMNS = ["description", "theta_deg"]
RECONSTRUCT_COLUMNS = [
    "theta_deg", "lam", "m1", "m2", "p_outcome",
    "corr_reconstructed", "corr_direct", "abs_diff", "a_opt",
]
LGI_COLUMNS = [
    "theta_deg",
    "q_plus_pp", "q_plus_pm", "q_plus_mp", "q_plus_mm",
    "q_minus_pp", "q_minus_pm", "q_minus_mp", "q_minus_mm",
    "negativity",
]

_COMMANDS = ("sweep", "crossings", "montecarlo", "reconstruct", "lgi")

_COMMON_DEFAULTS = {
    "v_pm": V_PM_DEFAULT,
    "v_hv": V_HV_DEFAULT,
    "input_angle": DEFAULT_INPUT_ANGLE_DEG,
    "theta": None,
    "theta_min": 0.0,
    "theta_max": THETA_MAX_DEG,
    "steps": 46,
    "output": "-",
    "format": "csv",
}
_COMMAND_DEFAULTS = {
    "sweep": {},
    "crossings": {},
    "lgi": {},
    "montecarlo": {"n_photons": 1_000_000, "seed": 12345},
    "reconstruct": {"lam": 1.0},
}
_GRID_KEYS = ("theta_min", "theta_max", "steps")


class UsageError(SeqpolError):
    """Bad flags or configuration; maps to exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: one command plus every effective setting."""

    command: str
    theta_grid: tuple[float, ...]
    v_pm: float
    v_hv: float
    input_angle_deg: float
    output: str
    fmt: str
    n_photons: int | None = None
    seed: int | None = None
    lam: float | None = None


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqpol",
        description="Sequential variable-strength polarization measurement toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "sweep": "analytic sweep of estimates and errors over measurement strength",
        "crossings": "locate the characteristic crossing points of the estimates",
        "montecarlo": "finite-statistics sweep estimated from simulated photon counts",
        "reconstruct": "compare probability reconstruction against the operator product",
        "lgi": "quasi-probability table with a negativity flag per strength",
    }
    for command in _COMMANDS:
        p = sub.add_parser(command, help=descriptions[command])
        p.add_argument("--config", default=None, help="JSON file with key/value settings")
        p.add_argument("--v-pm", dest="v_pm", type=float, default=None,
                       help=f"interferometer visibility (default {V_PM_DEFAULT})")
        p.add_argument("--v-hv", dest="v_hv", type=float, default=None,
                       help=f"HV readout visibility (default {V_HV_DEFAULT})")
        p.add_argument("--input-angle", dest="input_angle", type=float, default=None,
                       help=f"input polarization angle in degrees (default {DEFAULT_INPUT_ANGLE_DEG})")
        p.add_argument("--theta", dest="theta", type=float, default=None,
                       help="single strength setting; conflicts with the grid flags")
        p.add_argument("--theta-min", dest="theta_min", type=float, default=None)
        p.add_argument("--theta-max", dest="theta_max", type=float, default=None)
        p.add_argument("--steps", dest="steps", type=int, default=None,
                       help="number of grid points (default 46)")
        p.add_argument("--output", default=None, help="output path, '-' for stdout")
        p.add_argument("--format", dest="format", default=None, choices=("csv", "json"))
        if command == "montecarlo":
            p.add_argument("--n-photons", dest="n_photons", type=int, default=None,
                           help="photons per counting run (default 1000000)")
            p.add_argument("--seed", dest="seed", type=int, default=None,
                           help="base RNG seed; grid point i uses seed + i")
        if command == "reconstruct":
            p.add_argument("--lam", dest="lam", type=float, default=None,
                           help="input-state variation parameter (default 1.0)")
    return parser


def _load_config_file(path: str, allowed: set[str]) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
        values = json.loads(raw)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise UsageError(f"config file {path!r} must hold a JSON object")
    for key in values:
        if key not in allowed:
            raise UsageError(f"unknown configuration key {key!r} in {path!r}")
    return values


def _require_number(merged: dict, key: str, lo: float, hi: float) -> float:
    value = merged[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise UsageError(f"value for {_flag(key)} must be a number, got {value!r}")
    if not lo <= value <= hi:
        raise UsageError(f"value out of range for {_flag(key)}: {value!r} (allowed [{lo}, {hi}])")
    return float(value)


def _require_int(merged: dict, key: str, lo: int) -> int:
    value = merged[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"value for {_flag(key)} must be an integer, got {value!r}")
    if value < lo:
        raise UsageError(f"value out of range for {_flag(key)}: {value!r} (minimum {lo})")
    return value


def parse_config(argv=None) -> RunConfig:
    """Resolve argv plus optional config file into a validated RunConfig."""
    namespace = _build_parser().parse_args(argv)
    command = namespace.command
    defaults = dict(_COMMON_DEFAULTS)
    defaults.update(_COMMAND_DEFAULTS[command])

    merged = dict(defaults)
    explicit: set[str] = set()
    if namespace.config is not None:
        file_values = _load_config_file(namespace.config, set(defaults))
        merged.update(file_values)
        explicit.update(file_values)
    for key in defaults:
        value = getattr(namespace, key, None)
        if value is not None:
            merged[key] = value
            explicit.add(key)

    v_pm = _require_number(merged, "v_pm", 0.0, 1.0)
    v_hv = _require_number(merged, "v_hv", 0.0, 1.0)
    input_angle = _require_number(merged, "input_angle", -math.inf, math.inf)

    if merged["theta"] is not None:
        if explicit & set(_GRID_KEYS):
            raise UsageError("--theta conflicts with --theta-min/--theta-max/--steps")
        grid = (_require_number(merged, "theta", 0.0, THETA_MAX_DEG),)
    else:
        theta_min = _require_number(merged, "theta_min", 0.0, THETA_MAX_DEG)
        theta_max = _require_number(merged, "theta_max", 0.0, THETA_MAX_DEG)
        steps = _require_int(merged, "steps", 1)
        if theta_max < theta_min:
            raise UsageError("--theta-max must not be smaller than --theta-min")
        if steps == 1:
            grid = (theta_min,)
        else:
            width = (theta_max - theta_min) / (steps - 1)
            grid = tuple(theta_min + i * width for i in range(steps))

    fmt = merged["format"]
    if fmt not in ("csv", "json"):
        raise UsageError(f"value out of range for --format: {fmt!r} (allowed csv, json)")
    output = merged["output"]
    if not isinstance(output, str) or not output:
        raise UsageError(f"value for --output must be a non-empty path, got {output!r}")

    n_photons = seed = lam = None
    if command == "montecarlo":
        n_photons = _require_int(merged, "n_photons", 1)
        seed = _require_int(merged, "seed", 0)
    if command == "reconstruct":
        lam = _require_number(merged, "lam", -math.inf, math.inf)
        if lam == 0.0:
            raise UsageError("value out of range for --lam: must be nonzero")

    return RunConfig(
        command=command,
        theta_grid=grid,
        v_pm=v_pm,
        v_hv=v_hv,
        input_angle_deg=input_angle,
        output=output,
        fmt=fmt,
        n_photons=n_photons,
        seed=seed,
        lam=lam,
    )


def _sweep_records(config: RunConfig) -> list[dict]:
    rows = run_sweep(SweepConfig(config.theta_grid, config.v_pm, config.v_hv,
                                 config.input_angle_deg))
    return [row_as_dict(row) for row in rows]


def _montecarlo_records(config: RunConfig) -> list[dict]:
    records = []
    for index, theta in enumerate(config.theta_grid):
        counts = monte_carlo_counts(
            SetupParams(theta, config.v_pm, config.v_hv),
            input_angle_deg=config.input_angle_deg,
            n_photons=config.n_photons,
            rng_seed=config.seed + index,
        )
        records.append(row_as_dict(estimate_from_counts(counts)))
    return records


def _crossing_records(config: RunConfig) -> list[dict]:
    crossings = find_crossings(SweepConfig(config.theta_grid, config.v_pm, config.v_hv,
                                           config.input_angle_deg))
    return [{"description": c.description, "theta_deg": c.theta_deg} for c in crossings]


def _reconstruct_records(config: RunConfig) -> list[dict]:
    psi = make_linear_polarization(config.input_angle_deg)
    target = make_stokes("PM")
    reconstruction = ReconstructionConfig(config.lam)
    plus_state, minus_state = variation_states(psi, target, reconstruction)
    mean_a = expectation(psi, target.op)
    mean_a2 = expectation(psi, target.op @ target.op)
    records = []
    for theta in config.theta_grid:
        povm = sequential_povm(SetupParams(theta, config.v_pm, config.v_hv))
        terms = outcome_terms(psi, povm, target)
        for element in povm.elements:
            reconstructed = reconstruct_correlation(
                born_probability(plus_state, element),
                born_probability(minus_state, element),
                mean_a,
                mean_a2,
                reconstruction,
            )
            p_outcome, direct = terms[element.label]
            try:
                a_opt = conditional_average(direct, p_outcome, outcome=element.label)
            except UnresolvableOutcomeError:
                a_opt = None
            m1, m2 = element.label
            records.append({
                "theta_deg": theta,
                "lam": config.lam,
                "m1": m1,
                "m2": m2,
                "p_outcome": p_outcome,
                "corr_reconstructed": reconstructed,
                "corr_direct": direct,
                "abs_diff": abs(reconstructed - direct),
                "a_opt": a_opt,
            })
    return records


def _lgi_records(config: RunConfig) -> list[dict]:
    psi = make_linear_polarization(config.input_angle_deg)
    target = make_stokes("PM")
    records = []
    for theta in config.theta_grid:
        povm = sequential_povm(SetupParams(theta, config.v_pm, config.v_hv))
        table = quasi_probability(psi, povm, target)
        record = {"theta_deg": theta}
        for sign, prefix in ((1, "q_plus_"), (-1, "q_minus_")):
            for outcome, suffix in zip(OUTCOMES, ("pp", "pm", "mp", "mm")):
                record[prefix + suffix] = table.entries[(sign, outcome)]
        record["negativity"] = table.negativity_present
        records.append(record)
    return records


def run(config: RunConfig) -> tuple[list[str], list[dict]]:
    """Execute the resolved command; returns (column order, row records)."""
    if config.command == "sweep":
        return SWEEP_COLUMNS, _sweep_records(config)
    if config.command == "montecarlo":
        return SWEEP_COLUMNS, _montecarlo_records(config)
    if config.command == "crossings":
        return CROSSING_COLUMNS, _crossing_records(config)
    if config.command == "reconstruct":
        return RECONSTRUCT_COLUMNS, _reconstruct_records(config)
    if config.command == "lgi":
        return LGI_COLUMNS, _lgi_records(config)
    raise UsageError(f"unknown command {config.command!r}")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(records: list[dict], header: list[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        writer.writerow([_cell(record[key]) for key in header])
    return buffer.getvalue()


def render_json(records: list[dict], header: list[str]) -> str:
    ordered = [{key: record[key] for key in header} for record in records]
    return json.dumps(ordered, indent=2) + "\n"


def emit(records: list[dict], header: list[str], fmt: str, path: str) -> None:
    """Write rows as CSV or JSON to a path, or to stdout for '-'.

    Floats are rendered as their shortest round-trip decimals and unresolvable
    cells come out empty (CSV) or null (JSON), so identical configurations
    yield byte-identical artifacts.
    """
    text = render_csv(records, header) if fmt == "csv" else render_json(records, header)
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        header, records = run(config)
        emit(records, header, config.fmt, config.output)
    except (SeqpolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
