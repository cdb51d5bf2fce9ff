"""Command-line surface: parses a command line into a :class:`RunConfig`, runs
the command's one :mod:`seqpol.harness` step, and writes its table as CSV or JSON.

Precedence for every setting: command-line flags override config-file values,
which override built-in defaults.  One text step serves both formats: numbers
are written as their shortest round-trip decimals (``repr``), bools as words,
None as the format's null, and only str cells are quoted (``csv``) or escaped
(``json``).  The whole table is checked first; then its text is made and
written in blocks of ``_BLOCK_ROWS`` rows.  The same configuration (including
the seed) always gives byte-identical files.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, filterfalse, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

from .exceptions import SeqpolError
from .harness import (
    DEFAULT_INPUT_ANGLE_DEG,
    SweepConfig,
    Table,
    run_crossings,
    run_lgi,
    run_montecarlo,
    run_reconstruct,
    run_sweep,
)
from .instrument import THETA_MAX_DEG, V_HV_DEFAULT, V_PM_DEFAULT

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
_COMMAND_DEFAULTS = {"montecarlo": {"n_photons": 1_000_000, "seed": 12345},
                     "reconstruct": {"lam": 1.0}}
_GRID_KEYS = ("theta_min", "theta_max", "steps")
_MAX = sys.float_info.max


class UsageError(SeqpolError):
    """Bad flags or configuration; maps to exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: one command plus every effective setting."""

    command: str
    sweep: SweepConfig
    output: str
    fmt: str
    n_photons: int | None = None
    seed: int | None = None
    lam: float | None = None


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@functools.cache
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
    for command, description in descriptions.items():
        p = sub.add_parser(command, help=description)
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
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or an over-long integer
        raise UsageError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise UsageError(f"config file {path!r} must hold a JSON object")
    for key in values:
        if key not in allowed:
            raise UsageError(f"unknown configuration key {key!r} in {path!r}")
    return values


def _require_number(merged: dict, key: str, lo: float, hi: float) -> float:
    value = merged[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _MAX:
        raise UsageError(f"value for {_flag(key)} must be a finite number, got {value!r}")
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
    defaults.update(_COMMAND_DEFAULTS.get(command, {}))

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
            grid = tuple(min(theta_min + i * width, theta_max) for i in range(steps))

    fmt = merged["format"]
    if fmt not in ("csv", "json"):
        raise UsageError(f"value out of range for --format: {fmt!r} (allowed csv, json)")
    output = merged["output"]
    if not isinstance(output, str) or not output or "\0" in output:
        raise UsageError(f"value for --output must be a non-empty path without NUL, got {output!r}")
    try:
        os.fsencode(output)
    except UnicodeEncodeError:
        raise UsageError(f"value for --output cannot be encoded as a path: {output!r}") from None

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
        sweep=SweepConfig(grid, v_pm, v_hv, input_angle),
        output=output,
        fmt=fmt,
        n_photons=n_photons,
        seed=seed,
        lam=lam,
    )


# Each command's harness step, looked up when it runs, so a wrapper bound over the
# module attribute (as perfbench's tracing binds one) sees the call.
_TABLES = {
    "sweep": lambda config: run_sweep(config.sweep),
    "crossings": lambda config: run_crossings(config.sweep),
    "montecarlo": lambda config: run_montecarlo(config.sweep, config.n_photons, config.seed),
    "reconstruct": lambda config: run_reconstruct(config.sweep, config.lam),
    "lgi": lambda config: run_lgi(config.sweep),
}


def run(config: RunConfig) -> Table:
    """Execute the resolved command; returns its table, one list per column in output order."""
    return _TABLES[config.command](config)


# Rows per block of text; each block is made and written before the next one.
_BLOCK_ROWS = 4096

# csv quotes a str cell: writerow returns what ``write`` returns, here the line.
# The empty second field stops csv quoting an empty cell, as it does a lone one.
_csv_line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
# Each cell's text by its type; only str cells are quoted (CSV) or escaped (JSON).
_BASE_TEXT = {float: repr, int: repr, bool: lambda value: "true" if value else "false"}
_CSV_TEXT = {**_BASE_TEXT, type(None): lambda _: "", str: lambda text: _csv_line((text, ""))[:-2]}
_JSON_TEXT = {**_BASE_TEXT, type(None): lambda _: "null", str: encode_basestring_ascii}


def _texts(column: list, text: dict) -> list[str]:
    if set(map(type, column)) <= {float, int}:
        return list(map(repr, column))
    return [text[type(value)](value) for value in column]


def _csv_rows(columns: list[list]) -> str:
    texts = [_texts(column, _CSV_TEXT) for column in columns]
    if len(texts) == 1:  # csv writes a row of one empty field as "", not as a blank line
        texts = [[text or '""' for text in texts[0]]]
    return "\n".join(map(",".join, zip(*texts))) + "\n"


def _json_rows(separators: list[str], columns: list[list]) -> str:
    """Rows ``,\\n  {\\n    "key": cell,\\n    ...\\n  }``: separators interleaved with cells."""
    parts = chain.from_iterable((repeat(separator), _texts(column, _JSON_TEXT))
                                for separator, column in zip(separators, columns))
    return "".join(chain.from_iterable(zip(*parts, repeat("\n  }"))))


def _all_finite(column: list) -> bool:  # also False when finite floats sum past the range
    try:
        return math.isfinite(sum(column))
    except (TypeError, OverflowError):  # None, str or an int beyond the float range
        return math.isfinite(sum(value for value in column if type(value) is float))


def _text(table: Table, fmt: str) -> Iterator[str]:
    """The table's text in ``fmt``, made one block of ``_BLOCK_ROWS`` rows at a time.

    The whole table is checked in this call, before any block is made: JSON has
    no form for a NaN or infinity, and the error names the first in row order.
    """
    columns = list(table.values())
    blocks = ([column[start:start + _BLOCK_ROWS] for column in columns]
              for start in range(0, len(columns[0]) if columns else 0, _BLOCK_ROWS))
    if fmt == "csv":
        return chain([_csv_rows([[key] for key in table])], map(_csv_rows, blocks))
    for value in chain.from_iterable(zip(*filterfalse(_all_finite, columns))):
        if isinstance(value, float) and not math.isfinite(value):
            raise SeqpolError("cannot write JSON: Out of range float values are not JSON "
                              f"compliant: {value!r}")
    if not columns or not columns[0]:
        return iter(["[]\n"])
    separators = [f",\n    {encode_basestring_ascii(key)}: " for key in table]
    separators[0] = ",\n  {" + separators[0][1:]
    rows = map(functools.partial(_json_rows, separators), blocks)
    return chain(["["], (next(rows)[1:],), rows, ["\n]\n"])  # "[" replaces the first ","


def render_csv(table: Table) -> str:
    return "".join(_text(table, "csv"))


def render_json(table: Table) -> str:
    """JSON text in the layout of ``json.dumps(rows, indent=2)``; a NaN or infinity is an error."""
    return "".join(_text(table, "json"))


def emit(table: Table, fmt: str, path: str) -> None:
    """Write a table as CSV or JSON to a path, or to stdout for '-'.

    The whole table is checked before the first write, so a value JSON cannot
    hold leaves no file; then each block is written as soon as its text is made.
    """
    blocks = _text(table, fmt)
    with nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8") as out:
        out.writelines(blocks)


def main(argv=None) -> int:
    """Run one command line; a failure is one ``error:`` line and exit status 2 or 1."""
    try:
        config = parse_config(argv)
        emit(run(config), config.fmt, config.output)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SeqpolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
