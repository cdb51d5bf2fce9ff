"""Command-line surface: parses a command line into a :class:`RunConfig`, runs
the command's one :mod:`seqpol.harness` step, and writes its table as CSV or JSON.

Each setting is declared once, in ``_SETTINGS``.  Precedence for every setting:
command-line flags override config-file values, which override built-in
defaults; a number setting is checked by the rules of :mod:`seqpol.exceptions`
and named by its flag.  One text step serves both formats: numbers
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
from itertools import chain, filterfalse, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from .exceptions import InvalidInputError, SeqpolError, require_integer, require_real
from .harness import (
    _MAX_DRAWS,
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

_FORMATS = ("csv", "json")
# Every setting of a command, declared once: (type, default, lower bound, upper bound,
# help, where "{}" stands for the default).  The command's flags, the keys its config
# file may hold, its defaults and its checks all come from this table.
_COMMON = {
    "v_pm": (float, V_PM_DEFAULT, 0.0, 1.0, "interferometer visibility (default {})"),
    "v_hv": (float, V_HV_DEFAULT, 0.0, 1.0, "HV readout visibility (default {})"),
    "input_angle": (float, DEFAULT_INPUT_ANGLE_DEG, -math.inf, math.inf,
                    "input polarization angle in degrees (default {})"),
    "theta": (float, None, 0.0, THETA_MAX_DEG,
              "single strength setting; conflicts with the grid flags"),
    "theta_min": (float, 0.0, 0.0, THETA_MAX_DEG, None),
    "theta_max": (float, THETA_MAX_DEG, 0.0, THETA_MAX_DEG, None),
    # the grid is a tuple, which holds at most sys.maxsize points
    "steps": (int, 46, 1, sys.maxsize, "number of grid points (default {})"),
    "output": (str, "-", None, None, "output path, '-' for stdout"),
    "format": (str, "csv", None, None, None),
}
_SETTINGS = {
    "sweep": _COMMON,
    "crossings": _COMMON,
    "montecarlo": {
        **_COMMON,
        "n_photons": (int, 1_000_000, 1, _MAX_DRAWS, "photons per counting run (default {})"),
        "seed": (int, 12345, 0, math.inf, "base RNG seed; grid point i uses seed + i"),
    },
    "reconstruct": {
        **_COMMON,
        "lam": (float, 1.0, -math.inf, math.inf, "input-state variation parameter (default {})"),
    },
    "lgi": _COMMON,
}
_GRID_KEYS = ("theta_min", "theta_max", "steps")


class UsageError(SeqpolError):
    """Bad flags or configuration; maps to exit status 2."""


class RunConfig(NamedTuple):
    """Fully resolved invocation: one command plus every effective setting."""

    command: str
    sweep: SweepConfig
    output: str
    fmt: str
    n_photons: int | None
    seed: int | None
    lam: float | None


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
        for key, (kind, default, _, _, text) in _SETTINGS[command].items():
            p.add_argument(_flag(key), type=None if kind is str else kind, default=None,
                           choices=_FORMATS if key == "format" else None,
                           help=text and text.format(default))
    return parser


def _load_config_file(path: str, allowed: dict) -> dict:
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


def _checked(key: str, value, kind: type, lo, hi):
    """A number setting by the library's rule for ``kind``; a bad one is named by its flag."""
    if isinstance(value, bool):  # only a config file's true or false
        raise UsageError(f"{_flag(key)} must be a number, not {json.dumps(value)}")
    try:
        if kind is int:
            return require_integer(_flag(key), value, lo, hi)
        return require_real(_flag(key), value, lo, hi)
    except InvalidInputError as exc:
        raise UsageError(str(exc)) from None


def parse_config(argv=None) -> RunConfig:
    """Resolve argv plus optional config file into a validated RunConfig."""
    namespace = _build_parser().parse_args(argv)
    settings = _SETTINGS[namespace.command]
    given = {} if namespace.config is None else _load_config_file(namespace.config, settings)
    flags = vars(namespace)
    given.update((key, flags[key]) for key in settings if flags[key] is not None)

    values = {}
    for key, (kind, default, lo, hi, _) in settings.items():
        value = given.get(key, default)
        if kind is not str and not (value is None and default is None):
            value = _checked(key, value, kind, lo, hi)
        values[key] = value

    # Checks that need no grid come first: a large grid may take all the memory.
    fmt = values["format"]
    if fmt not in _FORMATS:
        raise UsageError(f"--format must be one of {', '.join(_FORMATS)}, got {fmt!r}")
    output = values["output"]
    if not isinstance(output, str) or not output or "\0" in output:
        raise UsageError(f"--output must be a non-empty path without NUL, got {output!r}")
    try:
        os.fsencode(output)
    except UnicodeEncodeError:
        raise UsageError(f"--output cannot be encoded as a path, got {output!r}") from None
    if values.get("lam") == 0.0:
        raise UsageError(f"--lam must be nonzero, got {values['lam']!r}")

    if values["theta"] is not None:
        if given.keys() & set(_GRID_KEYS):
            raise UsageError("--theta conflicts with --theta-min/--theta-max/--steps")
        grid = (values["theta"],)
    else:
        theta_min, theta_max, steps = (values[key] for key in _GRID_KEYS)
        if theta_max < theta_min:
            raise UsageError("--theta-max must not be smaller than --theta-min")
        if steps == 1:
            grid = (theta_min,)
        else:
            width = (theta_max - theta_min) / (steps - 1)
            grid = tuple(min(theta_min + i * width, theta_max) for i in range(steps))

    sweep = SweepConfig(grid, values["v_pm"], values["v_hv"], values["input_angle"])
    return RunConfig(command=namespace.command, sweep=sweep, output=output, fmt=fmt,
                     n_photons=values.get("n_photons"), seed=values.get("seed"),
                     lam=values.get("lam"))


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
