"""SHA-256 digests of the CLI's output on 400 fixed command lines.

Every command runs in process through ``cli.main``; its stdout, its stderr
and its exit status are pinned in ``golden_outputs.json``.  The lines cover
the five commands (``montecarlo`` at 10^5 photons), four visibility pairs,
five input angles, two grids and both formats.  Floats are written as their
shortest round-trip decimals, so a digest moves with any change of the last
bit of any cell.

The file records the numpy version it was written with; on another version
the test fails and names both.  Regenerate the file only by hand,

    PYTHONPATH=src python tests/test_golden.py --write

and record the regeneration and the drift it pins in CHANGES.md.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from seqpol.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")

COMMANDS = (
    ("sweep",),
    ("crossings",),
    ("montecarlo", "--n-photons", "100000"),
    ("reconstruct",),
    ("lgi",),
)
VISIBILITIES = (
    (),
    ("--v-pm", "1", "--v-hv", "1"),
    ("--v-pm", "0", "--v-hv", "1"),
    ("--v-pm", "0.5", "--v-hv", "0"),
)
ANGLES = ((), ("--input-angle", "45"), ("--input-angle", "0"), ("--input-angle", "90"),
          ("--input-angle", "10"))
GRIDS = ((), ("--theta-min", "0.013", "--steps", "250"))
FORMATS = (("--format", "csv"), ("--format", "json"))


def command_lines() -> list[list[str]]:
    return [
        [*command, *visibilities, *angle, *grid, *fmt]
        for command, visibilities, angle, grid, fmt in itertools.product(
            COMMANDS, VISIBILITIES, ANGLES, GRIDS, FORMATS
        )
    ]


def digest(argv: list[str]) -> dict:
    """Exit status and SHA-256 of stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return {
        "status": status,
        "stdout": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    }


def _load() -> dict:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["numpy"] != np.__version__:
        pytest.fail(
            f"golden digests were written with numpy {golden['numpy']}, "
            f"this run uses numpy {np.__version__}"
        )
    return golden["digests"]


def test_covers_every_command_line():
    assert list(_load()) == [" ".join(argv) for argv in command_lines()]


@pytest.mark.parametrize("command", [command[0] for command in COMMANDS])
def test_output_bytes_are_unchanged(command):
    golden = _load()
    changed = [
        line for line in (" ".join(argv) for argv in command_lines())
        if line.split()[0] == command and digest(line.split()) != golden[line]
    ]
    assert not changed, f"{len(changed)} command lines changed, first: {changed[0]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    digests = {" ".join(argv): digest(argv) for argv in command_lines()}
    text = json.dumps({"numpy": np.__version__, "digests": digests}, indent=1)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
