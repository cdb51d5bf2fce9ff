"""Run one seqpol command with spans recorded, for traced cli-cold runs.

    python3 perfbench/trace_child.py SPANS_PATH COMMAND [OPTIONS...]

Behaves like ``python3 -m seqpol COMMAND [OPTIONS...]``, including an
uncaught exception, and writes the spans and rendered output bytes to
SPANS_PATH as JSON when the command ends.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from seqpol import cli

    try:
        return cli.main(argv)
    finally:
        spans, output_bytes = tracer.take()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "output_bytes": output_bytes}, handle)


if __name__ == "__main__":
    sys.exit(main())
