"""The functions that ``perfbench/tracing.py`` wraps under ``--trace 1`` exist.

The tracer looks each ``(module, function)`` of its ``LAYERS`` up by name, so
a renamed or moved function would break only a traced benchmark run.  The
file is loaded by path and only read: nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [name for members in tracing.LAYERS.values() for name in members]
    assert names
    for module_name, function_name in names:
        module = importlib.import_module("seqpol." + module_name)
        assert hasattr(module, function_name), (module_name, function_name)
