"""Spans around seqpol's public functions, installed from outside the package.

``install`` wraps the functions named in ``LAYERS`` and rebinds every seqpol
module attribute that refers to them, because ``harness`` and ``cli`` import
functions by name.  Each wrapped call appends one span (function index,
start, end, parent span) to ``Tracer.spans``; nothing is written until the
caller asks for it.  Self time is a span's duration minus the durations of
its direct children, which cover disjoint parts of it in a single thread.
"""

import importlib
import time

# Layer name -> the functions whose self time it sums, as (module, function).
LAYERS = {
    "algebra": [("algebra", f) for f in (
        "make_linear_polarization", "make_stokes", "born_probability",
        "real_cross_correlation", "expectation", "validate_povm")],
    "instrument": [("instrument", f) for f in (
        "sequential_povm", "pm_marginal_povm", "outcome_probabilities", "pm_error_probability")],
    "analysis.operator": [("analysis", f) for f in (
        "optimal_error", "ozawa_error", "conditional_average", "quasi_probability",
        "variation_states", "reconstruct_correlation")],
    "analysis.counts": [("analysis", f) for f in (
        "two_level_conditional_average", "two_level_optimal_error",
        "two_level_ozawa_error", "symmetric_error_probability")],
    "harness.sweep": [("harness", "run_sweep"), ("harness", "analytic_row")],
    "harness.crossings": [("harness", "find_crossings")],
    "harness.sampling": [("harness", "monte_carlo_counts")],
    "harness.estimate": [("harness", "estimate_from_counts")],
    "harness.bootstrap": [("harness", "bootstrap_standard_errors")],
    "cli.parse": [("cli", "parse_config")],
    "cli.render": [("cli", "render_csv"), ("cli", "render_json")],
    "cli.emit": [("cli", "emit")],
}
FUNCTIONS = [name for members in LAYERS.values() for name in members]
LAYER_OF = [layer for layer, members in LAYERS.items() for _ in members]
MODULES = ("algebra", "instrument", "analysis", "harness", "cli")


class Tracer:
    """Span store for one process; ``spans`` holds [index, start, end, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self.output_bytes = 0
        self._stack: list[int] = []

    def wrap(self, index: int, function, counts_bytes: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts_bytes:
                self.output_bytes += len(result.encode("utf-8"))
            return result

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        """Rebind every seqpol module attribute that names a traced function."""
        modules = [importlib.import_module("seqpol")] + [
            importlib.import_module("seqpol." + name) for name in MODULES
        ]
        for index, (module_name, function_name) in enumerate(FUNCTIONS):
            original = getattr(importlib.import_module("seqpol." + module_name), function_name)
            wrapper = self.wrap(index, original, function_name.startswith("render_"))
            for module in modules:
                for attribute, value in vars(module).items():
                    if value is original:
                        setattr(module, attribute, wrapper)

    def take(self) -> tuple[list[list], int]:
        """Hand over the spans and output bytes recorded so far and start afresh."""
        spans, self.spans[:] = list(self.spans), []
        output_bytes, self.output_bytes = self.output_bytes, 0
        return spans, output_bytes


class LayerTotals:
    """Self times and counts folded from spans, summed over operations.

    ``nested[(parent, child)]`` counts calls of ``child`` made directly from
    ``parent``, e.g. gap evaluations inside ``find_crossings``.
    """

    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {name: 0 for name in FUNCTIONS}
        self.total_s = {name: 0.0 for name in FUNCTIONS}
        self.nested: dict[tuple, int] = {}
        self.output_bytes = 0

    def add(self, spans: list[list], output_bytes: int = 0) -> None:
        child_s = [0.0] * len(spans)
        for index, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for position, (index, start, end, parent) in enumerate(spans):
            name = FUNCTIONS[index]
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[LAYER_OF[index]] += end - start - child_s[position]
            if parent >= 0:
                key = (FUNCTIONS[spans[parent][0]], name)
                self.nested[key] = self.nested.get(key, 0) + 1
        self.output_bytes += output_bytes

    def layer_calls(self, layer: str) -> int:
        return sum(self.calls[name] for name in LAYERS[layer])
