"""The ``seqpol`` namespace holds the documented library, each name once.

Every other name is imported from its module; the library example of
README.md runs as written.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import seqpol

README = Path(__file__).resolve().parent.parent / "README.md"

FACADE = {
    "DichotomicObservable", "QubitState", "make_linear_polarization", "make_stokes",
    "EstimateTable", "ReconstructionConfig", "optimal_error", "ozawa_error",
    "quasi_probability", "reconstruct_correlation", "two_level_optimal_error",
    "two_level_ozawa_error", "variation_states",
    "DegenerateBranchError", "InvalidInputError", "SeqpolError", "UnresolvableOutcomeError",
    "CountRecord", "SweepConfig", "bootstrap_standard_errors", "estimate_from_counts",
    "find_crossings", "monte_carlo_counts", "run_sweep",
    "SetupParams", "outcome_probabilities", "pm_marginal_povm", "sequential_povm",
}

# Names the package namespace no longer holds, with the module that does.
MODULE_ONLY = [
    ("algebra", name) for name in (
        "IDENTITY", "TAU_ALG", "as_operator", "hermitian_eigenvalues", "expectation",
        "born_probability", "real_cross_correlation", "validate_povm", "PovmElement", "PovmSet")
] + [
    ("analysis", name) for name in (
        "ErrorReport", "QuasiProbabilityTable", "P_FLOOR", "conditional_average",
        "two_level_conditional_average", "symmetric_error_probability")
] + [
    ("harness", name) for name in ("Crossing", "default_theta_grid")
] + [
    ("instrument", name) for name in (
        "OutcomeDistribution", "OUTCOMES", "THETA_MAX_DEG", "V_PM_DEFAULT", "V_HV_DEFAULT",
        "pm_error_probability")
]


def test_the_package_exports_exactly_the_library():
    exported = {name for name, value in vars(seqpol).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == FACADE


@pytest.mark.parametrize("module_name, name", MODULE_ONLY)
def test_a_name_outside_the_library_imports_from_its_module(module_name, name):
    assert not hasattr(seqpol, name)
    assert hasattr(importlib.import_module("seqpol." + module_name), name)


def test_the_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
