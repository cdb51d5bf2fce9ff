"""The number rules at every library entry point that takes a number.

A value that is not a finite real number (or, for a photon count, a number of
draws or a seed, not an integer; for an operator or state entry, not a complex
number) ends in an ``InvalidInputError``, never in a bare
``OverflowError``, ``ValueError`` or ``TypeError``, and a numpy scalar counts
as the Python number of its value.  A sequence or an array follows the real
rule entry by entry, and its first bad entry is named.
"""

import dataclasses
import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpol import (
    CountRecord,
    DichotomicObservable,
    EstimateTable,
    InvalidInputError,
    QubitState,
    ReconstructionConfig,
    SetupParams,
    SweepConfig,
    bootstrap_standard_errors,
    make_linear_polarization,
    monte_carlo_counts,
    reconstruct_correlation,
    two_level_optimal_error,
    two_level_ozawa_error,
)
from seqpol.algebra import as_operator
from seqpol.analysis import (calibrated_columns, conditional_average, error_report, quasi_entries,
                             symmetric_confusion, symmetric_error_probability)
from seqpol.exceptions import require_real, require_reals
from seqpol.instrument import OUTCOMES, OutcomeDistribution, effect_stack, pm_error_probabilities

# By test id.  10**400 and -10**5000 lie past the float range, and repr fails on the second.
HOSTILE_REALS = {"10**400": 10**400, "-10**5000": -(10**5000), "str": "0.5", "None": None,
                 "complex": 1j, "nan": math.nan}
HOSTILE_INTEGERS = {"-10**5000": -(10**5000), "str": "1", "None": None, "float": 1.0,
                    "bool": True}

COUNTS = dict.fromkeys(OUTCOMES, 250)
EIGENSTATE = {1: (0.9, 0.1), -1: (0.1, 0.9)}
HALF = np.array([0.5])


def _record(**fields):
    arguments = dict(setup=SetupParams(5.0), input_angle_deg=67.5, n_photons=1000, rng_seed=0,
                     counts_psi=COUNTS, counts_plus=COUNTS, counts_minus=COUNTS)
    return CountRecord(**{**arguments, **fields})


REAL_ENTRIES = {
    "SetupParams theta_deg": lambda x: SetupParams(x),
    "SetupParams v_pm": lambda x: SetupParams(5.0, x),
    "SetupParams v_hv": lambda x: SetupParams(5.0, 0.93, x),
    "effect_stack theta_grid": lambda x: effect_stack([1.0, x], 0.93, 0.9976),
    "effect_stack v_pm": lambda x: effect_stack([1.0], x, 0.9976),
    "effect_stack v_hv": lambda x: effect_stack([1.0], 0.93, x),
    "SweepConfig theta_grid": lambda x: SweepConfig((1.0, x)),
    "SweepConfig input_angle_deg": lambda x: SweepConfig(input_angle_deg=x),
    "make_linear_polarization": make_linear_polarization,
    "ReconstructionConfig": ReconstructionConfig,
    "reconstruct_correlation p_plus": lambda x: reconstruct_correlation(
        x, 0.5, 0.0, 1.0, ReconstructionConfig(1.0)),
    "reconstruct_correlation mean_a": lambda x: reconstruct_correlation(
        0.5, 0.5, x, 1.0, ReconstructionConfig(1.0)),
    "EstimateTable": lambda x: EstimateTable({1: x, -1: 0.5}),
    "OutcomeDistribution": lambda x: OutcomeDistribution({**dict.fromkeys(OUTCOMES, 0.25),
                                                          (1, 1): x}),
    "calibrated_columns": lambda x: calibrated_columns(HALF, HALF, HALF, x, 0.5),
    "conditional_average correlation": lambda x: conditional_average(x, 0.5),
    "conditional_average p_m": lambda x: conditional_average(0.1, x),
    "pm_error_probabilities theta_grid": lambda x: pm_error_probabilities([1.0, x], 0.5),
    "pm_error_probabilities v_pm": lambda x: pm_error_probabilities([1.0], x),
    "two_level_optimal_error P(m)": lambda x: two_level_optimal_error(
        {1: x, -1: 0.5}, EIGENSTATE, 0.5, 0.5),
    "two_level_optimal_error P(m|+)": lambda x: two_level_optimal_error(
        {1: 0.5, -1: 0.5}, {**EIGENSTATE, 1: (x, 0.1)}, 0.5, 0.5),
    "two_level_optimal_error weight": lambda x: two_level_optimal_error(
        {1: 0.5, -1: 0.5}, EIGENSTATE, 0.5, x),
    "symmetric_error_probability": lambda x: symmetric_error_probability(x, 0.1),
    "CountRecord input_angle_deg": lambda x: _record(input_angle_deg=x),
    "monte_carlo_counts input_angle_deg": lambda x: monte_carlo_counts(
        SetupParams(5.0), x, 10, 1),
}

INTEGER_ENTRIES = {
    "monte_carlo_counts n_photons": lambda x: monte_carlo_counts(SetupParams(5.0), 67.5, x, 1),
    "monte_carlo_counts rng_seed": lambda x: monte_carlo_counts(SetupParams(5.0), 67.5, 10, x),
    "CountRecord n_photons": lambda x: _record(n_photons=x),
    "CountRecord rng_seed": lambda x: _record(rng_seed=x),
    "CountRecord counts": lambda x: _record(counts_plus={**COUNTS, (1, 1): x}),
    "bootstrap_standard_errors n_resamples": lambda x: bootstrap_standard_errors(_record(), x, 1),
    "bootstrap_standard_errors rng_seed": lambda x: bootstrap_standard_errors(_record(), 20, x),
}


def _cases(entries: dict, values: dict) -> list:
    # None is an EstimateTable's mark of an unresolvable outcome, so it is valid there.
    return [pytest.param(call, value, id=f"{entry}-{label}")
            for entry, call in entries.items() for label, value in values.items()
            if not (entry == "EstimateTable" and value is None)]


@pytest.mark.parametrize("call, value", _cases(REAL_ENTRIES, HOSTILE_REALS))
def test_a_real_input_rejects_what_is_not_a_finite_real_number(call, value):
    with pytest.raises(InvalidInputError):
        call(value)


@pytest.mark.parametrize("call, value", _cases(INTEGER_ENTRIES, HOSTILE_INTEGERS))
def test_an_integer_input_rejects_what_is_not_an_integer(call, value):
    with pytest.raises(InvalidInputError):
        call(value)


# Operator and state-vector entries go through one complex conversion.
COMPLEX_ENTRIES = {
    "as_operator": lambda x: as_operator([[x, 0], [0, 1]]),
    "DichotomicObservable": lambda x: DichotomicObservable([[x, 0], [0, -1]]),
    "QubitState.pure": lambda x: QubitState.pure([x, 0]),
    "QubitState vector": lambda x: QubitState(np.diag([1.0, 0.0]), vector=[x, 0]),
    "QubitState density": lambda x: QubitState([[x, 0], [0, 0]]),
}
# numpy would parse a numeric string or bytes entry as a number
HOSTILE_COMPLEX = {"10**400": 10**400, "-10**5000": -(10**5000), "str": "x", "dict": {},
                   "ragged": [1, 2], "numeric str": "1", "complex str": "1+0j", "bytes": b"1"}


@pytest.mark.parametrize("call, value", _cases(COMPLEX_ENTRIES, HOSTILE_COMPLEX))
def test_an_entry_that_is_not_a_complex_number_is_named(call, value):
    with pytest.raises(InvalidInputError, match=" must be complex numbers, got "):
        call(value)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: QubitState.pure(np.array(["1", "0"])), id="str array"),
    pytest.param(lambda: QubitState(np.array([[b"1", b"0"], [b"0", b"0"]])), id="bytes array"),
])
def test_a_numpy_string_array_is_not_numbers(call):
    with pytest.raises(InvalidInputError, match=" must be complex numbers, got "):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: as_operator(np.eye(3)), "expected a 2x2 operator, got shape (3, 3)"),
    (lambda: as_operator([[math.nan, 0], [0, 1]]), "operator entries must be finite"),
    (lambda: QubitState.pure([1, 0, 0]), "expected a 2-vector, got shape (3,)"),
    (lambda: QubitState.pure([math.inf, 0]), "state amplitudes must be finite"),
    (lambda: QubitState(np.diag([1.0, 0.0]), vector=[math.inf, 0]),
     "state vector must be a finite 2-vector"),
])
def test_shape_and_finiteness_keep_their_messages(call, message):
    with pytest.raises(InvalidInputError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_pm_error_probabilities_checks_the_ranges():
    with pytest.raises(InvalidInputError, match=r"^theta_deg must lie in \[0, 22.5\] degrees"):
        pm_error_probabilities([99.0], 0.5)
    with pytest.raises(InvalidInputError, match=r"^v_pm must lie in \[0, 1\]"):
        pm_error_probabilities([1.0], 1.5)


def test_resamples_are_capped_at_a_c_long_as_photons_are():
    for call in (INTEGER_ENTRIES["bootstrap_standard_errors n_resamples"],
                 INTEGER_ENTRIES["CountRecord n_photons"]):
        with pytest.raises(InvalidInputError, match=r"must lie in \[\d, 9223372036854775807\]"):
            call(10**400)


def test_a_rejected_value_too_long_to_print_is_named_by_its_type():
    with pytest.raises(InvalidInputError) as excinfo:
        monte_carlo_counts(SetupParams(5.0), 67.5, 10, -(10**5000))
    assert str(excinfo.value) == (
        "rng_seed must be an integer of at least 0, got <int too long to print>")


def _field_types(value) -> list:
    """The types of the stored fields of a settings object, a grid's entry by entry."""
    stored = [getattr(value, field.name) for field in dataclasses.fields(value)]
    return [type(x) for item in stored for x in (item if isinstance(item, tuple) else (item,))]


# Each twin is built from Python numbers, the settings as floats.
@pytest.mark.parametrize("built, twin", [
    (lambda: SetupParams(np.float32(1.5), np.float32(0.5), np.int64(1)),
     lambda: SetupParams(1.5, 0.5, 1.0)),
    (lambda: SweepConfig(input_angle_deg=np.int64(45)),
     lambda: SweepConfig(input_angle_deg=45.0)),
    (lambda: SweepConfig((np.float32(2.5), True), np.int64(1), v_hv=np.float64(0.5)),
     lambda: SweepConfig((2.5, 1.0), 1.0, v_hv=0.5)),
    (lambda: ReconstructionConfig(np.float32(0.5)), lambda: ReconstructionConfig(0.5)),
    (lambda: _record(input_angle_deg=np.int64(67), n_photons=np.int64(1000),
                     rng_seed=np.uint8(3)),
     lambda: _record(input_angle_deg=67.0, n_photons=1000, rng_seed=3)),
])
def test_numpy_scalars_are_stored_as_the_python_numbers_of_their_values(built, twin):
    built, twin = built(), twin()
    assert repr(built) == repr(twin)
    assert _field_types(built) == _field_types(twin)


@pytest.mark.parametrize("eigenstate_probs", [
    {1: (0.9, 0.1, 0.0), -1: (0.1, 0.9)},
    {1: (0.9, 0.1, 0.0), -1: (0.1, 0.9, 0.0)},
    {1: 0.9, -1: (0.1, 0.9)},
])
def test_an_eigenstate_entry_that_is_not_a_pair_names_its_outcome(eigenstate_probs):
    outcome_probs = {1: 0.5, -1: 0.5}
    for call in (
        lambda: two_level_optimal_error(outcome_probs, eigenstate_probs, 0.5, 0.5),
        lambda: two_level_ozawa_error(outcome_probs, eigenstate_probs, 0.5, 0.5,
                                      EstimateTable({1: 1.0, -1: -1.0})),
    ):
        with pytest.raises(InvalidInputError,
                           match=r"^outcome 1 needs a \(P\(m\|\+\), P\(m\|-\)\) pair, got "):
            call()


# Two-entry inputs with one bad entry, by test id: the input, the bad entry as an array
# names it (by its Python value) and as a table holds it.
ARRAY_INPUTS = {
    "str array": (np.array(["0.5", "0.25"]), "'0.5'", "np.str_('0.5')"),
    "object array holding a str": (np.array([0.5, "0.25"], dtype=object), "'0.25'", "'0.25'"),
    "complex array": (np.array([0.5, 0.25j]), "(0.5+0j)", "np.complex128(0.5+0j)"),
    "nan": (np.array([0.5, math.nan]), "nan", "np.float64(nan)"),
    "inf": (np.array([0.5, math.inf]), "inf", "np.float64(inf)"),
    "-inf": (np.array([0.5, -math.inf]), "-inf", "np.float64(-inf)"),
    "out of range": (np.array([0.5, -1.0]), "-1.0", "np.float64(-1.0)"),
    "None in a sequence": ([0.5, None], "None", "None"),
}
PAIR = np.array([0.5, 0.5])


def _table(values):
    return {1: values[0], -1: values[1]}


# By entry: the call on a two-entry input, the name of a non-finite entry, the message
# of an entry out of range, and how the bad entry is named: "array" by the rule of arrays,
# "table" as the table holds it, "number" as an array, with a sequence one number.
ARRAY_ENTRIES = {
    "effect_stack": (lambda v: effect_stack(v, 0.93, 0.9976), "theta_deg",
                     "theta_deg must lie in [0, 22.5] degrees", "array"),
    "pm_error_probabilities": (lambda v: pm_error_probabilities(v, 0.93), "theta_deg",
                               "theta_deg must lie in [0, 22.5] degrees", "array"),
    "SweepConfig": (SweepConfig, "theta_deg", "theta_deg must lie in [0, 22.5] degrees", "array"),
    "calibrated_columns": (lambda v: calibrated_columns(v, PAIR, PAIR, 0.5, 0.5), "P(m)",
                           "P(m) must lie in [0, 1]", "number"),
    "reconstruct_correlation": (lambda v: reconstruct_correlation(
        v, PAIR, 0.0, 1.0, ReconstructionConfig(1.0)), "p_plus", "p_plus must lie in [0, 1]",
        "number"),
    "symmetric_confusion": (lambda v: symmetric_confusion(v, PAIR), "p_flip_plus",
                            "p_flip_plus must lie in [0, 1]", "number"),
    "two_level_optimal_error": (lambda v: two_level_optimal_error(
        _table(v), EIGENSTATE, 0.5, 0.5), "a probability", "P(m) must lie in [0, 1]", "table"),
    "two_level_ozawa_error": (lambda v: two_level_ozawa_error(
        _table(v), EIGENSTATE, 0.5, 0.5, EstimateTable({1: 1.0, -1: -1.0})), "a probability",
        "P(m) must lie in [0, 1]", "table"),
}


def _array_cases() -> list:
    cases = []
    for entry, (call, name, out_of_range, naming) in ARRAY_ENTRIES.items():
        for label, (values, as_array, as_held) in ARRAY_INPUTS.items():
            got = as_held if naming == "table" else as_array
            if naming == "number" and isinstance(values, list):
                got = repr(values)
            message = (f"{out_of_range}, got -1.0" if label == "out of range"
                       else f"{name} must be finite, got {got}")
            cases.append(pytest.param(call, values, message, id=f"{entry}-{label}"))
    return cases


@pytest.mark.parametrize("call, values, message", _array_cases())
def test_a_sequence_or_array_names_its_first_bad_entry(call, values, message):
    with pytest.raises(InvalidInputError) as excinfo:
        call(values)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("values", [pytest.param(values, id=label)
                                    for label, (values, _, _) in ARRAY_INPUTS.items()])
def test_a_count_is_named_as_the_record_holds_it(values):
    # counts follow the integer rule one by one, not the array rule: the bad entry
    # is named as it was handed in, a numpy scalar by its repr
    with pytest.raises(InvalidInputError) as excinfo:
        _record(counts_plus={**COUNTS, (1, 1): 250, (1, -1): values[1]})
    assert str(excinfo.value) == (
        f"counts_plus must be an integer of at least 0, got {values[1]!r}")


@pytest.mark.parametrize("call", [ARRAY_ENTRIES[entry][0] for entry in (
    "effect_stack", "pm_error_probabilities", "SweepConfig")])
def test_a_strength_grid_has_one_dimension(call):
    with pytest.raises(InvalidInputError) as excinfo:
        call(np.array([[1.0, 2.0]]))
    assert str(excinfo.value) == "theta_deg must be finite, got array([1., 2.])"


# An array step takes its arrays in one shape, as error_columns takes p and c: one
# argument is not broadcast against another.
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: calibrated_columns(PAIR, PAIR, HALF, 0.5, 0.5),
                 "P(m|-) must be an array of the shape (2,) of P(m), got array([0.5])",
                 id="calibrated_columns one P(m|-)"),
    pytest.param(lambda: calibrated_columns(PAIR, np.full(3, 0.5), PAIR, 0.5, 0.5),
                 "P(m|+) must be an array of the shape (2,) of P(m), got array([0.5, 0.5, 0.5])",
                 id="calibrated_columns three P(m|+)"),
    pytest.param(lambda: quasi_entries(PAIR, np.array([0.1])),
                 "c must be an array of the shape (2,) of p, got array([0.1])",
                 id="quasi_entries one c"),
    pytest.param(lambda: quasi_entries([0.5, 0.5], [0.1, 0.1]),
                 "p must be an array, got [0.5, 0.5]", id="quasi_entries list p"),
    pytest.param(lambda: quasi_entries(PAIR, [0.1, 0.1]),
                 "c must be an array, got [0.1, 0.1]", id="quasi_entries list c"),
    pytest.param(lambda: reconstruct_correlation(PAIR, np.array([0.3]), 0.0, 1.0,
                                                 ReconstructionConfig(1.0)),
                 "p_minus must be an array of the shape (2,) of p_plus, got array([0.3])",
                 id="reconstruct_correlation one p_minus"),
    pytest.param(lambda: symmetric_confusion(np.array([0.1, 0.2]), np.array([0.1])),
                 "p_flip_minus must be an array of the shape (2,) of p_flip_plus, "
                 "got array([0.1])", id="symmetric_confusion one p_flip_minus"),
    pytest.param(lambda: symmetric_confusion(0.1, np.array([0.1, 0.2])),
                 "p_flip_minus must be an array of the shape () of p_flip_plus, "
                 "got array([0.1, 0.2])", id="symmetric_confusion a number and an array"),
])
def test_an_array_step_takes_its_arrays_in_one_shape(call, message):
    with pytest.raises(InvalidInputError) as excinfo:
        call()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("labels", [("a",), ("a", "b", "c")])
def test_error_report_needs_one_label_per_outcome(labels):
    with pytest.raises(InvalidInputError) as excinfo:
        error_report(labels, PAIR, np.array([0.1, -0.1]), 1.0, 1.0, None, False)
    assert str(excinfo.value) == f"labels must name the 2 outcomes, got {labels!r}"


# A table keyed by outcome must be a mapping.
NOT_MAPPINGS = {"list": [0.25] * 4, "None": None, "number": 5}
TABLES = {
    "CountRecord counts_psi": ("counts_psi", lambda x: _record(counts_psi=x)),
    "CountRecord counts_plus": ("counts_plus", lambda x: _record(counts_plus=x)),
    "CountRecord counts_minus": ("counts_minus", lambda x: _record(counts_minus=x)),
    "OutcomeDistribution": ("probs", OutcomeDistribution),
    "EstimateTable": ("assignments", EstimateTable),
}


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{entry}-{label}")
    for entry, (name, call) in TABLES.items() for label, value in NOT_MAPPINGS.items()])
def test_a_table_that_is_not_a_mapping_is_named(name, call, value):
    with pytest.raises(InvalidInputError) as excinfo:
        call(value)
    assert str(excinfo.value) == f"{name} must be a mapping, got {value!r}"


@pytest.mark.parametrize("call, grid", [
    pytest.param(SweepConfig, 5.0, id="SweepConfig number"),
    pytest.param(SweepConfig, np.array(5.0), id="SweepConfig 0-d array"),
    pytest.param(SweepConfig, None, id="SweepConfig None"),
    pytest.param(ARRAY_ENTRIES["effect_stack"][0], 5.0, id="effect_stack number"),
    pytest.param(ARRAY_ENTRIES["pm_error_probabilities"][0], np.array(5.0),
                 id="pm_error_probabilities 0-d array"),
])
def test_a_number_is_not_a_strength_grid(call, grid):
    with pytest.raises(InvalidInputError) as excinfo:
        call(grid)
    assert str(excinfo.value) == f"theta_grid must be a one-dimensional sequence, got {grid!r}"


# What a real input may be handed: numbers of every kind, and what is not a real number.
ANY_VALUE = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=3),
    st.complex_numbers(), st.just(10**400), st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
NUMERIC_ARRAYS = hnp.arrays(
    st.sampled_from([np.bool_, np.int8, np.int64, np.uint64, np.float16, np.float32, np.float64]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
BOUNDS = st.sampled_from([(-math.inf, math.inf), (0, 1), (0, 22.5), (0, math.inf), (-1.5, 0.0)])


@settings(max_examples=400, deadline=None)
@given(values=st.one_of(st.lists(ANY_VALUE, max_size=6), NUMERIC_ARRAYS), bounds=BOUNDS)
def test_the_array_rule_is_the_real_rule_entry_by_entry(values, bounds):
    entries = values.ravel().tolist() if isinstance(values, np.ndarray) else values
    expected = []
    for value in entries:
        try:
            expected.append(require_real("x", value, *bounds))
        except InvalidInputError as exc:
            expected = str(exc)
            break
    try:
        result = require_reals("x", values, *bounds)
    except InvalidInputError as exc:
        assert str(exc) == expected
    else:
        shape = values.shape if isinstance(values, np.ndarray) else (len(values),)
        assert result.dtype == np.float64 and result.shape == shape
        assert result.ravel().tolist() == expected
