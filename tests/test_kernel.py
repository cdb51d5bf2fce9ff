"""The batched array steps against their one-at-a-time oracles.

``effect_stack`` builds every effect of a strength grid in one float64 array
and ``stack_terms`` takes (P, c) over it; the loop-built ``oracle_povm`` with the
scalar ``born_probability`` and ``real_cross_correlation`` is the reference, and
with the complex128 ``oracle_stack_terms`` it pins the real kernel bit for bit,
also over the stacked densities of several states, and the complex path that a
complex stack or target takes.  A grid draw has the
per-run normalization of ``oracle_draw_counts`` as reference.
``error_columns`` turns whole (P, c) tables into estimates and errors; the
outcome-by-outcome ``oracle_error_report`` is its reference, also for the
calibrated ``two_level_*`` errors of probability tables keyed by outcome.  Its
left-to-right sums have the cumulative sums of ``oracle_running_sum`` as
reference, and the two error passes of an estimate table the three of
``oracle_estimate_columns``.  A bootstrap drawing its resamples one by one is
the reference of ``bootstrap_standard_errors``.  The count table of int64
draws and of hand-built records has the object-array ``oracle_count_table`` as
reference.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpol import (
    CountRecord,
    DichotomicObservable,
    EstimateTable,
    InvalidInputError,
    SetupParams,
    bootstrap_standard_errors,
    estimate_from_counts,
    make_linear_polarization,
    make_stokes,
    monte_carlo_counts,
    two_level_optimal_error,
    two_level_ozawa_error,
)
from seqpol import harness
from seqpol.algebra import (
    PovmElement,
    PovmSet,
    born_probability,
    hermitian_eigenvalues,
    real_cross_correlation,
    validate_povm,
)
from seqpol.analysis import (P_FLOOR, _require_nonnegative, _running_sum, calibrated_columns,
                             error_columns, error_report, moments, stack_terms,
                             symmetric_confusion, two_level_conditional_average)
from seqpol.cli import main
from seqpol.harness import SWEEP_COLUMNS
from seqpol.instrument import OUTCOMES, _check_effects, effect_stack, pm_error_probabilities

from closed_forms import (
    oracle_count_table,
    oracle_draw_counts,
    oracle_effect_stack,
    oracle_error_report,
    oracle_estimate_columns,
    oracle_povm,
    oracle_record_table,
    oracle_running_sum,
    oracle_stack_terms,
)
from conftest import (
    ANGLE_EDGES,
    THETA_EDGES,
    V_HV_EDGES,
    V_PM_EDGES,
    random_mixed_state,
    random_pure_state,
    with_edges,
)

TOL = 1e-12
PM = make_stokes("PM")
CIRCULAR = DichotomicObservable.from_operator([[0.0, -1j], [1j, 0.0]])


class TestEffectStack:
    @settings(max_examples=300, deadline=None)
    @given(
        thetas=st.lists(with_edges(THETA_EDGES, 0.0, 22.5), min_size=1, max_size=5),
        v_pm=with_edges(V_PM_EDGES, 0.0, 1.0),
        v_hv=with_edges(V_HV_EDGES, 0.0, 1.0),
        angle=with_edges(ANGLE_EDGES, -180.0, 180.0),
    )
    def test_matches_the_oracle(self, thetas, v_pm, v_hv, angle):
        # The kernel keeps the oracle's element-wise arithmetic and 2x2
        # products, so effects and pairs agree bit for bit, not just to TOL.
        effects = effect_stack(thetas, v_pm, v_hv)
        assert effects.shape == (len(thetas), 4, 2, 2)
        psi = make_linear_polarization(angle)
        p, c = stack_terms(psi, effects, PM)
        for n, theta in enumerate(thetas):
            oracle = oracle_povm(SetupParams(theta, v_pm, v_hv))
            assert tuple(e.label for e in oracle) == OUTCOMES
            for k, element in enumerate(oracle):
                assert np.array_equal(effects[n, k], element.op)
                assert p[n, k] == born_probability(psi, element)
                assert c[n, k] == real_cross_correlation(psi, element, PM.op)
            povm = PovmSet(tuple(PovmElement(o, op) for o, op in zip(OUTCOMES, effects[n])))
            assert validate_povm(povm).passed
            assert min(hermitian_eigenvalues(op)[0] for op in effects[n]) >= -1e-15

    @settings(max_examples=200, deadline=None)
    @given(thetas=st.lists(with_edges(THETA_EDGES, 0.0, 22.5), min_size=1, max_size=20),
           v_pm=with_edges(V_PM_EDGES, 0.0, 1.0))
    def test_pm_error_probabilities_equal_the_scalar_formula(self, thetas, v_pm):
        # numpy's radians and sin over the grid give the bits of the math calls
        assert pm_error_probabilities(thetas, v_pm) == [
            0.5 * (1.0 - v_pm * math.sin(math.radians(4.0 * theta))) for theta in thetas]

    def test_is_read_only(self):
        effects = effect_stack((3.0,), 0.93, 0.9976)
        with pytest.raises(ValueError):
            effects[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("grid, v_pm, v_hv", [
        ((0.0, 23.0), 0.93, 0.9976),
        ((math.nan,), 0.93, 0.9976),
        ((1.0,), 1.2, 0.9976),
        ((1.0,), 0.93, -0.1),
    ])
    def test_rejects_invalid_settings(self, grid, v_pm, v_hv):
        with pytest.raises(InvalidInputError):
            effect_stack(grid, v_pm, v_hv)

    def test_every_check_runs_over_the_stack(self):
        # rank-one effects, so a small dent in a diagonal entry breaks positivity
        good = np.array(effect_stack((0.0, 11.0, 22.5), 1.0, 1.0))
        _check_effects(good)
        broken = {
            "finite": (1, 2, 0, 0, math.nan),
            "Hermitian": (2, 0, 0, 1, 1e-9),
            "positive": (1, 3, 1, 1, -1e-8),
            "identity": (0, 1, 0, 0, 1e-8),
        }
        for message, (n, k, i, j, delta) in broken.items():
            stack = good.copy()
            stack[n, k, i, j] += delta
            with pytest.raises(InvalidInputError, match=message):
                _check_effects(stack)


class TestStackTerms:
    def test_equals_the_scalar_products_on_a_grid(self, psi_67_5):
        grid = np.linspace(0.0, 22.5, 91)
        p, c = stack_terms(psi_67_5, effect_stack(grid, 0.93, 0.9976), PM)
        for n, theta in enumerate(grid):
            for k, element in enumerate(oracle_povm(SetupParams(theta))):
                assert p[n, k] == born_probability(psi_67_5, element)
                assert c[n, k] == real_cross_correlation(psi_67_5, element, PM.op)

    def test_clamps_in_band_probabilities(self, psi_67_5):
        effects = np.array([np.eye(2) * (1.0 + 1e-12), np.eye(2) * -1e-12, np.zeros((2, 2))])
        p, _ = stack_terms(psi_67_5, effects, PM)
        assert p.tolist() == [1.0, 0.0, 0.0]
        assert not np.signbit(p).any()

    @pytest.mark.parametrize("effect, message", [
        (np.eye(2) * 1.1, "out of range"),
        (np.eye(2) * -0.1, "out of range"),
        (np.array([[0.5, 0.0], [0.0, 0.5]]) + 1e-3j * np.eye(2), "not real"),
    ])
    def test_rejects_what_born_probability_rejects(self, psi_67_5, effect, message):
        with pytest.raises(InvalidInputError, match=message):
            stack_terms(psi_67_5, np.array([[effect]]), PM)

    @settings(max_examples=200, deadline=None)
    @given(
        thetas=st.lists(with_edges(THETA_EDGES, 0.0, 22.5), min_size=1, max_size=4),
        v_pm=with_edges(V_PM_EDGES, 0.0, 1.0),
        v_hv=with_edges(V_HV_EDGES, 0.0, 1.0),
        angles=st.lists(with_edges(ANGLE_EDGES, -180.0, 180.0), min_size=1, max_size=2),
        seed=st.integers(0, 2**32 - 1),
        stack=st.sampled_from(("real", "complex copy", "oracle")),
        axis=st.sampled_from(("HV", "PM", "circular")),
    )
    def test_a_complex_stack_or_target_gives_the_complex_oracle(self, thetas, v_pm, v_hv,
                                                                angles, seed, stack, axis):
        # A complex copy of a real stack, the complex loop-built stack or the circular
        # target, whose entries are imaginary, takes the products in complex128, and a
        # real stack against a real target the float64 ones: the pairs are the oracle's
        # by repr either way, for one state and for a sequence of states
        rng = np.random.default_rng(seed)
        states = [*map(make_linear_polarization, angles), random_pure_state(rng),
                  random_mixed_state(rng)]
        effects = {"real": effect_stack, "oracle": oracle_effect_stack,
                   "complex copy": lambda *a: effect_stack(*a).astype(complex)}[stack](
                       thetas, v_pm, v_hv)
        target = CIRCULAR if axis == "circular" else make_stokes(axis)
        for state in (states, states[-2], states[-1]):
            assert repr([x.tolist() for x in stack_terms(state, effects, target)]) == repr(
                [x.tolist() for x in oracle_stack_terms(state, effects, target)])

    @settings(max_examples=300, deadline=None)
    @given(
        thetas=st.lists(with_edges(THETA_EDGES, 0.0, 22.5), min_size=1, max_size=5),
        v_pm=with_edges((0.0, 1.0), 0.0, 1.0),
        v_hv=with_edges((0.0, 1.0), 0.0, 1.0),
        kind=st.sampled_from(("pure", "mixed", "linear")),
        seed=st.integers(0, 2**32 - 1),
        angle=with_edges(ANGLE_EDGES, -180.0, 180.0),
        axis=st.sampled_from(("HV", "PM")),
    )
    def test_equals_the_complex_oracle(self, thetas, v_pm, v_hv, kind, seed, angle, axis):
        # The stack equals the oracle's in value (complex products may flip the
        # sign of a zero entry); the pairs agree by repr, which tells -0.0 from
        # 0.0 and round-trips every float: bit for bit.
        state = {"pure": random_pure_state, "mixed": random_mixed_state,
                 "linear": lambda _: make_linear_polarization(angle)}[kind](
                     np.random.default_rng(seed))
        effects = effect_stack(thetas, v_pm, v_hv)
        oracle = oracle_effect_stack(thetas, v_pm, v_hv)
        assert effects.dtype == np.float64 and not oracle.imag.any()
        assert np.array_equal(effects, oracle.real)
        target = make_stokes(axis)
        assert repr([x.tolist() for x in stack_terms(state, effects, target)]) == repr(
            [x.tolist() for x in oracle_stack_terms(state, oracle, target)])

    @settings(max_examples=200, deadline=None)
    @given(
        thetas=st.lists(with_edges(THETA_EDGES, 0.0, 22.5), min_size=1, max_size=4),
        v_pm=with_edges((0.0, 1.0), 0.0, 1.0),
        v_hv=with_edges((0.0, 1.0), 0.0, 1.0),
        angles=st.lists(with_edges(ANGLE_EDGES, -180.0, 180.0), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        axis=st.sampled_from(("HV", "PM")),
    )
    def test_stacked_states_equal_the_per_state_oracle(self, thetas, v_pm, v_hv, angles, seed,
                                                       axis):
        # H, V and eigenstate inputs among the linear ones, and a complex pure and
        # mixed state: one product over the stacked densities gives each state's
        # pairs bit for bit behind a leading state axis, and one state its own shapes
        rng = np.random.default_rng(seed)
        states = [*map(make_linear_polarization, angles), random_pure_state(rng),
                  random_mixed_state(rng)]
        effects = effect_stack(thetas, v_pm, v_hv)
        target = make_stokes(axis)
        p, c = stack_terms(states, effects, target)
        assert p.shape == c.shape == (len(states), len(thetas), 4)
        oracle = oracle_stack_terms(states, oracle_effect_stack(thetas, v_pm, v_hv), target)
        assert repr([p.tolist(), c.tolist()]) == repr([x.tolist() for x in oracle])
        for n, state in enumerate(states):
            assert repr([x.tolist() for x in stack_terms(state, effects, target)]) == repr(
                [p[n].tolist(), c[n].tolist()])

    def test_checks_run_over_the_stacked_states(self, psi_67_5):
        # the second state's probability is out of range, and a stack of one effect works
        effects = np.array([[0.5, 0.0], [0.0, 1.2]])
        with pytest.raises(InvalidInputError, match="out of range"):
            stack_terms([psi_67_5, make_linear_polarization(90.0)], np.array([effects]), PM)
        p, c = stack_terms([psi_67_5, psi_67_5], np.eye(2), PM)
        assert p.tolist() == [1.0, 1.0] and c.shape == (2,)

    @pytest.mark.parametrize("argv", [
        ["montecarlo", "--n-photons", "1"],
        ["montecarlo", "--n-photons", "1", "--v-pm", "0", "--v-hv", "1", "--input-angle", "0"],
    ])
    def test_one_photon_rows_equal_the_complex_oracle(self, argv, monkeypatch, capsys):
        assert main(argv) == 0
        rows = capsys.readouterr().out
        assert len(rows.splitlines()) == 47
        monkeypatch.setattr(harness, "effect_stack", oracle_effect_stack)
        monkeypatch.setattr(harness, "stack_terms", oracle_stack_terms)
        assert main(argv) == 0
        assert capsys.readouterr().out == rows


EIGENVALUES = EstimateTable({1: 1.0, -1: -1.0})
HALVES, TENTHS = np.array([[0.5, 0.5]]), np.array([[0.1, 0.1]])


def _assert_columns_match_the_oracle(p, c, mean_square, variance):
    """Both (N, 4) tables and their m1 sums, with and without the eigenvalue assignment."""
    p_m1, c_m1 = (0.0 + x[:, ::2] + x[:, 1::2] for x in (p, c))
    cases = [(p, c, OUTCOMES, None), (p_m1, c_m1, (1, -1), None),
             (p_m1, c_m1, (1, -1), EIGENVALUES)]
    for p_k, c_k, labels, table in cases:
        assignment = None if table is None else [table[label] for label in labels]
        columns = error_columns(p_k, c_k, mean_square, assignment)
        for n in range(len(p_k)):
            terms = dict(zip(labels, zip(p_k[n].tolist(), c_k[n].tolist())))
            oracle_table, report = oracle_error_report(terms, mean_square, variance, table)
            expected = [
                [math.nan if a is None else a for a in oracle_table.assignments.values()],
                report.epsilon_sq, report.estimate_variance, report.residual,
                report.excluded_probability,
            ]
            # repr tells -0.0 from 0.0 and round-trips every float: bit for bit
            assert repr([column[n].tolist() for column in columns]) == repr(expected)


class TestErrorColumns:
    @settings(max_examples=300, deadline=None)
    @given(
        thetas=st.lists(with_edges(THETA_EDGES, 0.0, 22.5), min_size=1, max_size=5),
        v_pm=with_edges(V_PM_EDGES, 0.0, 1.0),
        v_hv=with_edges(V_HV_EDGES, 0.0, 1.0),
        angle=with_edges(ANGLE_EDGES, -180.0, 180.0),
    )
    def test_matches_the_oracle_on_kernel_grids(self, thetas, v_pm, v_hv, angle):
        psi = make_linear_polarization(angle)
        p, c = stack_terms(psi, effect_stack(thetas, v_pm, v_hv), PM)
        _assert_columns_match_the_oracle(p, c, *moments(psi, PM)[1:])

    @settings(max_examples=200, deadline=None)
    @given(
        thetas=st.lists(with_edges(THETA_EDGES, 0.0, 22.5), min_size=1, max_size=4),
        v_pm=with_edges(V_PM_EDGES, 0.0, 1.0),
        v_hv=with_edges(V_HV_EDGES, 0.0, 1.0),
        angle=with_edges(ANGLE_EDGES, -180.0, 180.0),
        n_photons=st.one_of(st.just(1), st.integers(min_value=1, max_value=10**6)),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_the_oracle_on_count_frequencies(self, thetas, v_pm, v_hv, angle,
                                                      n_photons, seed):
        weight = 0.5 * (1.0 + math.sin(2.0 * math.radians(angle)))
        p, c = [], []
        for theta in thetas:
            record = monte_carlo_counts(SetupParams(theta, v_pm, v_hv), angle, n_photons, seed)
            f = [np.array([counts[o] / n_photons for o in OUTCOMES])
                 for counts in record.runs().values()]
            p_k, c_k = calibrated_columns(*f, weight, 1.0 - weight)
            p.append(p_k.tolist())
            c.append(c_k.tolist())
        mean = weight - (1.0 - weight)
        _assert_columns_match_the_oracle(np.array(p), np.array(c), 1.0, 1.0 - mean * mean)

    def test_rejects_what_the_reports_reject(self):
        p = np.array([[0.5, 0.5]])
        with pytest.raises(InvalidInputError, match="finite"):
            error_columns(p, np.array([[math.inf, 0.0]]), 1.0)
        # an assignment whose squared terms overflow, as an infinite mean_square did
        with pytest.raises(InvalidInputError, match="reconcile"):
            error_columns(p, np.array([[0.1, 0.1]]), 1.0, (1e200, 1e200))
        with pytest.raises(InvalidInputError, match="excluded"):
            error_columns(np.array([[-0.5, 1.5]]), np.zeros((1, 2)), 1.0)
        # a negative error passes: the sign rule belongs to the operator route
        assert error_columns(p, np.array([[0.5, -0.5]]), 0.5).epsilon_sq.tolist() == [-0.5]

    def test_the_one_row_view_applies_the_sign_rule_it_is_given(self):
        args = (("a", "b"), np.array([0.5, 0.5]), np.array([0.5, -0.5]), 0.5, 0.0, None)
        with pytest.raises(InvalidInputError, match="^squared error -0.5 is negative"):
            error_report(*args, True)
        assert error_report(*args, False)[1].epsilon_sq == -0.5

    @pytest.mark.parametrize("p, c, mean_square, assignment, message", [
        pytest.param(HALVES, TENTHS, 1.0, (1.0,), "^assignment must hold 2 ", id="one value"),
        pytest.param(HALVES, TENTHS, 1.0, (1.0, -1.0, 1.0), "^assignment must hold 2 ",
                     id="three values"),
        pytest.param(HALVES, TENTHS, 1.0, 1.0, "^assignment must hold 2 ", id="a number"),
        pytest.param(HALVES, TENTHS, 1.0, ("1", "-1"), "^assignment must be finite, got '1'",
                     id="strings"),
        pytest.param(HALVES[0], TENTHS[0], 1.0, None, "^p must be a 2-D array", id="1-D p"),
        pytest.param([[0.5, 0.5]], TENTHS, 1.0, None, "^p must be a 2-D array", id="list p"),
        pytest.param(HALVES, TENTHS[:, :1], 1.0, None, "^c must be an array of the shape",
                     id="c of another shape"),
        pytest.param(HALVES, TENTHS.astype(str), 1.0, None, "^c must be finite, got '0.1'",
                     id="string c"),
        pytest.param(HALVES, TENTHS, "1", None, "^mean_square must be finite", id="str mean"),
        pytest.param(HALVES, TENTHS, None, None, "^mean_square must be finite", id="None mean"),
        pytest.param(HALVES, TENTHS, math.inf, None, "^mean_square must be finite",
                     id="inf mean"),
    ])
    def test_rejects_a_malformed_input(self, p, c, mean_square, assignment, message):
        with pytest.raises(InvalidInputError, match=message):
            error_columns(p, c, mean_square, assignment)

    def test_a_table_that_is_not_float64_follows_the_real_rule(self):
        expected = error_columns(HALVES, TENTHS, 1.0, (1.0, -1.0))
        for p in (HALVES.astype(object), HALVES.astype(np.float32)):
            assert repr(error_columns(p, TENTHS, 1.0, (1.0, -1.0))) == repr(expected)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_probability(self, value):
        # a NaN would count as unresolvable, and an infinite one give the assignment 0.0
        for assignment in (None, (1.0, -1.0)):
            with pytest.raises(InvalidInputError, match="probabilities .* must be finite"):
                error_columns(np.array([[value, 0.5]]), np.array([[0.1, 0.1]]), 1.0, assignment)


# The photon numbers at the edges of exact float division: one photon, a typical
# run, the first integer a double cannot hold, and the largest C long.
PHOTON_EDGES = (1, 10**4, 2**53 + 1, 2**63 - 1)
# The P and M eigenstates, where a calibration run equals the input run, and H and V.
EIGENSTATE_EDGES = (45.0, -45.0, 0.0, 90.0)


# Floats that include both zeros, the infinities and NaN, for sums that must keep their order.
EDGE_FLOATS = st.one_of(st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 1e308)),
                        st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(start=EDGE_FLOATS, rows=st.integers(0, 4), columns=st.integers(0, 5), data=st.data())
def test_running_sum_equals_the_cumulative_sum(start, rows, columns, data):
    entries = data.draw(st.lists(EDGE_FLOATS, min_size=rows * columns, max_size=rows * columns))
    terms = np.array(entries, dtype=float).reshape(rows, columns)
    with np.errstate(over="ignore", invalid="ignore"):
        assert repr(_running_sum(start, terms).tolist()) == repr(
            oracle_running_sum(start, terms).tolist())


class TestEstimateColumns:
    @settings(max_examples=200, deadline=None)
    @given(
        thetas=st.lists(with_edges(THETA_EDGES, 0.0, 22.5), min_size=1, max_size=5),
        v_pm=with_edges((0.0, 1.0), 0.0, 1.0),
        v_hv=with_edges((0.0, 1.0), 0.0, 1.0),
        angle=with_edges(ANGLE_EDGES, -180.0, 180.0),
    )
    def test_two_passes_equal_three_on_the_operator_route(self, thetas, v_pm, v_hv, angle):
        psi = make_linear_polarization(angle)
        p, c = stack_terms(psi, effect_stack(thetas, v_pm, v_hv), PM)
        args = (thetas, pm_error_probabilities(thetas, v_pm), p, c, moments(psi, PM)[1])
        columns = harness._estimate_columns(*args)
        _require_nonnegative(columns[12:])  # the sweep's own step
        assert repr(columns.tolist()) == repr(oracle_estimate_columns(*args, True).tolist())

    @settings(max_examples=200, deadline=None)
    @given(
        theta=with_edges(THETA_EDGES, 0.0, 22.5),
        v_pm=with_edges((0.0, 1.0), 0.0, 1.0),
        v_hv=with_edges((0.0, 1.0), 0.0, 1.0),
        angle=with_edges(EIGENSTATE_EDGES, -180.0, 180.0),
        n=st.one_of(st.sampled_from(PHOTON_EDGES), st.integers(1, 10**9)),
        seed=st.integers(0, 2**32),
    )
    def test_two_passes_equal_three_on_the_count_route(self, theta, v_pm, v_hv, angle, n, seed):
        # 50 resamples of the three runs; the eigenstate error 4 p_error is given on the
        # rows with a symmetric confusion and on every second row, NaN on the others,
        # so that rows of both kinds occur
        draws = harness._draw_counts(harness.SweepConfig((theta,), v_pm, v_hv, angle), n, seed)
        pvals = draws[0] / n
        resampled = np.random.default_rng(seed).multinomial(n, pvals / pvals.sum(-1, keepdims=True),
                                                            size=(50, 3))
        psi, plus, minus = (resampled / n).transpose(1, 0, 2)
        mean_a = math.sin(2.0 * math.radians(angle))
        p, c = calibrated_columns(psi, plus, minus, 0.5 * (1.0 + mean_a), 0.5 * (1.0 - mean_a))
        p_error, symmetric = symmetric_confusion(plus[:, 2] + plus[:, 3],
                                                 minus[:, 0] + minus[:, 1])
        given_rows = symmetric | (np.arange(50) % 2 == 0)
        args = ([theta] * 50, p_error, p, c, 1.0)
        columns = harness._estimate_columns(*args)
        columns[12] = np.where(given_rows, 4.0 * p_error, columns[12])  # the count table's step
        eps_eigen = np.where(given_rows, 4.0 * p_error, np.nan)
        assert repr(columns.tolist()) == repr(
            oracle_estimate_columns(*args, False, eps_eigen).tolist())


@settings(max_examples=100, deadline=None)
@given(
    thetas=st.lists(with_edges(THETA_EDGES, 0.0, 22.5), min_size=1, max_size=4),
    v_pm=with_edges((0.0, 1.0), 0.0, 1.0),
    v_hv=with_edges((0.0, 1.0), 0.0, 1.0),
    angle=with_edges(ANGLE_EDGES, -180.0, 180.0),
    n=st.one_of(st.sampled_from(PHOTON_EDGES), st.integers(1, 2**63 - 1)),
    seed=st.integers(0, 2**31),
)
def test_grid_draws_equal_per_run_normalization(thetas, v_pm, v_hv, angle, n, seed):
    config = harness.SweepConfig(tuple(thetas), v_pm, v_hv, angle)
    assert np.array_equal(harness._draw_counts(config, n, seed),
                          oracle_draw_counts(config, n, seed))


def _sequential_bootstrap(record, n_resamples, rng_seed):
    """The bootstrap one resample at a time: a record and an estimate per draw."""
    n = record.n_photons
    frequencies = {
        name: np.array([counts[o] for o in OUTCOMES]) / sum(counts.values())
        for name, counts in record.runs().items()
    }
    rng = np.random.default_rng((int(rng_seed),))
    samples = {}
    for _ in range(n_resamples):
        resampled = {}
        for name, pvals in frequencies.items():
            draw = rng.multinomial(n, pvals / pvals.sum())
            resampled[name] = {o: int(k) for o, k in zip(OUTCOMES, draw)}
        row = estimate_from_counts(CountRecord(
            setup=record.setup, input_angle_deg=record.input_angle_deg, n_photons=n,
            rng_seed=record.rng_seed, counts_psi=resampled["psi"],
            counts_plus=resampled["plus"], counts_minus=resampled["minus"],
        ))
        for key, value in row.items():
            samples.setdefault(key, []).append(value)
    return {
        key: float(np.std(values, ddof=1))
        for key, values in samples.items()
        if all(v is not None for v in values)
    }


@pytest.mark.parametrize("n_photons", [1, 10**4, 10**6, 2**63 - 1])
def test_bootstrap_equals_sequential_resampling(n_photons):
    record = monte_carlo_counts(SetupParams(8.0), 67.5, n_photons, rng_seed=5)
    batched = bootstrap_standard_errors(record, 40, rng_seed=3)
    assert batched == _sequential_bootstrap(record, 40, rng_seed=3)
    assert list(batched) == [key for key in SWEEP_COLUMNS if key in batched]


def _cells_or_error(table_step, *args):
    """Every cell of a table by repr, or the message of the input error it raises."""
    try:
        return {key: list(map(repr, cells)) for key, cells in table_step(*args).items()}
    except InvalidInputError as exc:
        return str(exc)


def _count_table(theta, angle, n, counts):
    return harness._estimate_table(harness._count_columns(theta, angle, n, counts))


@pytest.mark.parametrize("n", [1, 10**6, 2**53, 2**53 + 1])
def test_count_division_equals_the_oracle(n):
    # numpy divides up to 2**53, where counts and n are exact floats; Python above
    effects = effect_stack((8.0,), 0.93, 0.9976)
    runs = [stack_terms(make_linear_polarization(a), effects, PM)[0][0]
            for a in (67.5, 45.0, -45.0)]
    draws = np.random.default_rng(n).multinomial(n, [p / p.sum() for p in runs], size=(200, 3))
    thetas = [8.0] * len(draws)
    assert draws.dtype == np.int64
    assert _cells_or_error(_count_table, thetas, 67.5, n, draws) == _cells_or_error(
        oracle_count_table, thetas, 67.5, n, draws.tolist())


def test_count_past_2_53_divides_as_python():
    # n is an exact float but the count 2**53 + 3 is not: as floats the frequency
    # reads 1.0000000000000009, as k / n ...07.  Only the table step takes such a
    # count: a record's or a draw's runs sum to n, so no count exceeds it.
    n = 2**53 - 3
    counts = np.array([[[n + 6, 0, 0, 0], [n - 5, 2, 2, 1], [n - 5, 2, 2, 1]]])
    message = _cells_or_error(_count_table, [8.0], 67.5, n, counts)
    assert message == _cells_or_error(oracle_count_table, [8.0], 67.5, n, counts.tolist())
    assert message == "P(m) must lie in [0, 1], got 1.0000000000000007"


class TestCountTable:
    @settings(max_examples=120, deadline=None)
    @given(
        theta=with_edges(THETA_EDGES, 0.0, 22.5),
        v_pm=with_edges((0.0, 1.0), 0.0, 1.0),
        v_hv=with_edges((0.0, 1.0), 0.0, 1.0),
        angle=with_edges(EIGENSTATE_EDGES, -180.0, 180.0),
        n=st.one_of(st.sampled_from(PHOTON_EDGES), st.integers(1, 2**63 - 1)),
        seed=st.integers(0, 2**32),
    )
    def test_draws_match_the_oracle(self, theta, v_pm, v_hv, angle, n, seed):
        # 200 resamples of the three runs: 2,400 counts, so that a frequency
        # rounded apart from k / n shows even where that happens to 1 in 240.
        effects = effect_stack((theta,), v_pm, v_hv)
        runs = [stack_terms(make_linear_polarization(a), effects, PM)[0][0]
                for a in (angle, 45.0, -45.0)]
        draws = np.random.default_rng(seed).multinomial(n, [p / p.sum() for p in runs],
                                                        size=(200, 3))
        thetas = [theta] * len(draws)
        assert draws.dtype == np.int64
        assert _cells_or_error(_count_table, thetas, angle, n, draws) == _cells_or_error(
            oracle_count_table, thetas, angle, n, draws.tolist())

    @staticmethod
    @st.composite
    def _records(draw):
        """The arguments of hand-built records: each run's total exactly n, or in half of
        them one run's total a little off it, anywhere up to twice it, or 2**64 past it,
        split into Python ints, which pass the int64 range near the top.  Now and then
        a count is a float, a bool, a numpy scalar or negative."""
        n = draw(st.one_of(st.sampled_from(PHOTON_EDGES), st.integers(1, 2**63 - 1)))
        off_run = draw(st.sampled_from([None, None, None, 0, 1, 2]))
        runs = []
        for run in range(3):
            offsets = st.one_of(st.integers(-2, 2), st.integers(-n, n), st.just(2**64))
            total = n + (draw(offsets) if run == off_run else 0)
            weights = draw(st.lists(st.integers(0, 2**20), min_size=4, max_size=4))
            if not any(weights):
                weights[draw(st.integers(0, 3))] = 1
            counts = [total * w // sum(weights) for w in weights]
            counts[draw(st.integers(0, 3))] += total - sum(counts)
            if draw(st.integers(0, 19)) == 0:
                i = draw(st.integers(0, 3))
                counts[i] = draw(st.sampled_from([float, bool, np.int64, np.float32,
                                                  lambda k: -k - 1]))(min(counts[i], 2**62))
            runs.append(dict(zip(OUTCOMES, counts)))
        setup = SetupParams(draw(with_edges(THETA_EDGES, 0.0, 22.5)))
        angle = draw(with_edges(EIGENSTATE_EDGES, -180.0, 180.0))
        return setup, angle, n, 0, *runs

    @settings(max_examples=300, deadline=None)
    @given(arguments=_records())
    def test_records_match_the_oracle(self, arguments):
        # an inconsistent record fails where it is built, with the oracle's message
        def one_row_table():
            record = CountRecord(*arguments)
            return {key: [value] for key, value in estimate_from_counts(record).items()}

        assert _cells_or_error(one_row_table) == _cells_or_error(oracle_record_table, *arguments)


PROBABILITY = with_edges((0.0, P_FLOOR, 0.5, 1.0), 0.0, 1.0)


@st.composite
def keyed_tables(draw):
    """P(m|psi) and (P(m|+), P(m|-)) keyed by outcome, and the eigenstate weights: the
    frequencies of one simulated setting (eigenstate inputs and zero counts included),
    or free tables over one to four outcomes."""
    if draw(st.booleans()):
        setup = SetupParams(draw(with_edges(THETA_EDGES, 0.0, 22.5)),
                            draw(with_edges(V_PM_EDGES, 0.0, 1.0)),
                            draw(with_edges(V_HV_EDGES, 0.0, 1.0)))
        angle = draw(st.one_of(st.sampled_from(EIGENSTATE_EDGES), st.floats(-180.0, 180.0)))
        n = draw(st.one_of(st.sampled_from((1, 2, 10)), st.integers(1, 10**6)))
        record = monte_carlo_counts(setup, angle, n, draw(st.integers(0, 2**31)))
        psi, plus, minus = ({o: k / n for o, k in counts.items()}
                            for counts in record.runs().values())
        weight = 0.5 * (1.0 + math.sin(2.0 * math.radians(angle)))
        return psi, {o: (plus[o], minus[o]) for o in OUTCOMES}, weight, 1.0 - weight
    labels = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
    return ({label: draw(PROBABILITY) for label in labels},
            {label: (draw(PROBABILITY), draw(PROBABILITY)) for label in labels},
            draw(PROBABILITY), draw(PROBABILITY))


def _repr_or_error(step, *args):
    """A result by repr, or the type and message of the error it raises."""
    try:
        return repr(step(*args))
    except Exception as exc:  # noqa: BLE001 - the type is part of what is compared
        return f"{type(exc).__name__}: {exc}"


class TestCalibratedViews:
    @settings(max_examples=300, deadline=None)
    @given(tables=keyed_tables(),
           assigned=st.lists(with_edges((1.0, -1.0, 0.0), -3.0, 3.0), min_size=4, max_size=4))
    def test_two_level_errors_equal_the_oracle(self, tables, assigned):
        outcome_probs, eigenstate_probs, p_plus_psi, p_minus_psi = tables
        terms = {label: (p, eigenstate_probs[label][0] * p_plus_psi
                         - eigenstate_probs[label][1] * p_minus_psi)
                 for label, p in outcome_probs.items()}
        mean = p_plus_psi - p_minus_psi
        variance = 1.0 - mean * mean
        table = EstimateTable(dict(zip(outcome_probs, assigned)))
        assert _repr_or_error(two_level_optimal_error, *tables) == _repr_or_error(
            oracle_error_report, terms, 1.0, variance)
        assert _repr_or_error(two_level_ozawa_error, *tables, table) == _repr_or_error(
            lambda: oracle_error_report(terms, 1.0, variance, table)[1])

    @settings(max_examples=200, deadline=None)
    @given(tables=keyed_tables(), spot=st.sampled_from(["psi", "plus", "minus", "weight"]),
           data=st.data())
    def test_a_string_probability_is_invalid_input(self, tables, spot, data):
        outcome_probs, eigenstate_probs, p_plus_psi, p_minus_psi = tables
        outcome_probs, eigenstate_probs = dict(outcome_probs), dict(eigenstate_probs)
        label = data.draw(st.sampled_from(list(outcome_probs)))
        given_plus, given_minus = eigenstate_probs[label]
        if spot == "psi":
            outcome_probs[label] = text = repr(outcome_probs[label])
        elif spot == "plus":
            eigenstate_probs[label] = (text := repr(given_plus), given_minus)
        elif spot == "minus":
            eigenstate_probs[label] = (given_plus, text := repr(given_minus))
        else:
            p_plus_psi = text = repr(p_plus_psi)
        table = EstimateTable(dict.fromkeys(outcome_probs, 1.0))
        calls = [
            lambda: two_level_optimal_error(outcome_probs, eigenstate_probs, p_plus_psi,
                                            p_minus_psi),
            lambda: two_level_ozawa_error(outcome_probs, eigenstate_probs, p_plus_psi,
                                          p_minus_psi, table),
            lambda: two_level_conditional_average(*eigenstate_probs[label], p_plus_psi,
                                                  p_minus_psi, outcome_probs[label]),
        ]
        for call in calls:
            with pytest.raises(InvalidInputError) as excinfo:
                call()
            assert str(excinfo.value) == f"a probability must be finite, got {text!r}"


def _oracle_terms(theta, angle=67.5, v_pm=0.93, v_hv=0.9976):
    psi = make_linear_polarization(angle)
    return {
        element.label: (born_probability(psi, element), real_cross_correlation(psi, element, PM.op))
        for element in oracle_povm(SetupParams(theta, v_pm, v_hv))
    }


def _oracle_sweep_row(theta, v_pm=0.93):
    """All 15 sweep columns from the oracle pairs, for the default input (<A^2> = 1)."""
    terms = _oracle_terms(theta)
    m1 = {a: tuple(sum(terms[(a, b)][i] for b in (1, -1)) for i in (0, 1)) for a in (1, -1)}
    row = {
        "theta_deg": theta,
        "p_error": 0.5 * (1.0 - v_pm * math.sin(math.radians(4.0 * theta))),
        "eps_eigen": 1.0 + sum(p - 2.0 * a * c for a, (p, c) in m1.items()),
        "eps_opt_m1": 1.0 - sum(c * c / p for p, c in m1.values()),
        "eps_opt_m1m2": 1.0 - sum(c * c / p for p, c in terms.values()),
        "aopt_m1_plus": m1[1][1] / m1[1][0],
        "aopt_m1_minus": m1[-1][1] / m1[-1][0],
    }
    for (a, b), suffix in zip(OUTCOMES, ("pp", "pm", "mp", "mm")):
        p, c = terms[(a, b)]
        assert p > P_FLOOR
        row["p_" + suffix] = p
        row["aopt_" + suffix] = c / p
    return row


def _run_large(command, tmp_path):
    out = tmp_path / f"{command}.csv"
    assert main([command, "--steps", "10000", "--output", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 10_000
    return rows


SAMPLED = [0, 1, 997, 4444, 5000, 7777, 9998, 9999]


def test_large_sweep_matches_the_oracle(tmp_path):
    rows = _run_large("sweep", tmp_path)
    for index in SAMPLED:
        theta = float(rows[index]["theta_deg"])
        assert theta == pytest.approx(index * 22.5 / 9999, abs=1e-12)
        for key, value in _oracle_sweep_row(theta).items():
            assert float(rows[index][key]) == pytest.approx(value, rel=TOL, abs=TOL), (index, key)


def test_large_lgi_matches_the_oracle(tmp_path):
    rows = _run_large("lgi", tmp_path)
    for index in SAMPLED:
        terms = _oracle_terms(float(rows[index]["theta_deg"]))
        entries = {}
        for outcome, suffix in zip(OUTCOMES, ("pp", "pm", "mp", "mm")):
            p, c = terms[outcome]
            entries["q_plus_" + suffix] = 0.5 * (p + c)
            entries["q_minus_" + suffix] = 0.5 * (p - c)
        for key, value in entries.items():
            assert float(rows[index][key]) == pytest.approx(value, abs=TOL), (index, key)
        negative = min(entries.values()) < -1e-10
        assert rows[index]["negativity"] == ("true" if negative else "false")
