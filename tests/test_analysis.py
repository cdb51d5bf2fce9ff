import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqpol
from seqpol import (
    DegenerateBranchError,
    DichotomicObservable,
    EstimateTable,
    InvalidInputError,
    ReconstructionConfig,
    SetupParams,
    UnresolvableOutcomeError,
    make_linear_polarization,
    make_stokes,
    optimal_error,
    outcome_probabilities,
    ozawa_error,
    pm_marginal_povm,
    quasi_probability,
    reconstruct_correlation,
    sequential_povm,
    two_level_optimal_error,
    two_level_ozawa_error,
    variation_states,
)
from seqpol.algebra import (
    PovmElement,
    PovmSet,
    born_probability,
    expectation,
    real_cross_correlation,
)
from seqpol.analysis import (
    DECOMPOSITION_ROUNDING,
    DECOMPOSITION_TOL,
    ErrorReport,
    calibrated_columns,
    conditional_average,
    outcome_terms,
    symmetric_error_probability,
    two_level_conditional_average,
)
from seqpol.instrument import OutcomeDistribution, pm_error_probability

from closed_forms import (
    classical_conditional_average,
    eigenvalue_marginal,
    outcome_marginal,
    sequential_conditional_average,
)
from conftest import (
    ANGLE_EDGES,
    SQRT2,
    THETA_EDGES,
    V_HV_EDGES,
    V_PM_EDGES,
    projector,
    random_binary_povm,
    random_dichotomic,
    random_mixed_state,
    random_povm,
    random_pure_state,
    random_state,
    random_three_outcome_povm,
    with_edges,
)

A_MEAN = 1 / SQRT2  # <S_PM> of the 67.5 degree input
CIRCULAR = DichotomicObservable.from_operator([[0.0, -1j], [1j, 0.0]])


def eigenstate_weights(mean):
    return (1 + mean) / 2, (1 - mean) / 2


class TestReconstructionConfig:
    def test_zero_lambda_rejected(self):
        with pytest.raises(InvalidInputError):
            ReconstructionConfig(0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            ReconstructionConfig(math.nan)


class TestVariationStates:
    def test_unit_lambda_projects_onto_eigenstates(self, psi_67_5):
        pm = make_stokes("PM")
        plus, minus = variation_states(psi_67_5, pm, ReconstructionConfig(1.0))
        p_state = make_linear_polarization(45.0)
        m_state = make_linear_polarization(-45.0)
        assert abs(np.vdot(p_state.vector, plus.vector)) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(m_state.vector, minus.vector)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_small_lambda_stays_near_input(self, psi_67_5):
        pm = make_stokes("PM")
        plus, minus = variation_states(psi_67_5, pm, ReconstructionConfig(1e-8))
        for branch in (plus, minus):
            assert abs(np.vdot(psi_67_5.vector, branch.vector)) ** 2 == pytest.approx(
                1.0, abs=1e-7
            )

    def test_orthogonal_branch_degenerates(self):
        p_state = make_linear_polarization(45.0)
        pm = make_stokes("PM")
        with pytest.raises(DegenerateBranchError):
            variation_states(p_state, pm, ReconstructionConfig(1.0))

    @pytest.mark.parametrize("lam", [1.4e154, -1e200, 1e300])
    def test_overflowing_normalization_degenerates(self, psi_67_5, lam):
        # lam^2 overflows, so the branch cannot be normalized
        with pytest.raises(DegenerateBranchError, match="non-finite"):
            variation_states(psi_67_5, make_stokes("PM"), ReconstructionConfig(lam))


class TestReconstructCorrelation:
    def test_symmetric_case_vanishes(self):
        cfg = ReconstructionConfig(1.0)
        assert reconstruct_correlation(0.3, 0.3, 0.0, 1.0, cfg) == pytest.approx(0.0, abs=1e-15)

    def test_two_level_reduction(self, psi_67_5):
        # at lam=1 the weighted difference collapses to sequential products of
        # eigenstate-run and preparation probabilities
        pm = make_stokes("PM")
        cfg = ReconstructionConfig(1.0)
        plus, minus = variation_states(psi_67_5, pm, cfg)
        mean = expectation(psi_67_5, pm.op)
        mean_sq = expectation(psi_67_5, pm.op @ pm.op)
        p_plus_psi, p_minus_psi = eigenstate_weights(mean)
        for theta in (0.0, 6.5, 11.25, 22.5):
            povm = sequential_povm(SetupParams(theta))
            for element in povm:
                p_plus = born_probability(plus, element)
                p_minus = born_probability(minus, element)
                reconstructed = reconstruct_correlation(p_plus, p_minus, mean, mean_sq, cfg)
                sequential = p_plus * p_plus_psi - p_minus * p_minus_psi
                assert abs(reconstructed - sequential) < 1e-12

    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.2, 1.0])
    def test_matches_direct_operator_product(self, lam):
        rng = np.random.default_rng(31)
        cfg = ReconstructionConfig(lam)
        for _ in range(300):
            state = random_state(rng)
            obs = random_dichotomic(rng)
            povm = random_povm(rng)
            try:
                plus, minus = variation_states(state, obs, cfg)
            except DegenerateBranchError:
                continue
            mean = expectation(state, obs.op)
            mean_sq = expectation(state, obs.op @ obs.op)
            for element in povm:
                reconstructed = reconstruct_correlation(
                    born_probability(plus, element),
                    born_probability(minus, element),
                    mean,
                    mean_sq,
                    cfg,
                )
                direct = real_cross_correlation(state, element, obs.op)
                assert abs(reconstructed - direct) < 1e-10

    def test_mixed_state_inputs_reconstruct_too(self):
        rng = np.random.default_rng(37)
        cfg = ReconstructionConfig(0.3)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = g @ g.conj().T
        from seqpol import QubitState

        state = QubitState.mixed(rho / np.trace(rho).real)
        obs = make_stokes("PM")
        povm = sequential_povm(SetupParams(9.0))
        plus, minus = variation_states(state, obs, cfg)
        mean = expectation(state, obs.op)
        mean_sq = expectation(state, obs.op @ obs.op)
        for element in povm:
            reconstructed = reconstruct_correlation(
                born_probability(plus, element),
                born_probability(minus, element),
                mean,
                mean_sq,
                cfg,
            )
            assert abs(reconstructed - real_cross_correlation(state, element, obs.op)) < 1e-10

    def test_probability_preconditions(self):
        cfg = ReconstructionConfig(1.0)
        with pytest.raises(InvalidInputError):
            reconstruct_correlation(1.2, 0.5, 0.0, 1.0, cfg)


class TestConditionalAverage:
    def test_anomalous_value(self):
        assert conditional_average(1 / SQRT2, 1 - 1 / SQRT2) == pytest.approx(
            SQRT2 + 1, abs=1e-9
        )

    def test_likely_branch_value(self):
        # numerator and denominator of the zero-strength m2=-1 branch
        assert conditional_average(A_MEAN / 4, (1 + A_MEAN) / 4) == pytest.approx(
            SQRT2 - 1, abs=1e-9
        )

    def test_identity_element_returns_expectation(self):
        assert conditional_average(0.37, 1.0) == pytest.approx(0.37, abs=1e-15)

    def test_floor_raises_with_outcome(self):
        with pytest.raises(UnresolvableOutcomeError) as excinfo:
            conditional_average(0.1, 1e-12, outcome=(-1, 1))
        assert excinfo.value.outcome == (-1, 1)


class TestTwoLevelConditionalAverage:
    def test_matching_probabilities_give_classical_result(self):
        p_plus_psi, p_minus_psi = eigenstate_weights(0.4)
        value = two_level_conditional_average(0.3, 0.3, p_plus_psi, p_minus_psi, 0.3)
        assert value == pytest.approx(p_plus_psi - p_minus_psi, abs=1e-12)

    def test_zero_strength_anomaly(self):
        # frozen arithmetic for the zero-strength m2=+1 branch
        p_plus_psi, p_minus_psi = eigenstate_weights(A_MEAN)
        value = two_level_conditional_average(
            0.25, 0.25, p_plus_psi, p_minus_psi, 0.07322330470336315
        )
        assert value == pytest.approx(SQRT2 + 1, abs=1e-9)

    def test_projective_limit_returns_outcome(self):
        p_plus_psi, p_minus_psi = eigenstate_weights(A_MEAN)
        value = two_level_conditional_average(0.5, 0.0, p_plus_psi, p_minus_psi, p_plus_psi / 2)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_equals_operator_route_on_the_instrument(self, psi_67_5):
        pm = make_stokes("PM")
        p_state = make_linear_polarization(45.0)
        m_state = make_linear_polarization(-45.0)
        p_plus_psi, p_minus_psi = eigenstate_weights(A_MEAN)
        for theta in (0.0, 4.5, 12.0, 22.5):
            povm = sequential_povm(SetupParams(theta))
            for element in povm:
                direct = conditional_average(
                    real_cross_correlation(psi_67_5, element, pm.op),
                    born_probability(psi_67_5, element),
                )
                from_probs = two_level_conditional_average(
                    born_probability(p_state, element),
                    born_probability(m_state, element),
                    p_plus_psi,
                    p_minus_psi,
                    born_probability(psi_67_5, element),
                )
                assert abs(direct - from_probs) < 1e-10


class TestClassicalConditionalAverage:
    def test_random_outcome_returns_prior(self):
        for m1 in (1, -1):
            assert classical_conditional_average(m1, 0.5, A_MEAN) == pytest.approx(
                A_MEAN, abs=1e-12
            )

    def test_perfect_measurement_returns_outcome(self):
        for m1 in (1, -1):
            assert classical_conditional_average(m1, 0.0, A_MEAN) == pytest.approx(
                float(m1), abs=1e-12
            )

    def test_frozen_calibrated_value(self):
        # frozen from independent arithmetic at the full-strength calibration
        value = classical_conditional_average(-1, 0.035, A_MEAN)
        assert value == pytest.approx(-0.6509908798549862, abs=1e-12)
        assert value == pytest.approx(-0.6510, abs=1e-4)

    @settings(max_examples=300, deadline=None)
    @given(
        m1=st.sampled_from([1, -1]),
        p_error=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        mean=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    )
    def test_stays_inside_eigenvalue_range(self, m1, p_error, mean):
        try:
            value = classical_conditional_average(m1, p_error, mean)
        except DegenerateBranchError:
            return
        assert abs(value) <= 1.0 + 1e-12

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateBranchError):
            classical_conditional_average(-1, 0.0, 1.0)

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            classical_conditional_average(2, 0.1, 0.0)
        with pytest.raises(InvalidInputError):
            classical_conditional_average(1, 0.7, 0.0)
        with pytest.raises(InvalidInputError):
            classical_conditional_average(1, 0.1, 1.5)


class TestSequentialConditionalAverage:
    def test_zero_strength_values(self):
        p_unlikely = 0.07322330470336315
        p_likely = (1 + A_MEAN) / 4
        for m1 in (1, -1):
            assert sequential_conditional_average(m1, 1, 0.5, A_MEAN, p_unlikely) == pytest.approx(
                SQRT2 + 1, abs=1e-9
            )
            assert sequential_conditional_average(m1, -1, 0.5, A_MEAN, p_likely) == pytest.approx(
                SQRT2 - 1, abs=1e-9
            )

    def test_balanced_strength_zeroes_the_minus_branch(self):
        p_error = 0.5 * (1 - A_MEAN)  # contrast equal to the prior mean
        for m2, p_joint in ((1, 0.01), (-1, 0.3)):
            assert sequential_conditional_average(-1, m2, p_error, A_MEAN, p_joint) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_matches_operator_route(self, psi_67_5):
        pm = make_stokes("PM")
        for theta in (1.0, 8.0, 15.5, 22.5):
            params = SetupParams(theta)
            p_error = pm_error_probability(params)
            dist = outcome_probabilities(params, psi_67_5)
            for element in sequential_povm(params):
                m1, m2 = element.label
                closed_form = sequential_conditional_average(
                    m1, m2, p_error, A_MEAN, dist[element.label]
                )
                direct = conditional_average(
                    real_cross_correlation(psi_67_5, element, pm.op),
                    born_probability(psi_67_5, element),
                )
                assert abs(closed_form - direct) < 1e-10

    def test_floor_raises(self):
        with pytest.raises(UnresolvableOutcomeError):
            sequential_conditional_average(1, 1, 0.1, 0.5, 1e-12)


class TestOzawaError:
    def test_constant_estimator_gives_prior_variance(self, psi_67_5):
        pm = make_stokes("PM")
        povm = sequential_povm(SetupParams(0.0, 1.0, 1.0))
        table = EstimateTable({e.label: A_MEAN for e in povm})
        report = ozawa_error(psi_67_5, povm, pm, table)
        assert report.epsilon_sq == pytest.approx(0.5, abs=1e-9)
        assert report.variance_initial == pytest.approx(0.5, abs=1e-12)

    def test_eigenvalue_assignment_links_to_error_probability(self, psi_67_5):
        pm = make_stokes("PM")
        table = EstimateTable({1: 1.0, -1: -1.0})
        for theta in np.linspace(0.0, 22.5, 16):
            for v_pm in (1.0, 0.93, 0.6):
                params = SetupParams(theta, v_pm)
                report = ozawa_error(psi_67_5, pm_marginal_povm(params), pm, table)
                assert report.epsilon_sq == pytest.approx(
                    4 * pm_error_probability(params), abs=1e-9
                )

    def test_optimal_assignment_reproduces_minimal_form(self, psi_67_5):
        pm = make_stokes("PM")
        povm = sequential_povm(SetupParams(9.5))
        table, best = optimal_error(psi_67_5, povm, pm)
        report = ozawa_error(psi_67_5, povm, pm, table)
        assert report.epsilon_sq == pytest.approx(best.epsilon_sq, abs=1e-12)
        assert report.residual == pytest.approx(0.0, abs=1e-12)

    def test_missing_assignment_rejected(self, psi_67_5):
        pm = make_stokes("PM")
        povm = sequential_povm(SetupParams(9.5))
        with pytest.raises(InvalidInputError):
            ozawa_error(psi_67_5, povm, pm, EstimateTable({(1, 1): 0.0}))

    def test_decomposition_identity_on_random_tables(self):
        rng = np.random.default_rng(41)
        pm_reference = make_stokes("PM")
        for _ in range(300):
            state = random_state(rng)
            obs = random_dichotomic(rng) if rng.random() < 0.5 else pm_reference
            povm = random_povm(rng)
            table = EstimateTable(
                {e.label: rng.uniform(-3.0, 3.0) for e in povm}
            )
            report = ozawa_error(state, povm, obs, table)
            recomposed = report.mean_square - report.estimate_variance + report.residual
            assert abs(report.epsilon_sq - recomposed) <= 1e-9
            assert report.epsilon_sq >= -1e-9

    def test_report_validation_rejects_mismatch(self):
        with pytest.raises(InvalidInputError):
            ErrorReport(
                epsilon_sq=0.5,
                mean_square=1.0,
                estimate_variance=0.2,
                variance_initial=0.5,
                residual=0.0,
            )

    @pytest.mark.parametrize("mean_square", [1.0, 4e8])
    def test_a_recomposition_just_past_the_bound_raises(self, mean_square):
        # terms of order one, and of the size a near-floor outcome's assignment gives:
        # a recomposition of zero, off by the bound, 1e-9 + 32 eps (2 mean_square),
        # holds; one ulp further raises
        fields = dict(mean_square=mean_square, variance_initial=0.0,
                      estimate_variance=mean_square, residual=0.0)
        assert (DECOMPOSITION_TOL, DECOMPOSITION_ROUNDING) == (1e-9, 32 * np.finfo(float).eps)
        bound = 1e-9 + 32 * np.finfo(float).eps * (mean_square + mean_square + 0.0)
        assert ErrorReport(epsilon_sq=bound, **fields).epsilon_sq == bound
        with pytest.raises(InvalidInputError) as excinfo:
            ErrorReport(epsilon_sq=float(np.nextafter(bound, math.inf)), **fields)
        assert str(excinfo.value).startswith("error decomposition does not reconcile")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1])
    def test_a_non_finite_or_negative_excluded_probability_raises(self, value):
        with pytest.raises(InvalidInputError, match="^excluded probability must be finite"):
            ErrorReport(0.5, 1.0, 0.0, 0.5, 0.0, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x", None])
    def test_a_prior_variance_that_is_not_a_finite_real_raises(self, value):
        with pytest.raises(InvalidInputError, match="^variance_initial must be finite, got "):
            ErrorReport(0.5, 1.0, value, 0.5, 0.0)

    @pytest.mark.parametrize("field", ["mean_square", "estimate_variance", "residual"])
    def test_a_non_finite_term_raises(self, field):
        fields = dict(epsilon_sq=1.0, mean_square=1.0, variance_initial=0.0,
                      estimate_variance=0.0, residual=0.0)
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="^error decomposition does not reconcile"):
                ErrorReport(**{**fields, field: value})


class TestOptimalError:
    def test_perfect_instrument_reaches_zero(self, psi_67_5):
        pm = make_stokes("PM")
        for theta in np.linspace(0.0, 22.5, 46):
            povm = sequential_povm(SetupParams(theta, 1.0, 1.0))
            _, report = optimal_error(psi_67_5, povm, pm)
            assert -1e-9 <= report.epsilon_sq <= 1e-9

    def test_marginal_endpoint_with_calibrated_visibility(self, psi_67_5):
        pm = make_stokes("PM")
        povm = pm_marginal_povm(SetupParams(22.5, 0.93))
        _, report = optimal_error(psi_67_5, povm, pm)
        # frozen from the independent closed form
        # 1 - (k+a)^2/(2(1+ka)) - (k-a)^2/(2(1-ka)) with k=0.93, a=1/sqrt2
        assert report.epsilon_sq == pytest.approx(0.11902035062990057, abs=1e-12)

    def test_uninformative_marginal_keeps_prior_variance(self, psi_67_5):
        pm = make_stokes("PM")
        _, report = optimal_error(psi_67_5, pm_marginal_povm(SetupParams(0.0)), pm)
        assert report.epsilon_sq == pytest.approx(0.5, abs=1e-12)

    def test_beats_random_perturbations(self, psi_67_5):
        rng = np.random.default_rng(43)
        pm = make_stokes("PM")
        for theta in (3.0, 10.0, 18.0):
            povm = sequential_povm(SetupParams(theta))
            table, best = optimal_error(psi_67_5, povm, pm)
            for _ in range(60):
                perturbed = EstimateTable(
                    {
                        label: value + rng.normal(scale=rng.choice([1e-4, 0.1, 1.0]))
                        for label, value in table.assignments.items()
                    }
                )
                worse = ozawa_error(psi_67_5, povm, pm, perturbed)
                assert worse.epsilon_sq >= best.epsilon_sq - 1e-12

    def test_floor_outcome_excluded_and_reported(self):
        h_state = make_linear_polarization(0.0)
        pm = make_stokes("HV")
        tiny = 1e-12
        povm = PovmSet(
            (
                PovmElement("rare", tiny * np.array([[0.0, 0.0], [0.0, 1.0]])),
                PovmElement("rest", np.eye(2) - tiny * np.array([[0.0, 0.0], [0.0, 1.0]])),
            )
        )
        table, report = optimal_error(h_state, povm, pm)
        assert table["rare"] is None
        assert table["rest"] is not None
        assert 0.0 <= report.excluded_probability <= tiny


class TestOutcomeTermSources:
    @settings(max_examples=300, deadline=None)
    @given(
        theta=with_edges(THETA_EDGES, 0.0, 22.5),
        v_pm=with_edges(V_PM_EDGES, 0.0, 1.0),
        v_hv=with_edges(V_HV_EDGES, 0.0, 1.0),
        angle=with_edges(ANGLE_EDGES, -180.0, 180.0),
    )
    def test_sources_agree_with_the_operator_oracle(self, theta, v_pm, v_hv, angle):
        params = SetupParams(theta, v_pm, v_hv)
        psi = make_linear_polarization(angle)
        pm = make_stokes("PM")
        povm = sequential_povm(params)
        labels, *pairs = outcome_terms(psi, povm, pm)
        assert labels == tuple(el.label for el in povm)
        assert all(x.dtype == float and x.shape == (4,) for x in pairs)
        direct = dict(zip(labels, zip(*(x.tolist() for x in pairs))))

        summed = {
            m1: tuple(direct[(m1, 1)][i] + direct[(m1, -1)][i] for i in (0, 1)) for m1 in (1, -1)
        }
        m1_labels, *m1_pairs = outcome_terms(psi, pm_marginal_povm(params), pm)
        marginal = dict(zip(m1_labels, zip(*(x.tolist() for x in m1_pairs))))
        assert list(summed) == list(marginal)
        for label, (p, c) in marginal.items():
            assert summed[label] == pytest.approx((p, c), abs=1e-12)

        p_state = make_linear_polarization(45.0)
        m_state = make_linear_polarization(-45.0)
        columns = calibrated_columns(
            *(np.array([born_probability(state, el) for el in povm])
              for state in (psi, p_state, m_state)),
            *eigenstate_weights(math.sin(math.radians(2.0 * angle))),
        )
        calibrated = dict(zip(labels, zip(*(x.tolist() for x in columns))))
        assert list(calibrated) == list(direct)
        for label, (p, c) in direct.items():
            assert calibrated[label] == pytest.approx((p, c), abs=1e-12)


    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        povm_kind=st.sampled_from(("sequential", "m1", "binary", "three")),
        state_kind=st.sampled_from(("linear", "pure", "mixed")),
        axis=st.sampled_from(("HV", "PM", "circular")),
        theta=with_edges(THETA_EDGES, 0.0, 22.5),
        v_pm=with_edges(V_PM_EDGES, 0.0, 1.0),
        v_hv=with_edges(V_HV_EDGES, 0.0, 1.0),
        angle=with_edges(ANGLE_EDGES, -180.0, 180.0),
    )
    def test_one_stack_pass_gives_the_scalar_oracle_pairs(self, seed, povm_kind, state_kind,
                                                          axis, theta, v_pm, v_hv, angle):
        # outcome_terms and outcome_probabilities read stack_terms; the scalar loops over
        # born_probability and real_cross_correlation give the same pairs by repr, on
        # complex POVMs and states and on all three targets, the circular one complex
        rng = np.random.default_rng(seed)
        params = SetupParams(theta, v_pm, v_hv)
        povm = {"sequential": lambda: sequential_povm(params),
                "m1": lambda: pm_marginal_povm(params),
                "binary": lambda: random_binary_povm(rng),
                "three": lambda: random_three_outcome_povm(rng)}[povm_kind]()
        state = {"linear": lambda: make_linear_polarization(angle),
                 "pure": lambda: random_pure_state(rng),
                 "mixed": lambda: random_mixed_state(rng)}[state_kind]()
        target = CIRCULAR if axis == "circular" else make_stokes(axis)
        labels, p, c = outcome_terms(state, povm, target)
        assert repr((labels, p.tolist(), c.tolist())) == repr((
            tuple(e.label for e in povm), [born_probability(state, e) for e in povm],
            [real_cross_correlation(state, e, target.op) for e in povm]))
        assert repr(outcome_probabilities(params, state)) == repr(OutcomeDistribution(
            {e.label: born_probability(state, e) for e in sequential_povm(params)}))

    def test_only_algebra_names_the_scalar_oracle(self):
        # the pairs have one source in the package; the scalar functions are the oracle
        oracle = {"born_probability", "real_cross_correlation"}
        for module in Path(seqpol.__file__).parent.glob("*.py"):
            if module.name == "algebra.py":
                continue
            tree = ast.parse(module.read_text())
            names = {getattr(node, key, None) for node in ast.walk(tree)
                     for key in ("id", "attr", "name")}
            assert not names & oracle, module.name


class TestTwoLevelErrorPaths:
    def _instrument_tables(self, theta, psi):
        params = SetupParams(theta)
        p_state = make_linear_polarization(45.0)
        m_state = make_linear_polarization(-45.0)
        povm = sequential_povm(params)
        outcome_probs = {el.label: born_probability(psi, el) for el in povm}
        eigen_probs = {
            el.label: (born_probability(p_state, el), born_probability(m_state, el))
            for el in povm
        }
        return povm, outcome_probs, eigen_probs

    def test_matches_operator_route(self, psi_67_5):
        pm = make_stokes("PM")
        p_plus_psi, p_minus_psi = eigenstate_weights(A_MEAN)
        for theta in (0.0, 7.5, 16.0, 22.5):
            povm, outcome_probs, eigen_probs = self._instrument_tables(theta, psi_67_5)
            table = EstimateTable({e.label: 0.3 for e in povm})
            from_probs = two_level_ozawa_error(
                outcome_probs, eigen_probs, p_plus_psi, p_minus_psi, table
            )
            from_operators = ozawa_error(psi_67_5, povm, pm, table)
            assert abs(from_probs.epsilon_sq - from_operators.epsilon_sq) < 1e-12

            _, opt_probs = two_level_optimal_error(
                outcome_probs, eigen_probs, p_plus_psi, p_minus_psi
            )
            _, opt_operators = optimal_error(psi_67_5, povm, pm)
            assert abs(opt_probs.epsilon_sq - opt_operators.epsilon_sq) < 1e-12

    def test_symmetric_gate(self):
        assert symmetric_error_probability(0.2, 0.2) == pytest.approx(0.2, abs=1e-15)
        assert symmetric_error_probability(0.2, 0.2 + 5e-10) is not None
        assert symmetric_error_probability(0.2, 0.21) is None

    def test_asymmetric_confusion_uses_general_path(self):
        # deliberately asymmetric eigenstate confusion, checked against a raw
        # evaluation of 1 + sum A^2 P - 2 sum A (P(m|+)P(+) - P(m|-)P(-))
        outcome_probs = {1: 0.6, -1: 0.4}
        eigen_probs = {1: (0.9, 0.3), -1: (0.1, 0.7)}
        p_plus_psi, p_minus_psi = eigenstate_weights(0.5)
        table = EstimateTable({1: 1.0, -1: -1.0})
        report = two_level_ozawa_error(
            outcome_probs, eigen_probs, p_plus_psi, p_minus_psi, table
        )
        by_hand = 1.0
        for m1 in (1, -1):
            assigned = float(m1)
            c = eigen_probs[m1][0] * p_plus_psi - eigen_probs[m1][1] * p_minus_psi
            by_hand += assigned**2 * outcome_probs[m1] - 2 * assigned * c
        assert report.epsilon_sq == pytest.approx(by_hand, abs=1e-12)


class TestQuasiProbability:
    def test_marginals(self, psi_67_5):
        pm = make_stokes("PM")
        for theta in np.linspace(0.0, 22.5, 16):
            for visibilities in ((1.0, 1.0), (0.93, 0.9976)):
                params = SetupParams(theta, *visibilities)
                povm = sequential_povm(params)
                table = quasi_probability(psi_67_5, povm, pm)
                for element in povm:
                    assert outcome_marginal(table, element.label) == pytest.approx(
                        born_probability(psi_67_5, element), abs=1e-12
                    )
                for a in (1, -1):
                    assert eigenvalue_marginal(table, a) == pytest.approx(
                        expectation(psi_67_5, projector(pm, a)), abs=1e-12
                    )

    def test_entries_match_trace_oracle(self):
        # q(a, m) = Re Tr(rho E_m Pi_a) with the projector built here
        rng = np.random.default_rng(53)
        for _ in range(400):
            state = random_state(rng)
            obs = random_dichotomic(rng)
            povm = random_povm(rng)
            table = quasi_probability(state, povm, obs)
            for element in povm:
                for a in (1, -1):
                    trace = np.trace(state.density @ element.op @ projector(obs, a)).real
                    assert table.entries[(a, element.label)] == pytest.approx(trace, abs=1e-12)

    def test_commuting_measurement_stays_classical(self, psi_67_5):
        pm = make_stokes("PM")
        for theta in np.linspace(0.0, 22.5, 16):
            povm = pm_marginal_povm(SetupParams(theta))
            table = quasi_probability(psi_67_5, povm, pm)
            assert not table.negativity_present
            assert min(table.entries.values()) >= -1e-12

    def test_weak_instrument_shows_negativity(self, psi_67_5):
        pm = make_stokes("PM")
        povm = sequential_povm(SetupParams(0.0, 1.0, 1.0))
        table = quasi_probability(psi_67_5, povm, pm)
        assert table.negativity_present
        # frozen: the joint weight of the unlikely eigenvalue with the
        # unlikely readout is (p - c)/2 = -0.0518 at zero strength
        for m1 in (1, -1):
            assert table.entries[(-1, (m1, 1))] == pytest.approx(
                -0.05177669529663686, abs=1e-12
            )

    def test_negativity_tracks_anomalous_estimates(self):
        rng = np.random.default_rng(47)
        pm = make_stokes("PM")
        checked_negative = 0
        for _ in range(400):
            state = random_state(rng)
            obs = random_dichotomic(rng) if rng.random() < 0.5 else pm
            povm = random_povm(rng)
            table = quasi_probability(state, povm, obs)
            for element in povm:
                p = born_probability(state, element)
                if p <= 1e-6:
                    continue
                c = real_cross_correlation(state, element, obs.op)
                a_opt = c / p
                q_plus = table.entries[(1, element.label)]
                q_minus = table.entries[(-1, element.label)]
                # the estimate is the normalized quasi-probability asymmetry
                assert a_opt == pytest.approx((q_plus - q_minus) / (q_plus + q_minus), abs=1e-9)
                if min(q_plus, q_minus) < -1e-10:
                    checked_negative += 1
                    assert abs(a_opt) > 1.0
                if abs(a_opt) > 1.0 + 1e-7:
                    assert min(q_plus, q_minus) < 0.0
        assert checked_negative > 0
