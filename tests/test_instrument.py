import math
import re

import numpy as np
import pytest

from seqpol import (
    InvalidInputError,
    SetupParams,
    SweepConfig,
    make_linear_polarization,
    make_stokes,
    outcome_probabilities,
    pm_marginal_povm,
    sequential_povm,
)
from seqpol.algebra import IDENTITY, TAU_ALG, born_probability, validate_povm
from seqpol.harness import PROBABILITY_SUM_TOL as harness_probability_sum_tol
from seqpol.instrument import (OUTCOMES, PROBABILITY_SUM_TOL, OutcomeDistribution, effect_stack,
                               pm_error_probability)

from closed_forms import ideal_outcome_vector
from conftest import SQRT2, m1_marginal, projector

THETAS = [0.0, 2.5, 7.0, 11.25, 14.0, 19.5, 22.5]


class TestSetupParams:
    @pytest.mark.parametrize("theta", [-0.1, 22.6, math.nan, math.inf])
    def test_theta_out_of_range(self, theta):
        with pytest.raises(InvalidInputError):
            SetupParams(theta_deg=theta)

    @pytest.mark.parametrize("value", [-0.01, 1.01, math.nan])
    def test_visibility_out_of_range(self, value):
        with pytest.raises(InvalidInputError):
            SetupParams(theta_deg=10.0, v_pm=value)
        with pytest.raises(InvalidInputError):
            SetupParams(theta_deg=10.0, v_hv=value)

    def test_defaults_are_the_calibrated_visibilities(self):
        params = SetupParams(theta_deg=10.0)
        assert params.v_pm == 0.93
        assert params.v_hv == 0.9976


FINITE = "theta_deg must be finite, got "
RANGE = "theta_deg must lie in [0, 22.5] degrees, got "
# Each strength with what SetupParams, effect_stack and SweepConfig say about
# it: None accepts it, a string is the whole error message.
THETA_INPUTS = [
    (math.nan, FINITE + "nan"),
    (math.inf, FINITE + "inf"),
    (-math.inf, FINITE + "-inf"),
    (-1e-300, RANGE + "-1e-300"),
    (math.nextafter(22.5, math.inf), RANGE + "22.500000000000004"),
    ("1.0", FINITE + "'1.0'"),
    pytest.param(10**400, FINITE + repr(10**400), id="10**400"),
    pytest.param(-(10**5000), FINITE + "<int too long to print>", id="-10**5000"),
    (np.float32(1), None),
    (True, None),
    (0, None),
    (0.0, None),
    (22.5, None),
    (np.float64(7.5), None),
]


class TestStrengthValidation:
    """Which strengths each entry point accepts, and the error for the first bad one."""

    @pytest.mark.parametrize("theta, error", THETA_INPUTS)
    def test_setup_params(self, theta, error):
        if error is None:
            assert SetupParams(theta).theta_deg == float(theta)
        else:
            with pytest.raises(InvalidInputError, match="^" + re.escape(error) + "$"):
                SetupParams(theta)

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("theta, error", THETA_INPUTS)
    def test_effect_stack(self, theta, error, position):
        grid = [3.0, 4.0, 5.0]
        grid[position] = theta
        if error is None:
            expected = effect_stack([float(t) for t in grid], 0.93, 0.9976)
            assert np.array_equal(effect_stack(grid, 0.93, 0.9976), expected)
        else:
            with pytest.raises(InvalidInputError, match="^" + re.escape(error) + "$"):
                effect_stack(grid, 0.93, 0.9976)

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("theta, error", THETA_INPUTS)
    def test_sweep_config(self, theta, error, position):
        grid = [3.0, 4.0, 5.0]
        grid[position] = theta
        if error is None:
            assert SweepConfig(theta_grid=grid).theta_grid == tuple(map(float, grid))
        else:
            with pytest.raises(InvalidInputError, match="^" + re.escape(error) + "$"):
                SweepConfig(theta_grid=grid)

    @pytest.mark.parametrize("entry", [
        lambda grid: effect_stack(grid, 0.93, 0.9976),
        lambda grid: SweepConfig(theta_grid=grid),
    ])
    def test_the_first_bad_setting_is_reported(self, entry):
        grid = [1.0, 2.0, 30.0, math.nan, -1.0]
        with pytest.raises(InvalidInputError, match=re.escape(RANGE + "30.0")):
            entry(grid)
        with pytest.raises(InvalidInputError, match=re.escape(FINITE + "nan")):
            entry(grid[:2] + grid[3:])

    @pytest.mark.parametrize("theta", ["abc", None])
    def test_sweep_config_needs_a_float(self, theta):
        for entry in (lambda grid: SweepConfig(theta_grid=grid),
                      lambda grid: effect_stack(grid, 0.93, 0.9976)):
            with pytest.raises(InvalidInputError, match="^" + re.escape(FINITE + repr(theta)) + "$"):
                entry((1.0, theta))


class TestIdealOutcomeVectors:
    def test_full_strength_is_diagonal_projection(self):
        vec = ideal_outcome_vector(22.5, (1, 1))
        assert np.allclose(vec, [0.5, 0.5], atol=1e-15)

    def test_zero_strength_keeps_hv(self):
        vec = ideal_outcome_vector(0.0, (1, 1))
        assert np.allclose(vec, [1 / SQRT2, 0.0], atol=1e-15)

    @pytest.mark.parametrize("theta", THETAS)
    def test_squared_norm_is_half(self, theta):
        for outcome in OUTCOMES:
            vec = ideal_outcome_vector(theta, outcome)
            assert np.vdot(vec, vec).real == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("theta", THETAS)
    def test_completeness_by_construction(self, theta):
        total = sum(
            np.outer(v, v.conj())
            for v in (ideal_outcome_vector(theta, o) for o in OUTCOMES)
        )
        assert np.max(np.abs(total - IDENTITY)) <= 1e-14

    def test_rejects_bad_outcome(self):
        with pytest.raises(InvalidInputError):
            ideal_outcome_vector(10.0, (0, 1))
        with pytest.raises(InvalidInputError):
            ideal_outcome_vector(23.0, (1, 1))


class TestSequentialPovm:
    @pytest.mark.parametrize("theta", THETAS)
    def test_perfect_visibilities_reproduce_projections(self, theta):
        povm = sequential_povm(SetupParams(theta, v_pm=1.0, v_hv=1.0))
        for element in povm:
            vec = ideal_outcome_vector(theta, element.label)
            assert np.max(np.abs(element.op - np.outer(vec, vec.conj()))) <= 1e-15

    def test_validates_on_a_dense_parameter_grid(self):
        thetas = np.linspace(0.0, 22.5, 50)
        visibilities = np.linspace(0.0, 1.0, 5)
        for theta in thetas:
            for v_pm in visibilities:
                for v_hv in visibilities:
                    povm = sequential_povm(SetupParams(theta, v_pm, v_hv))
                    assert validate_povm(povm).passed

    def test_zero_interference_contrast_hides_pm(self):
        p_state = make_linear_polarization(45.0)
        for theta in THETAS:
            povm = pm_marginal_povm(SetupParams(theta, v_pm=0.0))
            for element in povm:
                assert born_probability(p_state, element) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    def test_ideal_probabilities_match_overlaps(self, theta):
        psi = make_linear_polarization(67.5)
        povm = sequential_povm(SetupParams(theta, 1.0, 1.0))
        for element in povm:
            vec = ideal_outcome_vector(theta, element.label)
            overlap = abs(np.vdot(vec, psi.vector)) ** 2
            assert born_probability(psi, element) == pytest.approx(overlap, abs=1e-14)


class TestMarginalPovm:
    def test_zero_strength_is_uninformative(self):
        povm = pm_marginal_povm(SetupParams(0.0, v_pm=1.0, v_hv=1.0))
        for element in povm:
            assert np.max(np.abs(element.op - IDENTITY / 2)) <= 1e-15

    def test_full_strength_ideal_is_projective(self):
        pm = make_stokes("PM")
        povm = pm_marginal_povm(SetupParams(22.5, v_pm=1.0, v_hv=1.0))
        by_label = {e.label: e.op for e in povm}
        assert np.max(np.abs(by_label[1] - projector(pm, 1))) <= 1e-12
        assert np.max(np.abs(by_label[-1] - projector(pm, -1))) <= 1e-12

    def test_commutes_with_pm_stokes(self):
        pm = make_stokes("PM").op
        rng = np.random.default_rng(5)
        for _ in range(200):
            params = SetupParams(rng.uniform(0, 22.5), rng.uniform(0, 1), rng.uniform(0, 1))
            for element in pm_marginal_povm(params):
                commutator = element.op @ pm - pm @ element.op
                assert np.max(np.abs(commutator)) <= TAU_ALG

    def test_matches_marginalized_distribution(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            params = SetupParams(rng.uniform(0, 22.5), rng.uniform(0, 1), rng.uniform(0, 1))
            state = make_linear_polarization(rng.uniform(-90, 90))
            dist = m1_marginal(outcome_probabilities(params, state))
            for element in pm_marginal_povm(params):
                assert abs(dist[element.label] - born_probability(state, element)) < 1e-12


class TestErrorProbability:
    def test_full_strength_perfect(self):
        assert pm_error_probability(SetupParams(22.5, v_pm=1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_zero_strength_random(self):
        for v_pm in (0.0, 0.5, 1.0):
            assert pm_error_probability(SetupParams(0.0, v_pm=v_pm)) == 0.5

    def test_calibrated_endpoint(self):
        assert pm_error_probability(SetupParams(22.5, v_pm=0.93)) == pytest.approx(
            0.035, abs=1e-12
        )

    def test_consistent_with_povm_for_all_settings(self):
        p_state = make_linear_polarization(45.0)
        m_state = make_linear_polarization(-45.0)
        rng = np.random.default_rng(29)
        for _ in range(200):
            params = SetupParams(rng.uniform(0, 22.5), rng.uniform(0, 1), rng.uniform(0, 1))
            by_label = {e.label: e for e in pm_marginal_povm(params)}
            expected = pm_error_probability(params)
            assert born_probability(p_state, by_label[-1]) == pytest.approx(expected, abs=TAU_ALG)
            assert born_probability(m_state, by_label[1]) == pytest.approx(expected, abs=TAU_ALG)


class TestOutcomeProbabilities:
    def test_zero_strength_splits_m1_evenly(self):
        psi = make_linear_polarization(67.5)
        dist = outcome_probabilities(SetupParams(0.0, v_pm=0.93, v_hv=1.0), psi)
        # frozen: half of cos^2(67.5 deg) for each m1
        for m1 in (1, -1):
            assert dist[(m1, 1)] == pytest.approx(0.07322330470336315, abs=1e-12)

    def test_full_strength_on_eigenstate(self):
        p_state = make_linear_polarization(45.0)
        dist = outcome_probabilities(SetupParams(22.5, v_pm=1.0, v_hv=1.0), p_state)
        assert dist[(1, 1)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(1, -1)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(-1, 1)] == pytest.approx(0.0, abs=1e-12)
        assert dist[(-1, -1)] == pytest.approx(0.0, abs=1e-12)

    def test_calibrated_marginal_at_full_strength(self):
        psi = make_linear_polarization(67.5)
        dist = outcome_probabilities(SetupParams(22.5, v_pm=0.93), psi)
        # frozen: (1 + 0.93/sqrt(2)) / 2 from the brute-force construction
        assert m1_marginal(dist)[1] == pytest.approx(0.8288046532517446, abs=1e-12)

    def test_eigenstate_inputs_randomize_m2(self):
        for angle in (45.0, -45.0):
            eigenstate = make_linear_polarization(angle)
            for v_hv in (1.0, 0.9976):
                for theta in THETAS:
                    dist = outcome_probabilities(SetupParams(theta, 0.93, v_hv), eigenstate)
                    marginal = m1_marginal(dist)
                    for (m1, m2), p in dist.probs.items():
                        assert abs(p - marginal[m1] / 2) < 1e-12

    def test_distribution_validation(self):
        with pytest.raises(InvalidInputError):
            OutcomeDistribution({(1, 1): 0.5, (1, -1): 0.5, (-1, 1): 0.5, (-1, -1): -0.5})
        with pytest.raises(InvalidInputError):
            OutcomeDistribution({(1, 1): 0.5, (1, -1): 0.5, (-1, 1): 0.5, (-1, -1): 0.5})
        with pytest.raises(InvalidInputError):
            OutcomeDistribution({(1, 1): 1.0})

    def test_a_distribution_sums_in_outcome_order_as_the_estimate_does(self):
        # four numbers whose sum from 0.0 lies within PROBABILITY_SUM_TOL of one in
        # this order and just past it in reverse, each table handed in reverse order
        forward = [0.30264185685940004, 0.13749684553314742, 0.32805149940421136,
                   0.23180979920324116]
        assert abs(0.0 + forward[0] + forward[1] + forward[2] + forward[3] - 1.0) <= 1e-9
        assert abs(0.0 + forward[3] + forward[2] + forward[1] + forward[0] - 1.0) > 1e-9
        assert harness_probability_sum_tol is PROBABILITY_SUM_TOL == 1e-9
        built = OutcomeDistribution(dict(zip(OUTCOMES[::-1], forward[::-1])))
        assert [built[o] for o in OUTCOMES] == forward
        with pytest.raises(InvalidInputError, match="^outcome probabilities must sum to one$"):
            OutcomeDistribution(dict(zip(OUTCOMES[::-1], forward)))
