import itertools
import math

import numpy as np
import pytest

from seqpol import (
    CountRecord,
    InvalidInputError,
    SetupParams,
    SweepConfig,
    bootstrap_standard_errors,
    default_theta_grid,
    estimate_from_counts,
    find_crossings,
    make_linear_polarization,
    monte_carlo_counts,
    outcome_probabilities,
    run_sweep,
)
from seqpol.harness import (
    CROSSING_BRANCH_SWAP,
    CROSSING_SIGN_FLIP,
    analytic_row,
    row_as_dict,
)
from seqpol.instrument import OUTCOMES

from conftest import SQRT2

# chi-square 99% quantile for three degrees of freedom
CHI2_99_DOF3 = 11.344866730144373


class TestSweepConfig:
    def test_defaults(self):
        config = SweepConfig()
        assert config.theta_grid == default_theta_grid()
        assert len(config.theta_grid) == 46
        assert config.theta_grid[0] == 0.0
        assert config.theta_grid[-1] == 22.5

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(InvalidInputError):
            SweepConfig(theta_grid=(0.0, 30.0))

    def test_rejects_empty_grid(self):
        with pytest.raises(InvalidInputError):
            SweepConfig(theta_grid=())


class TestRunSweep:
    def test_zero_strength_estimates_depend_only_on_m2(self):
        config = SweepConfig(theta_grid=(0.0,), v_pm=1.0, v_hv=1.0)
        row = run_sweep(config)[0]
        assert row.a_opt_m1m2[(1, 1)] == pytest.approx(SQRT2 + 1, abs=1e-9)
        assert row.a_opt_m1m2[(-1, 1)] == pytest.approx(SQRT2 + 1, abs=1e-9)
        assert row.a_opt_m1m2[(1, -1)] == pytest.approx(SQRT2 - 1, abs=1e-9)
        assert row.a_opt_m1m2[(-1, -1)] == pytest.approx(SQRT2 - 1, abs=1e-9)

    def test_perfect_instrument_reaches_zero_error(self):
        rows = run_sweep(SweepConfig(v_pm=1.0, v_hv=1.0))
        for row in rows:
            assert abs(row.eps_sq_opt_m1m2) <= 1e-9

    def test_calibrated_eigenvalue_error_endpoint(self):
        row = run_sweep(SweepConfig(theta_grid=(22.5,), v_pm=0.93))[0]
        assert row.eps_sq_eigen == pytest.approx(0.14, abs=1e-9)
        assert row.p_error == pytest.approx(0.035, abs=1e-12)

    @pytest.mark.parametrize("visibilities", [(1.0, 1.0), (0.93, 0.9976)])
    def test_strategy_ordering(self, visibilities):
        rows = run_sweep(SweepConfig(v_pm=visibilities[0], v_hv=visibilities[1]))
        for row in rows:
            assert row.eps_sq_opt_m1m2 <= row.eps_sq_opt_m1 + 1e-9
            assert row.eps_sq_opt_m1 <= row.eps_sq_eigen + 1e-9

    def test_marginal_error_monotone_for_perfect_instrument(self):
        rows = run_sweep(SweepConfig(v_pm=1.0, v_hv=1.0))
        values = [row.eps_sq_opt_m1 for row in rows]
        for previous, current in zip(values, values[1:]):
            assert current <= previous + 1e-12

    def test_rows_are_deterministic(self):
        config = SweepConfig(theta_grid=(3.0, 12.0))
        assert run_sweep(config) == run_sweep(config)

    def test_row_as_dict_key_order(self):
        row = analytic_row(SetupParams(10.0))
        assert list(row_as_dict(row)) == [
            "theta_deg", "p_error", "p_pp", "p_pm", "p_mp", "p_mm",
            "aopt_m1_plus", "aopt_m1_minus", "aopt_pp", "aopt_pm", "aopt_mp", "aopt_mm",
            "eps_eigen", "eps_opt_m1", "eps_opt_m1m2",
        ]


class TestFindCrossings:
    def test_perfect_visibility_root_is_closed_form(self):
        crossings = dict_of(find_crossings(SweepConfig(v_pm=1.0, v_hv=1.0)))
        assert crossings[CROSSING_SIGN_FLIP] == pytest.approx(11.25, abs=0.01)

    def test_calibrated_visibility_root(self):
        crossings = dict_of(find_crossings(SweepConfig(v_pm=0.93, v_hv=1.0)))
        closed_form = math.degrees(math.asin(1 / (0.93 * SQRT2))) / 4
        assert crossings[CROSSING_SIGN_FLIP] == pytest.approx(closed_form, abs=0.01)
        assert crossings[CROSSING_SIGN_FLIP] == pytest.approx(12.37, abs=0.05)

    def test_branch_swap_at_paper_visibilities(self):
        crossings = dict_of(find_crossings(SweepConfig()))
        # frozen from an independent bisection of the raw closed-form model
        assert crossings[CROSSING_BRANCH_SWAP] == pytest.approx(11.215498242742136, abs=0.01)

    def test_weak_visibility_has_no_sign_flip(self):
        crossings = dict_of(find_crossings(SweepConfig(v_pm=0.5)))
        assert crossings[CROSSING_SIGN_FLIP] is None

    def test_swap_root_is_not_reported_at_zero_strength(self):
        crossings = dict_of(find_crossings(SweepConfig()))
        assert crossings[CROSSING_BRANCH_SWAP] > 1.0

    @pytest.mark.parametrize("angle", [45.0, -45.0, 135.0, -135.0, 225.0])
    def test_eigenstate_inputs_have_no_crossings(self, angle):
        # c_m = +-P(m) for a P or M input: c(-1,-1) keeps its sign and the
        # swap gap vanishes identically, so any root would be rounding noise
        for v_pm, v_hv in itertools.product((0.0, 0.3, 0.93, 1.0), (0.0, 0.5, 0.9976, 1.0)):
            config = SweepConfig(v_pm=v_pm, v_hv=v_hv, input_angle_deg=angle)
            assert dict_of(find_crossings(config)) == {
                CROSSING_SIGN_FLIP: None,
                CROSSING_BRANCH_SWAP: None,
            }, (v_pm, v_hv)


def dict_of(crossings):
    return {crossing.description: crossing.theta_deg for crossing in crossings}


class TestMonteCarloCounts:
    def test_deterministic_for_fixed_seed(self):
        params = SetupParams(9.0)
        first = monte_carlo_counts(params, 67.5, 10_000, rng_seed=5)
        second = monte_carlo_counts(params, 67.5, 10_000, rng_seed=5)
        assert first == second

    def test_different_seeds_differ(self):
        params = SetupParams(9.0)
        first = monte_carlo_counts(params, 67.5, 10_000, rng_seed=5)
        second = monte_carlo_counts(params, 67.5, 10_000, rng_seed=6)
        assert first != second

    def test_counts_sum_to_n_photons(self):
        record = monte_carlo_counts(SetupParams(4.0), 67.5, 12_345, rng_seed=1)
        for counts in record.runs().values():
            assert sum(counts.values()) == 12_345

    def test_single_photon_gives_single_count(self):
        record = monte_carlo_counts(SetupParams(13.0), 67.5, 1, rng_seed=3)
        for counts in record.runs().values():
            assert sorted(counts.values()) == [0, 0, 0, 1]

    def test_frequencies_converge_to_probabilities(self):
        n = 10**6
        params = SetupParams(10.0)
        record = monte_carlo_counts(params, 67.5, n, rng_seed=107)
        for counts, angle in (
            (record.counts_psi, 67.5),
            (record.counts_plus, 45.0),
            (record.counts_minus, -45.0),
        ):
            dist = outcome_probabilities(params, make_linear_polarization(angle))
            for outcome in OUTCOMES:
                p = dist[outcome]
                bound = 5.0 * math.sqrt(p * (1 - p) / n)
                assert abs(counts[outcome] / n - p) <= bound

    def test_chi_square_goodness_of_fit_over_grid(self):
        # deterministic seed chosen so that all 138 per-run statistics stay
        # below the 1 percent critical value; any seed passes on average
        n = 10**6
        for index, theta in enumerate(default_theta_grid()):
            params = SetupParams(theta)
            record = monte_carlo_counts(params, 67.5, n, rng_seed=107 + index)
            for counts, angle in (
                (record.counts_psi, 67.5),
                (record.counts_plus, 45.0),
                (record.counts_minus, -45.0),
            ):
                dist = outcome_probabilities(params, make_linear_polarization(angle))
                chi2 = sum(
                    (counts[o] - n * dist[o]) ** 2 / (n * dist[o]) for o in OUTCOMES
                )
                assert chi2 < CHI2_99_DOF3

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            monte_carlo_counts(SetupParams(5.0), 67.5, 0, rng_seed=1)
        with pytest.raises(InvalidInputError):
            monte_carlo_counts(SetupParams(5.0), 67.5, 10, rng_seed=-1)
        with pytest.raises(InvalidInputError):
            monte_carlo_counts(SetupParams(5.0), 67.5, 2**63, rng_seed=1)

    def test_largest_photon_number_draws(self):
        # numpy's multinomial takes a C long; 2**63 - 1 is its largest value
        record = monte_carlo_counts(SetupParams(5.0), 67.5, 2**63 - 1, rng_seed=1)
        assert sum(record.counts_psi.values()) == 2**63 - 1


class TestEstimateFromCounts:
    def _proportional_record(self, params, n=10**6):
        tables = {}
        for name, angle in (("psi", 67.5), ("plus", 45.0), ("minus", -45.0)):
            dist = outcome_probabilities(params, make_linear_polarization(angle))
            tables[name] = {o: dist[o] * n for o in OUTCOMES}
        return CountRecord(
            setup=params,
            input_angle_deg=67.5,
            n_photons=n,
            rng_seed=0,
            counts_psi=tables["psi"],
            counts_plus=tables["plus"],
            counts_minus=tables["minus"],
        )

    @pytest.mark.parametrize("theta", [0.0, 6.0, 12.5, 22.5])
    def test_exact_frequencies_reproduce_analytic_row(self, theta):
        params = SetupParams(theta)
        empirical = row_as_dict(estimate_from_counts(self._proportional_record(params)))
        analytic = row_as_dict(analytic_row(params))
        for key, value in analytic.items():
            assert empirical[key] == pytest.approx(value, abs=1e-9), key

    def test_zero_count_outcome_is_isolated(self):
        params = SetupParams(12.5)
        record = self._proportional_record(params)
        counts = dict(record.counts_psi)
        counts[(-1, -1)] += counts[(-1, 1)]
        counts[(-1, 1)] = 0.0
        record = CountRecord(
            setup=params,
            input_angle_deg=67.5,
            n_photons=record.n_photons,
            rng_seed=0,
            counts_psi=counts,
            counts_plus=record.counts_plus,
            counts_minus=record.counts_minus,
        )
        row = estimate_from_counts(record)
        assert row.a_opt_m1m2[(-1, 1)] is None
        for outcome in ((1, 1), (1, -1), (-1, -1)):
            assert row.a_opt_m1m2[outcome] is not None
        assert row.eps_sq_opt_m1m2 is not None

    def test_all_zero_run_rejected(self):
        params = SetupParams(5.0)
        record = self._proportional_record(params)
        zeros = {o: 0 for o in OUTCOMES}
        broken = CountRecord(
            setup=params,
            input_angle_deg=67.5,
            n_photons=record.n_photons,
            rng_seed=0,
            counts_psi=zeros,
            counts_plus=record.counts_plus,
            counts_minus=record.counts_minus,
        )
        with pytest.raises(InvalidInputError):
            estimate_from_counts(broken)

    def test_record_rejects_photon_numbers_beyond_a_c_long(self):
        counts = {o: 2**61 for o in OUTCOMES}
        with pytest.raises(InvalidInputError, match="n_photons"):
            CountRecord(
                setup=SetupParams(5.0),
                input_angle_deg=67.5,
                n_photons=2**63,
                rng_seed=0,
                counts_psi=counts,
                counts_plus=counts,
                counts_minus=counts,
            )

    def test_record_requires_full_outcome_coverage(self):
        with pytest.raises(InvalidInputError):
            CountRecord(
                setup=SetupParams(5.0),
                input_angle_deg=67.5,
                n_photons=10,
                rng_seed=0,
                counts_psi={(1, 1): 10},
                counts_plus={o: 10 for o in OUTCOMES},
                counts_minus={o: 10 for o in OUTCOMES},
            )


class TestBootstrap:
    def test_estimates_within_three_standard_errors(self):
        params = SetupParams(10.0)
        record = monte_carlo_counts(params, 67.5, 10**6, rng_seed=301)
        estimated = row_as_dict(estimate_from_counts(record))
        exact = row_as_dict(analytic_row(params))
        errors = bootstrap_standard_errors(record, n_resamples=200, rng_seed=301)
        for field in ("aopt_m1_plus", "aopt_m1_minus", "aopt_pp", "aopt_pm",
                      "aopt_mp", "aopt_mm"):
            assert abs(estimated[field] - exact[field]) <= 3.0 * errors[field]

    def test_standard_errors_scale_with_counts(self):
        params = SetupParams(8.0)
        small = monte_carlo_counts(params, 67.5, 10_000, rng_seed=51)
        large = monte_carlo_counts(params, 67.5, 1_000_000, rng_seed=51)
        se_small = bootstrap_standard_errors(small, n_resamples=100, rng_seed=1)
        se_large = bootstrap_standard_errors(large, n_resamples=100, rng_seed=1)
        for key in ("aopt_pp", "eps_opt_m1m2", "eps_eigen"):
            assert se_small[key] > 0.0
            assert se_large[key] < se_small[key]

    def test_deterministic(self):
        record = monte_carlo_counts(SetupParams(8.0), 67.5, 10_000, rng_seed=51)
        first = bootstrap_standard_errors(record, n_resamples=50, rng_seed=9)
        second = bootstrap_standard_errors(record, n_resamples=50, rng_seed=9)
        assert first == second
