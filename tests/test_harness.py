import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpol import (
    CountRecord,
    InvalidInputError,
    SetupParams,
    SweepConfig,
    bootstrap_standard_errors,
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
    SWEEP_COLUMNS,
    analytic_row,
    default_theta_grid,
    run_montecarlo,
)
from seqpol import harness
from seqpol.instrument import OUTCOMES, V_HV_DEFAULT

from closed_forms import oracle_find_crossings
from conftest import SQRT2, THETA_EDGES, V_HV_EDGES, V_PM_EDGES, with_edges

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

    @pytest.mark.parametrize("grid, v_pm, message", [
        ((30.0, 1.0), 2.0, "theta_deg must lie"),
        ((1.0, 30.0), 2.0, "v_pm must lie"),
        ((1.0, math.nan), 0.93, "theta_deg must be finite"),
        ((1.0,), math.inf, "v_pm must be finite"),
    ])
    def test_reports_what_a_setup_reports_first(self, grid, v_pm, message):
        # the first setting, then the visibilities, then the other settings
        with pytest.raises(InvalidInputError, match=message):
            SweepConfig(theta_grid=grid, v_pm=v_pm)

    def test_validates_without_a_setup_per_setting(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            harness, "SetupParams", lambda *args: built.append(args) or SetupParams(*args)
        )
        run_sweep(SweepConfig(theta_grid=tuple(range(20)), v_pm=0.9))
        assert built == [(0.0, 0.9, V_HV_DEFAULT)]


class TestRunSweep:
    def test_zero_strength_estimates_depend_only_on_m2(self):
        config = SweepConfig(theta_grid=(0.0,), v_pm=1.0, v_hv=1.0)
        table = run_sweep(config)
        assert table["aopt_pp"] == [pytest.approx(SQRT2 + 1, abs=1e-9)]
        assert table["aopt_mp"] == [pytest.approx(SQRT2 + 1, abs=1e-9)]
        assert table["aopt_pm"] == [pytest.approx(SQRT2 - 1, abs=1e-9)]
        assert table["aopt_mm"] == [pytest.approx(SQRT2 - 1, abs=1e-9)]

    def test_perfect_instrument_reaches_zero_error(self):
        table = run_sweep(SweepConfig(v_pm=1.0, v_hv=1.0))
        for value in table["eps_opt_m1m2"]:
            assert abs(value) <= 1e-9

    def test_calibrated_eigenvalue_error_endpoint(self):
        table = run_sweep(SweepConfig(theta_grid=(22.5,), v_pm=0.93))
        assert table["eps_eigen"] == [pytest.approx(0.14, abs=1e-9)]
        assert table["p_error"] == [pytest.approx(0.035, abs=1e-12)]

    @pytest.mark.parametrize("visibilities", [(1.0, 1.0), (0.93, 0.9976)])
    def test_strategy_ordering(self, visibilities):
        table = run_sweep(SweepConfig(v_pm=visibilities[0], v_hv=visibilities[1]))
        for m1m2, m1, eigen in zip(table["eps_opt_m1m2"], table["eps_opt_m1"], table["eps_eigen"]):
            assert m1m2 <= m1 + 1e-9
            assert m1 <= eigen + 1e-9

    def test_marginal_error_monotone_for_perfect_instrument(self):
        values = run_sweep(SweepConfig(v_pm=1.0, v_hv=1.0))["eps_opt_m1"]
        for previous, current in zip(values, values[1:]):
            assert current <= previous + 1e-12

    def test_rows_are_deterministic(self):
        config = SweepConfig(theta_grid=(3.0, 12.0))
        assert run_sweep(config) == run_sweep(config)

    def test_row_key_order(self):
        row = analytic_row(SetupParams(10.0))
        assert list(row) == [
            "theta_deg", "p_error", "p_pp", "p_pm", "p_mp", "p_mm",
            "aopt_m1_plus", "aopt_m1_minus", "aopt_pp", "aopt_pm", "aopt_mp", "aopt_mm",
            "eps_eigen", "eps_opt_m1", "eps_opt_m1m2",
        ]
        assert list(run_sweep(SweepConfig(theta_grid=(3.0, 12.0)))) == list(row)


def even_grid(a: float, b: float, steps: int) -> list[float]:
    """``steps`` evenly spaced strengths from the smaller of a and b to the larger."""
    lo, hi = sorted((a, b))
    return [min(hi, lo + (hi - lo) * i / max(steps - 1, 1)) for i in range(steps)]


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

    @settings(max_examples=300, deadline=None)
    @given(
        thetas=st.one_of(
            st.lists(with_edges(THETA_EDGES, 0.0, 22.5), min_size=1, max_size=60),
            st.builds(even_grid, with_edges(THETA_EDGES, 0.0, 22.5),
                      with_edges(THETA_EDGES, 0.0, 22.5), st.integers(1, 300)),
        ),
        v_pm=with_edges(V_PM_EDGES, 0.0, 1.0),
        v_hv=with_edges(V_HV_EDGES, 0.0, 1.0),
        angle=with_edges((0.0, 45.0, -45.0, 90.0, 10.0, 67.5), -180.0, 180.0),
    )
    def test_equals_the_dict_scan(self, thetas, v_pm, v_hv, angle):
        config = SweepConfig(tuple(thetas), v_pm, v_hv, angle)
        assert repr(find_crossings(config)) == repr(oracle_find_crossings(config))


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

    @pytest.mark.parametrize("name, n_photons, rng_seed", [
        ("n_photons", 10.9, 1), ("n_photons", 10.0, 1), ("n_photons", True, 1),
        ("n_photons", "10", 1), ("rng_seed", 10, 2.7), ("rng_seed", 10, True),
        ("rng_seed", 10, None),
    ])
    def test_rejects_non_integers(self, name, n_photons, rng_seed):
        with pytest.raises(InvalidInputError, match=rf"^{name} must be an integer of at least"):
            monte_carlo_counts(SetupParams(5.0), 67.5, n_photons, rng_seed=rng_seed)
        with pytest.raises(InvalidInputError, match=rf"^{name} must be an integer of at least"):
            harness._draw_counts(SweepConfig((5.0, 6.0)), n_photons, rng_seed)

    def test_numpy_integers_draw_as_python_integers(self):
        record = monte_carlo_counts(SetupParams(5.0), 67.5, np.int64(10), rng_seed=np.uint8(3))
        assert record == monte_carlo_counts(SetupParams(5.0), 67.5, 10, rng_seed=3)
        assert type(record.n_photons) is int and type(record.rng_seed) is int

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
        empirical = estimate_from_counts(self._proportional_record(params))
        analytic = analytic_row(params)
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
        assert row["aopt_mp"] is None
        for key in ("aopt_pp", "aopt_pm", "aopt_mm"):
            assert row[key] is not None
        assert row["eps_opt_m1m2"] is not None

    def test_all_zero_run_rejected(self):
        params = SetupParams(5.0)
        record = self._proportional_record(params)
        zeros = {o: 0 for o in OUTCOMES}
        with pytest.raises(InvalidInputError,
                           match=r"^counts for run 'psi' sum to 0, expected n_photons=1000000$"):
            CountRecord(
                setup=params,
                input_angle_deg=67.5,
                n_photons=record.n_photons,
                rng_seed=0,
                counts_psi=zeros,
                counts_plus=record.counts_plus,
                counts_minus=record.counts_minus,
            )

    def test_record_runs_must_sum_to_n_photons(self):
        # checked psi, plus, minus: the first run off the total is named
        good, off = dict.fromkeys(OUTCOMES, 250), dict.fromkeys(OUTCOMES, 1)
        for runs, name in (((off, off, off), "psi"), ((good, off, off), "plus"),
                           ((good, good, off), "minus")):
            with pytest.raises(InvalidInputError) as excinfo:
                CountRecord(SetupParams(5.0), 67.5, 1000, 0, *runs)
            assert str(excinfo.value) == (
                f"counts for run '{name}' sum to 4, expected n_photons=1000")

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

    def test_record_rejects_a_non_integer_photon_number(self):
        counts = {o: 2.5 for o in OUTCOMES}
        with pytest.raises(InvalidInputError, match="^n_photons must be an integer"):
            CountRecord(SetupParams(5.0), 67.5, 10.0, 0, counts, counts, counts)

    @pytest.mark.parametrize("field, value", [
        ("input_angle_deg", "67.5"), ("input_angle_deg", math.nan), ("input_angle_deg", math.inf),
        ("input_angle_deg", None), ("rng_seed", "x"), ("rng_seed", 2.7), ("rng_seed", True),
        ("rng_seed", -1),
    ])
    def test_record_rejects_a_bad_angle_or_seed(self, field, value):
        counts = dict.fromkeys(OUTCOMES, 250)
        arguments = dict(setup=SetupParams(5.0), input_angle_deg=67.5, n_photons=1000, rng_seed=0,
                         counts_psi=counts, counts_plus=counts, counts_minus=counts)
        with pytest.raises(InvalidInputError, match=f"^{field} must be"):
            CountRecord(**{**arguments, field: value})

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


class TestRunMontecarlo:
    @settings(max_examples=60, deadline=None)
    @given(
        thetas=st.lists(with_edges(THETA_EDGES, 0.0, 22.5), min_size=1, max_size=5),
        n_photons=st.sampled_from([1, 10**4, 2**63 - 1]),
        seed=st.one_of(st.just(0), st.integers(min_value=0, max_value=2**128)),
        visibilities=st.sampled_from([(0.93, 0.9976), (1.0, 1.0), (0.0, 0.5)]),
        angle=st.sampled_from([67.5, 10.0, 45.0, 0.0]),
    )
    def test_table_equals_the_one_point_views(self, thetas, n_photons, seed, visibilities,
                                              angle):
        config = SweepConfig(tuple(thetas), *visibilities, angle)
        table = run_montecarlo(config, n_photons, seed)
        assert list(table) == SWEEP_COLUMNS
        rows = [estimate_from_counts(monte_carlo_counts(SetupParams(theta, *visibilities), angle,
                                                        n_photons, seed + index))
                for index, theta in enumerate(config.theta_grid)]
        # cell for cell, to the last bit and with None in the same places
        assert {key: list(map(repr, cells)) for key, cells in table.items()} == {
            key: [repr(row[key]) for row in rows] for key in SWEEP_COLUMNS}


class TestBootstrap:
    def test_estimates_within_three_standard_errors(self):
        params = SetupParams(10.0)
        record = monte_carlo_counts(params, 67.5, 10**6, rng_seed=301)
        estimated = estimate_from_counts(record)
        exact = analytic_row(params)
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

    @pytest.mark.parametrize("name, value", [
        ("n_resamples", 1), ("n_resamples", 2.7), ("n_resamples", 200.0), ("n_resamples", True),
        ("n_resamples", "200"), ("rng_seed", -1), ("rng_seed", 1.5), ("rng_seed", None),
    ])
    def test_rejects_bad_arguments(self, name, value):
        record = monte_carlo_counts(SetupParams(8.0), 67.5, 1_000, rng_seed=51)
        arguments = {"n_resamples": 20, "rng_seed": 4, name: value}
        with pytest.raises(InvalidInputError, match=rf"^{name} must be an integer of at least"):
            bootstrap_standard_errors(record, **arguments)

    def test_numpy_integers_count_as_integers(self):
        record = monte_carlo_counts(SetupParams(8.0), 67.5, 1_000, rng_seed=51)
        assert bootstrap_standard_errors(record, np.int64(20), np.uint8(4)) == (
            bootstrap_standard_errors(record, 20, 4))
