import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from seqpol.instrument import OUTCOMES

from closed_forms import _oracle_first_root, oracle_find_crossings
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

    @pytest.mark.parametrize("angle", [math.nan, math.inf, "67.5", None,
                                       pytest.param(10**400, id="10**400")])
    def test_rejects_a_bad_input_angle(self, angle):
        with pytest.raises(InvalidInputError, match="^input_angle_deg must be finite"):
            SweepConfig(input_angle_deg=angle)

    def test_validates_without_a_setup_per_setting(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            harness, "SetupParams", lambda *args: built.append(args) or SetupParams(*args)
        )
        run_sweep(SweepConfig(theta_grid=tuple(range(20)), v_pm=0.9))
        # the settings go through the number rules alone, with no setup built
        assert built == []


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


class TestRouteRules:
    """Both routes on one unphysical stack, P = 0.25 and c = 0.5 per outcome: both m1
    outcomes get the estimate 2, whose minimal errors are 1 - 4 = -3."""

    P, C = np.full((1, 4), 0.25), np.full((1, 4), 0.5)

    def test_the_sweep_rejects_a_negative_error(self, monkeypatch):
        monkeypatch.setattr(harness, "stack_terms", lambda *args: (self.P, self.C))
        with pytest.raises(InvalidInputError,
                           match=r"^squared error -3\.0 is negative beyond tolerance$"):
            run_sweep(SweepConfig((5.0,)))

    def test_the_count_table_keeps_a_negative_error(self, monkeypatch):
        monkeypatch.setattr(harness, "calibrated_columns", lambda *args: (self.P, self.C))
        counts = np.array([[[250, 250, 250, 250]] * 3])
        columns = harness._count_columns([5.0], 67.5, 1000, counts)
        # eps_eigen is 4 p_error, as the calibration runs confuse symmetrically
        assert columns[12:].tolist() == [[2.0], [-3.0], [-3.0]]


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


@st.composite
def scan_curves(draw):
    """One to 50 sorted strengths with a value and a noise scale each: values at the
    noise edge NOISE_EPS * scale, one ulp either side of it, signed zeros or random."""
    thetas = sorted(draw(st.lists(st.floats(0.0, 22.5), min_size=1, max_size=50)))
    values, scales = [], []
    for _ in thetas:
        scale = draw(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1e3)))
        edge = float(harness.NOISE_EPS * scale)
        value = draw(st.one_of(
            st.sampled_from((edge, math.nextafter(edge, math.inf), math.nextafter(edge, 0.0))),
            st.sampled_from((0.0, -0.0)), st.floats(-1.0, 1.0)))
        values.append(value * draw(st.sampled_from((1.0, -1.0))))
        scales.append(scale)
    return thetas, values, scales


class TestFirstRoot:
    @settings(max_examples=500, deadline=None)
    @given(curve=scan_curves())
    @example(curve=([1.0, 2.0, 3.0], [0.0, harness.NOISE_EPS, -0.0], [1.0, 1.0, 1.0]))
    @example(curve=([1.0, 2.0, 3.0], [1.0, 0.0, -1.0], [1.0, 1.0, 1.0]))
    @example(curve=([1.0, 2.0, 3.0, 4.0], [1.0, 1e-17, -1e-17, -1.0], [1.0, 1.0, 1.0, 1.0]))
    def test_equals_the_loop_scan(self, curve):
        # the same root and the same bisection calls of f, in the same order and types
        def recording(calls):
            return lambda theta: calls.append(theta) or float(hash(theta) % 5 - 2)

        thetas, values, scales = curve
        calls, oracle_calls = [], []
        root = harness._first_root(np.array(thetas), np.array(values), np.array(scales),
                                   recording(calls))
        oracle_root = _oracle_first_root(zip(thetas, values, scales), recording(oracle_calls))
        assert repr(root) == repr(oracle_root)
        assert repr(calls) == repr(oracle_calls)


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


# A record whose eigenvalue-assignment error once failed to reconcile: the m1 = -1
# marginal of the input run holds 2 photons in 10**9.
FOUND_RECORD = (SetupParams(5.0), 67.5, 10**9, 0,
                {(1, 1): 10**9 // 2 - 2, (1, -1): 10**9 // 2, (-1, 1): 2, (-1, -1): 0},
                {(1, 1): 0, (1, -1): 0, (-1, 1): 10**9 // 2, (-1, -1): 10**9 // 2},
                dict.fromkeys(OUTCOMES, 10**9 // 4))


@st.composite
def integer_records(draw):
    """The arguments of records whose runs each split n into four integer counts at
    three cut points: anywhere, within 3 of either end or within 3 of n / 2, so that
    an outcome holds a few photons, or none, beside large ones."""
    n = draw(st.one_of(st.sampled_from([1, 2, 2**53 - 1, 2**53 + 1, 10**9, 2**63 - 1]),
                       st.integers(1, 2**63 - 1)))
    near = [st.integers(0, n), st.integers(0, min(3, n)), st.integers(max(n - 3, 0), n),
            st.integers(max(n // 2 - 3, 0), min(n // 2 + 3, n))]
    runs = []
    for _ in range(3):
        cuts = [0, *sorted(draw(st.lists(st.one_of(*near), min_size=3, max_size=3))), n]
        runs.append({o: cuts[i + 1] - cuts[i] for i, o in enumerate(OUTCOMES)})
    setup = SetupParams(draw(with_edges(THETA_EDGES, 0.0, 22.5)))
    angle = draw(with_edges((45.0, -45.0, 0.0, 67.5, 90.0), -180.0, 180.0))
    return setup, angle, n, draw(st.integers(0, 2**32)), *runs


class TestEstimateFromCounts:
    @staticmethod
    def _frequency_table(params, edit=None):
        """The count table of exact frequencies at n = 1: the three runs' outcome
        probabilities as the counts of one photon, ``edit`` applied to the input run's."""
        runs = []
        for angle in (67.5, 45.0, -45.0):
            dist = outcome_probabilities(params, make_linear_polarization(angle))
            runs.append({o: dist[o] for o in OUTCOMES})
        if edit:
            edit(runs[0])
        table = np.array([[[run[o] for o in OUTCOMES] for run in runs]])
        columns = harness._count_columns([params.theta_deg], 67.5, 1, table)
        return {key: cells[0] for key, cells in harness._estimate_table(columns).items()}

    @pytest.mark.parametrize("theta", [0.0, 6.0, 12.5, 22.5])
    def test_exact_frequencies_reproduce_analytic_row(self, theta):
        params = SetupParams(theta)
        empirical = self._frequency_table(params)
        analytic = analytic_row(params)
        for key, value in analytic.items():
            assert empirical[key] == pytest.approx(value, abs=1e-9), key

    def test_zero_count_outcome_is_isolated(self):
        def empty_mp(counts):
            counts[(-1, -1)] += counts[(-1, 1)]
            counts[(-1, 1)] = 0.0

        row = self._frequency_table(SetupParams(12.5), empty_mp)
        assert row["aopt_mp"] is None
        for key in ("aopt_pp", "aopt_pm", "aopt_mm"):
            assert row[key] is not None
        assert row["eps_opt_m1m2"] is not None

    def test_all_zero_run_rejected(self):
        even, zeros = dict.fromkeys(OUTCOMES, 250_000), dict.fromkeys(OUTCOMES, 0)
        with pytest.raises(InvalidInputError,
                           match=r"^counts for run 'psi' sum to 0, expected n_photons=1000000$"):
            CountRecord(
                setup=SetupParams(5.0),
                input_angle_deg=67.5,
                n_photons=10**6,
                rng_seed=0,
                counts_psi=zeros,
                counts_plus=even,
                counts_minus=even,
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

    @pytest.mark.parametrize("run, counts, got", [
        ("psi", {(1, 1): 1000.0000001}, "1000.0000001"),
        ("plus", {(-1, 1): 500.0000001, (-1, -1): 500}, "500.0000001"),
        ("psi", {(1, 1): 250.0005, (1, -1): 250, (-1, 1): 250, (-1, -1): 250}, "250.0005"),
    ])
    def test_a_record_fails_where_its_estimate_would(self, run, counts, got):
        # real counts near n: the first two would form a probability past one and the
        # third's frequencies sum past one; each fails as a count that is not an integer
        even = dict.fromkeys(OUTCOMES, 250)
        runs = {"psi": even, "plus": even, "minus": even,
                run: {**dict.fromkeys(OUTCOMES, 0), **counts}}
        with pytest.raises(InvalidInputError) as excinfo:
            CountRecord(SetupParams(5.0), 67.5, 1000, 0, *runs.values())
        assert str(excinfo.value) == f"counts_{run} must be an integer of at least 0, got {got}"

    def test_a_near_floor_assignment_reconciles(self):
        # the m1 = -1 marginal has P = 2e-9, just above P_FLOOR, so its assignment is
        # about 3.9e8 and the eigenvalue-assignment error cancels from terms near 3e8
        record = CountRecord(*FOUND_RECORD)
        row = estimate_from_counts(record)
        assert row["p_mp"] == 2e-9 and row["aopt_mm"] is None
        assert row["aopt_m1_minus"] > 3.9e8
        assert row["eps_eigen"] == 3.7071067811865475

    @settings(max_examples=300, deadline=None)
    @given(arguments=integer_records())
    @example(arguments=FOUND_RECORD)
    def test_an_integer_record_that_builds_estimates(self, arguments):
        # k / n lies in [0, 1] for 0 <= k <= n, and each run sums to n exactly
        record = CountRecord(*arguments)
        estimate_from_counts(record)
        n = record.n_photons
        for counts in record.runs().values():
            total = 0.0
            for outcome in OUTCOMES:
                total += counts[outcome] / n
            assert abs(total - 1.0) <= 4 * np.finfo(float).eps

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
        ("rng_seed", -1), ("setup", "x"), ("setup", None), ("setup", (5.0, 0.93, 0.9976)),
    ])
    def test_record_rejects_a_bad_angle_or_seed(self, field, value):
        counts = dict.fromkeys(OUTCOMES, 250)
        arguments = dict(setup=SetupParams(5.0), input_angle_deg=67.5, n_photons=1000, rng_seed=0,
                         counts_psi=counts, counts_plus=counts, counts_minus=counts)
        with pytest.raises(InvalidInputError, match=f"^{field} must be"):
            CountRecord(**{**arguments, field: value})

    @pytest.mark.parametrize("count, got", [
        pytest.param(count, got, id=name) for name, count, got in [
            ("2.5", "2.5", "'2.5'"), ("None", None, "None"), ("2.5j", 2.5j, "2.5j"),
            ("count3", [1], "[1]"), ("-1", -1, "-1"), ("nan", math.nan, "nan"),
            ("inf", math.inf, "inf"), ("float", 2.5, "2.5"), ("whole float", 250.0, "250.0"),
            ("numpy float", np.float32(2.0), "np.float32(2.0)"), ("bool", True, "True"),
        ]
    ])
    def test_record_rejects_a_count_that_is_not_an_integer(self, count, got):
        counts = dict.fromkeys(OUTCOMES, 250)
        with pytest.raises(InvalidInputError) as excinfo:
            CountRecord(SetupParams(5.0), 67.5, 1000, 0, counts, counts,
                        {**counts, OUTCOMES[0]: count})
        assert str(excinfo.value) == f"counts_minus must be an integer of at least 0, got {got}"

    @pytest.mark.parametrize("count, total", [
        pytest.param(10**400, repr(10**400 + 750), id="10**400"),
        pytest.param(10**5000, "<int too long to print>", id="10**5000")])
    def test_a_count_past_any_total_fails_its_run_sum(self, count, total):
        counts = dict.fromkeys(OUTCOMES, 250)
        with pytest.raises(InvalidInputError) as excinfo:
            CountRecord(SetupParams(5.0), 67.5, 1000, 0, counts, counts,
                        {**counts, OUTCOMES[0]: count})
        assert str(excinfo.value) == (
            f"counts for run 'minus' sum to {total}, expected n_photons=1000")

    def test_record_keeps_numpy_integer_counts_as_python_ints(self):
        counts = dict(zip(OUTCOMES, [np.int64(1), np.uint8(2), 3, np.int32(1)]))
        record = CountRecord(SetupParams(5.0), 67.5, 7, 0, counts, counts, counts)
        assert record.counts_psi == counts
        assert {type(k) for run in record.runs().values() for k in run.values()} == {int}
        assert record._counts().dtype == np.int64

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
