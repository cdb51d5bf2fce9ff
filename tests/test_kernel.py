"""The batched array steps against their one-at-a-time oracles.

``effect_stack`` builds every effect of a strength grid in one float64 array
and ``stack_terms`` takes (P, c) over it; the loop-built ``oracle_povm`` with the
scalar ``born_probability`` and ``real_cross_correlation`` is the reference, and
with the complex128 ``oracle_stack_terms`` it pins the real kernel bit for bit.
``error_columns`` turns whole (P, c) tables into estimates and errors; the
outcome-by-outcome ``oracle_error_report`` is its reference, and a
bootstrap drawing its resamples one by one is the reference of
``bootstrap_standard_errors``.  The count table of int64 draws and of
hand-built records has the object-array ``oracle_count_table`` as reference.
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
from seqpol.analysis import P_FLOOR, calibrated_terms, error_columns, moments, stack_terms
from seqpol.cli import main
from seqpol.harness import SWEEP_COLUMNS
from seqpol.instrument import OUTCOMES, _check_effects, effect_stack

from closed_forms import (
    oracle_count_table,
    oracle_effect_stack,
    oracle_error_report,
    oracle_povm,
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

    def test_rejects_a_complex_stack_or_target(self, psi_67_5):
        # even a complex stack with zero imaginary parts: the kernel runs in float64
        effects = effect_stack((3.0,), 0.93, 0.9976)
        circular = DichotomicObservable.from_operator([[0.0, -1j], [1j, 0.0]])
        with pytest.raises(InvalidInputError, match="the effect stack is not real"):
            stack_terms(psi_67_5, effects.astype(complex), PM)
        with pytest.raises(InvalidInputError, match="the target observable is not real"):
            stack_terms(psi_67_5, effects, circular)

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
            f = {name: {o: k / n_photons for o, k in counts.items()}
                 for name, counts in record.runs().items()}
            terms = calibrated_terms(
                f["psi"], {o: (f["plus"][o], f["minus"][o]) for o in OUTCOMES}, weight, 1.0 - weight
            )
            p.append([terms[o][0] for o in OUTCOMES])
            c.append([terms[o][1] for o in OUTCOMES])
        mean = weight - (1.0 - weight)
        _assert_columns_match_the_oracle(np.array(p), np.array(c), 1.0, 1.0 - mean * mean)

    def test_rejects_what_the_reports_reject(self):
        p = np.array([[0.5, 0.5]])
        with pytest.raises(InvalidInputError, match="finite"):
            error_columns(p, np.array([[math.inf, 0.0]]), 1.0)
        with pytest.raises(InvalidInputError, match="reconcile"):
            error_columns(p, np.array([[0.1, 0.1]]), math.inf)
        with pytest.raises(InvalidInputError, match="excluded"):
            error_columns(np.array([[-0.5, 1.5]]), np.zeros((1, 2)), 1.0)
        with pytest.raises(InvalidInputError, match="negative"):
            error_columns(p, np.array([[0.5, -0.5]]), 0.5, nonnegative=True)
        # the same error passes unscreened, as on the counts route
        assert error_columns(p, np.array([[0.5, -0.5]]), 0.5).epsilon_sq.tolist() == [-0.5]


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


# The photon numbers at the edges of exact float division: one photon, a typical
# run, the first integer a double cannot hold, and the largest C long.
PHOTON_EDGES = (1, 10**4, 2**53 + 1, 2**63 - 1)
# The P and M eigenstates, where a calibration run equals the input run, and H and V.
EIGENSTATE_EDGES = (45.0, -45.0, 0.0, 90.0)


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
    # n is an exact float but the count 2**53 + 3, within the 1e-6 check of n, is
    # not: as floats the frequency reads 1.0000000000000009, as k / n ...07
    n = 2**53 - 3
    counts = np.array([[[n + 6, 0, 0, 0], [n - 5, 2, 2, 1], [n - 5, 2, 2, 1]]])
    message = _cells_or_error(_count_table, [8.0], 67.5, n, counts)
    assert message == _cells_or_error(oracle_count_table, [8.0], 67.5, n, counts.tolist())
    assert message == "P(m) must be a probability in [0, 1], got 1.0000000000000007"


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
        """The arguments of hand-built records: each run's total within the 1e-6 check
        of n, past it, or 2**64 past it, split into float counts or into Python ints,
        which pass the int64 range near the top."""
        n = draw(st.one_of(st.sampled_from(PHOTON_EDGES), st.integers(1, 2**63 - 1)))
        slack = int(1e-6 * n)
        runs = []
        as_floats = draw(st.one_of(st.just((False,) * 3), st.tuples(*[st.booleans()] * 3)))
        for as_float in as_floats:
            total = n + draw(st.one_of(st.integers(-slack, slack), st.integers(-n, 2 * slack + 2),
                                       st.just(2**64)))
            weights = draw(st.lists(st.integers(0, 2**20), min_size=4, max_size=4))
            if not any(weights):
                weights[draw(st.integers(0, 3))] = 1
            if as_float:
                counts = [total * w / sum(weights) for w in weights]
            else:
                counts = [total * w // sum(weights) for w in weights]
                counts[draw(st.integers(0, 3))] += total - sum(counts)
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

        setup, angle, n, _, *runs = arguments
        counts = [[[run[o] for o in OUTCOMES] for run in runs]]
        assert _cells_or_error(one_row_table) == _cells_or_error(
            oracle_count_table, [setup.theta_deg], angle, n, counts)


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
