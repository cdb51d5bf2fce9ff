"""The batched effect kernel against the one-effect-at-a-time oracle.

``effect_stack`` builds every effect of a strength grid in one array and
``stack_terms`` takes (P, c) over it; the loop-built ``oracle_povm`` with the
scalar ``born_probability`` and ``real_cross_correlation`` is the reference.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpol import (
    OUTCOMES,
    P_FLOOR,
    InvalidInputError,
    PovmElement,
    PovmSet,
    SetupParams,
    born_probability,
    hermitian_eigenvalues,
    make_linear_polarization,
    make_stokes,
    real_cross_correlation,
    validate_povm,
)
from seqpol.analysis import stack_terms
from seqpol.cli import main
from seqpol.instrument import _check_effects, effect_stack

from closed_forms import oracle_povm
from conftest import ANGLE_EDGES, THETA_EDGES, V_HV_EDGES, V_PM_EDGES, with_edges

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
            assert oracle.labels() == OUTCOMES
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
            "Hermitian": (2, 0, 0, 1, 1e-9j),
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
