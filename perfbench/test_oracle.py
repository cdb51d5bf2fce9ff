"""Tests of the benchmark's closed-form oracle against values stated for the
instrument independently of seqpol's code, and of the crossing check's rule
for a root on the edge of the grid.

    python3 -m pytest perfbench/test_oracle.py
"""

import math

import numpy as np
import pytest

import checks
import oracle

PAPER_ANGLE = 67.5


def test_rare_readout_at_zero_strength_is_sqrt2_plus_1():
    p, c = oracle.sequential(np.array([0.0]), 1.0, 1.0, PAPER_ANGLE)
    estimates = c[0] / p[0]
    # m2 = +1 is the rare readout for the 67.5 degree input; m1 carries no information.
    assert estimates[0] == pytest.approx(math.sqrt(2) + 1, abs=1e-12)
    assert estimates[2] == pytest.approx(math.sqrt(2) + 1, abs=1e-12)
    assert estimates[1] == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
    assert estimates[3] == pytest.approx(math.sqrt(2) - 1, abs=1e-12)


def test_sign_flip_crossing():
    assert oracle.sign_flip_theta(1.0, PAPER_ANGLE) == pytest.approx(11.25, abs=1e-12)
    assert oracle.sign_flip_theta(0.93, PAPER_ANGLE) == pytest.approx(12.373, abs=5e-4)
    theta = oracle.sign_flip_theta(0.93, PAPER_ANGLE)
    _, c = oracle.sequential(np.array([theta - 1e-6, theta + 1e-6]), 0.93, 0.9976, PAPER_ANGLE)
    assert c[0, 3] > 0.0 > c[1, 3]


def test_h_input_has_its_sign_flip_at_zero_strength_and_keeps_its_sign():
    theta = np.linspace(0.0, 22.5, 46)
    assert oracle.sign_flip_theta(1.0, 0.0) == 0.0
    _, c = oracle.sequential(theta, 1.0, 1.0, 0.0)
    curve = oracle.sign_flip_curve(theta, 1.0, 0.0)
    assert np.allclose(c[:, 2], curve, atol=1e-15) and np.allclose(c[:, 3], curve, atol=1e-15)
    assert curve[0] == 0.0 and np.all(curve[1:] < 0.0)


@pytest.mark.parametrize("sign_flip", [None, 0.0])
def test_crossing_check_accepts_no_root_or_the_endpoint_for_an_edge_root(sign_flip):
    theta = np.linspace(0.0, 22.5, 46)
    rows = [{"theta_deg": sign_flip}, {"theta_deg": None}]
    assert checks.check_crossings(rows, theta, 1.0, 1.0, 0.0) is None


def test_crossing_check_requires_an_interior_root():
    theta = np.linspace(0.0, 22.5, 46)
    rows = [{"theta_deg": None}, {"theta_deg": None}]
    with pytest.raises(checks.CheckError):
        checks.check_crossings(rows, theta, 0.93, 0.9976, PAPER_ANGLE)


def test_calibrated_endpoint_errors():
    columns = oracle.sweep(np.array([22.5]), 0.93, 0.9976, PAPER_ANGLE)
    assert columns["p_error"][0] == pytest.approx(0.035, abs=1e-15)
    assert columns["eps_eigen"][0] == pytest.approx(0.14, abs=1e-15)


@pytest.mark.parametrize("v_pm, v_hv, angle", [(0.93, 0.9976, 67.5), (1.0, 1.0, 20.0),
                                               (0.5, 0.8, -45.0), (0.0, 0.0, 0.0)])
def test_effects_form_a_povm(v_pm, v_hv, angle):
    theta = np.linspace(0.0, 22.5, 31)
    e00, e01, e11 = oracle.effects(theta, v_pm, v_hv)
    assert np.allclose(e00.sum(axis=1), 1.0, atol=1e-15)
    assert np.allclose(e11.sum(axis=1), 1.0, atol=1e-15)
    assert np.allclose(e01.sum(axis=1), 0.0, atol=1e-15)
    assert np.all(e00 * e11 - e01 * e01 >= -1e-15)
    p, c = oracle.sequential(theta, v_pm, v_hv, angle)
    assert np.allclose(c.sum(axis=1), math.sin(math.radians(2 * angle)), atol=1e-15)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-15)


def test_p_error_is_the_marginal_confusion_of_a_p_input():
    theta = np.linspace(0.0, 22.5, 46)
    p, _ = oracle.sequential(theta, 0.93, 0.9976, 45.0)
    assert np.allclose(oracle.m1_sum(p)[:, 1], oracle.p_error(theta, 0.93), atol=1e-15)


def test_perfect_instrument_has_zero_optimal_error():
    columns = oracle.sweep(np.linspace(0.0, 22.5, 46), 1.0, 1.0, PAPER_ANGLE)
    assert np.all(np.abs(columns["eps_opt_m1m2"]) <= 1e-12)
    assert np.all(columns["eps_opt_m1m2"] <= columns["eps_opt_m1"] + 1e-12)


def test_eigenstate_input_has_an_identically_zero_swap_gap():
    theta = np.linspace(0.0, 22.5, 46)
    assert np.all(np.abs(oracle.branch_swap_gap(theta, 0.93, 0.9976, 45.0)) <= 1e-16)
    assert np.any(np.diff(np.sign(oracle.branch_swap_gap(theta[1:], 0.93, 0.9976, PAPER_ANGLE))))


def test_counting_estimates_are_exact_at_the_true_frequencies():
    theta = np.linspace(0.0, 22.5, 46)
    runs = oracle.run_probabilities(theta, 0.93, 0.9976, PAPER_ANGLE)
    estimated = oracle.estimates_from_frequencies(*runs, math.sin(math.radians(2 * PAPER_ANGLE)))
    exact = oracle.sweep(theta, 0.93, 0.9976, PAPER_ANGLE)
    for key, column in estimated.items():
        assert np.allclose(column, exact[key], atol=1e-12), key


def test_standard_error_of_a_frequency_is_binomial():
    theta = np.array([10.0])
    errors = oracle.counting_standard_errors(theta, 0.93, 0.9976, PAPER_ANGLE, 10**6)
    p, _ = oracle.sequential(theta, 0.93, 0.9976, PAPER_ANGLE)
    for j, suffix in enumerate(oracle.SUFFIXES):
        assert errors["p_" + suffix][0] == pytest.approx(math.sqrt(p[0, j] * (1 - p[0, j]) / 1e6),
                                                         rel=1e-6)
