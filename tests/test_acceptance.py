"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines while the suite executes.
"""

import math

import numpy as np
import pytest

from seqpol import (
    DegenerateBranchError,
    EstimateTable,
    ReconstructionConfig,
    SetupParams,
    SweepConfig,
    born_probability,
    bootstrap_standard_errors,
    default_theta_grid,
    estimate_from_counts,
    expectation,
    find_crossings,
    make_linear_polarization,
    make_stokes,
    monte_carlo_counts,
    optimal_error,
    ozawa_error,
    pm_error_probability,
    pm_marginal_povm,
    quasi_probability,
    real_cross_correlation,
    reconstruct_correlation,
    sequential_povm,
    variation_states,
)
from seqpol.harness import (
    CROSSING_BRANCH_SWAP,
    CROSSING_SIGN_FLIP,
    analytic_row,
)

from conftest import SQRT2, projector, random_dichotomic, random_povm, random_state

PSI = make_linear_polarization(67.5)
PM = make_stokes("PM")
GRID = default_theta_grid()

# documented seeds for the Monte Carlo consistency criterion
MC_SEEDS = {2.0: 201, 8.0: 202, 12.3: 203, 22.5: 204}
MC_PHOTONS = 10**6
BOOTSTRAP_RESAMPLES = 200


def _report(number, name, passed):
    print(f"[acceptance] criterion {number:02d} {name}: {'PASS' if passed else 'FAIL'}")


def _sequential_estimates(params, state=PSI):
    table = {}
    for element in sequential_povm(params):
        p = born_probability(state, element)
        c = real_cross_correlation(state, element, PM.op)
        table[element.label] = c / p
    return table


def test_criterion_01_anomalous_weak_values():
    passed = False
    try:
        estimates = _sequential_estimates(SetupParams(0.0, v_pm=1.0, v_hv=1.0))
        for m1 in (1, -1):
            assert estimates[(m1, 1)] == pytest.approx(SQRT2 + 1, abs=1e-9)
            assert estimates[(m1, -1)] == pytest.approx(SQRT2 - 1, abs=1e-9)
        passed = True
    finally:
        _report(1, "anomalous weak values at zero strength", passed)


def test_criterion_02_calibration_curve():
    passed = False
    try:
        p_state = make_linear_polarization(45.0)
        for v_pm in (1.0, 0.93):
            for theta in GRID:
                params = SetupParams(theta, v_pm=v_pm)
                formula = 0.5 * (1.0 + v_pm * math.sin(math.radians(4.0 * theta)))
                by_label = {e.label: e for e in pm_marginal_povm(params)}
                assert abs(born_probability(p_state, by_label[1]) - formula) <= 1e-12
        passed = True
    finally:
        _report(2, "calibration curve matches the instrument", passed)


def _eigen_error(theta, v_pm=0.93):
    params = SetupParams(theta, v_pm=v_pm)
    table = EstimateTable({1: 1.0, -1: -1.0})
    return ozawa_error(PSI, pm_marginal_povm(params), PM, table)


def test_criterion_03_eigenvalue_assignment_error():
    passed = False
    try:
        for theta in GRID:
            report = _eigen_error(theta)
            expected = 4.0 * pm_error_probability(SetupParams(theta, v_pm=0.93))
            assert abs(report.epsilon_sq - expected) <= 1e-9

        # the error crosses the prior variance 0.5 where 4 Pe = 1/2
        def excess(theta):
            return _eigen_error(theta).epsilon_sq - 0.5

        lo, hi = 0.0, 22.5
        f_lo = excess(lo)
        while hi - lo > 0.001:
            mid = 0.5 * (lo + hi)
            f_mid = excess(mid)
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(13.5, abs=0.1)
        # cross-check against the closed-form inversion of the calibration curve
        assert root == pytest.approx(math.degrees(math.asin(0.75 / 0.93)) / 4, abs=0.001)
        passed = True
    finally:
        _report(3, "eigenvalue assignment error and variance threshold", passed)


def test_criterion_04_optimal_marginal_error_endpoint():
    passed = False
    try:
        _, report = optimal_error(PSI, pm_marginal_povm(SetupParams(22.5, v_pm=0.93)), PM)
        assert report.epsilon_sq == pytest.approx(0.119, abs=0.002)
        # frozen independent closed form: 1 - (k+a)^2/(2(1+ka)) - (k-a)^2/(2(1-ka))
        assert report.epsilon_sq == pytest.approx(0.11902035062990057, abs=1e-9)
        passed = True
    finally:
        _report(4, "optimal m1-only error endpoint", passed)


def test_criterion_05_ideal_optimal_error_vanishes():
    passed = False
    try:
        for theta in GRID:
            _, report = optimal_error(PSI, sequential_povm(SetupParams(theta, 1.0, 1.0)), PM)
            assert report.epsilon_sq <= 1e-9
            assert report.excluded_probability == 0.0
        passed = True
    finally:
        _report(5, "perfect instrument reaches zero optimal error", passed)


def test_criterion_06_crossing_points():
    passed = False
    try:
        ideal = {c.description: c.theta_deg for c in find_crossings(SweepConfig(v_pm=1.0, v_hv=1.0))}
        assert ideal[CROSSING_SIGN_FLIP] == pytest.approx(11.25, abs=0.01)

        paper = {c.description: c.theta_deg for c in find_crossings(SweepConfig())}
        assert paper[CROSSING_SIGN_FLIP] == pytest.approx(12.3, abs=0.2)

        swap = paper[CROSSING_BRANCH_SWAP]
        assert swap == pytest.approx(11.0, abs=0.5)
        # estimate inversion below the crossing, normal ordering above it
        for delta in (0.5, 2.0, 5.0):
            below = _sequential_estimates(SetupParams(swap - delta))
            assert below[(-1, 1)] > below[(1, 1)]
            above = _sequential_estimates(SetupParams(min(22.5, swap + delta)))
            assert above[(-1, 1)] < above[(1, 1)]
        passed = True
    finally:
        _report(6, "crossing points of the conditional averages", passed)


def test_criterion_07_oracle_equivalence():
    passed = False
    try:
        rng = np.random.default_rng(2024)
        checked = 0
        for lam in (0.05, 0.2, 1.0):
            config = ReconstructionConfig(lam)
            instances = 0
            while instances < 400:
                state = random_state(rng)
                observable = random_dichotomic(rng)
                povm = random_povm(rng)
                try:
                    plus, minus = variation_states(state, observable, config)
                except DegenerateBranchError:
                    continue
                mean = expectation(state, observable.op)
                mean_square = expectation(state, observable.op @ observable.op)
                for element in povm:
                    reconstructed = reconstruct_correlation(
                        born_probability(plus, element),
                        born_probability(minus, element),
                        mean,
                        mean_square,
                        config,
                    )
                    direct = real_cross_correlation(state, element, observable.op)
                    assert abs(reconstructed - direct) <= 1e-10
                instances += 1
                checked += 1
        assert checked >= 1000
        passed = True
    finally:
        _report(7, "probability reconstruction equals the operator oracle", passed)


def test_criterion_08_quasi_probability_diagnostic():
    passed = False
    try:
        for v_pm, v_hv in ((1.0, 1.0), (0.93, 0.9976)):
            for theta in GRID:
                params = SetupParams(theta, v_pm, v_hv)
                povm = sequential_povm(params)
                table = quasi_probability(PSI, povm, PM)
                for element in povm:
                    assert abs(
                        table.outcome_marginal(element.label) - born_probability(PSI, element)
                    ) <= 1e-9
                for a in (1, -1):
                    assert abs(
                        table.eigenvalue_marginal(a) - expectation(PSI, projector(PM, a))
                    ) <= 1e-9

                estimates = _sequential_estimates(params)
                largest = max(abs(v) for v in estimates.values())
                if table.negativity_present:
                    assert largest > 1.0
                if largest > 1.0 + 1e-7:
                    assert table.negativity_present
                elif largest <= 1.0 - 1e-7:
                    assert not table.negativity_present
                # within the band the exact estimate sits on the eigenvalue
                # boundary and the smallest joint weight is an fp reading of 0
                else:
                    assert min(table.entries.values()) > -1e-9
        passed = True
    finally:
        _report(8, "quasi-probability marginals and negativity criterion", passed)


def test_criterion_09_error_decomposition_identity():
    passed = False
    try:
        reports = []
        # the reports behind criteria 3, 4, and 5
        for theta in GRID:
            reports.append(_eigen_error(theta))
            reports.append(optimal_error(PSI, sequential_povm(SetupParams(theta, 1.0, 1.0)), PM)[1])
        reports.append(optimal_error(PSI, pm_marginal_povm(SetupParams(22.5, v_pm=0.93)), PM)[1])
        # randomized non-optimal assignment tables
        rng = np.random.default_rng(99)
        for _ in range(120):
            state = random_state(rng)
            observable = random_dichotomic(rng)
            povm = random_povm(rng)
            table = EstimateTable({label: rng.uniform(-3, 3) for label in povm.labels()})
            reports.append(ozawa_error(state, povm, observable, table))
        for report in reports:
            recomposed = report.mean_square - report.estimate_variance + report.residual
            assert abs(report.epsilon_sq - recomposed) <= 1e-9
        assert len(reports) > 200
        passed = True
    finally:
        _report(9, "error decomposition identity holds for every report", passed)


def test_criterion_10_monte_carlo_consistency():
    passed = False
    try:
        fields = [
            "aopt_m1_plus", "aopt_m1_minus",
            "aopt_pp", "aopt_pm", "aopt_mp", "aopt_mm",
            "eps_eigen", "eps_opt_m1", "eps_opt_m1m2",
        ]
        for theta, seed in MC_SEEDS.items():
            params = SetupParams(theta)
            record = monte_carlo_counts(params, 67.5, MC_PHOTONS, rng_seed=seed)
            estimated = estimate_from_counts(record)
            analytic = analytic_row(params)
            errors = bootstrap_standard_errors(
                record, n_resamples=BOOTSTRAP_RESAMPLES, rng_seed=seed + 1000
            )
            for field in fields:
                deviation = abs(estimated[field] - analytic[field])
                assert deviation <= 5.0 * errors[field], (theta, field)
        passed = True
    finally:
        _report(10, "Monte Carlo estimates track analytic values", passed)
