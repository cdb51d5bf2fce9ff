"""Checks of seqpol's command outputs against the closed-form oracle.

Every check compares with ``oracle`` or with a property the method must
have, never with a stored copy of earlier output.  A wrong value raises
``CheckError``.  ``crossings`` also has a rule whose violation makes the
operation count as failed rather than wrong: for a P or M eigenstate input
c_m = P(m), the branch-swap gap vanishes identically, and no finite swap
strength may be reported.
"""

import csv
import io
import json
import math

import numpy as np

import oracle

TOL = 1e-12
NEGATIVITY_TOL = 1e-10
CROSSING_TOL_DEG = 0.01
# Monte Carlo estimates must lie within MC_SIGMAS delta-method standard errors
# of the oracle, plus MC_SECOND_ORDER / n for the second-order fluctuation
# that dominates where the first-order gradient vanishes (eps_opt_m1 at 0 deg).
MC_SIGMAS = 7.0
MC_SECOND_ORDER = 50.0
# A bootstrap standard error of p_* must lie within this factor of sqrt(p(1-p)/n).
BOOTSTRAP_FACTOR = 1.5


class CheckError(Exception):
    """An operation produced output that contradicts the oracle or a property."""


def parse_rows(text: str, fmt: str) -> list[dict]:
    """Rows of a CSV or JSON artifact; empty CSV cells become None."""
    if fmt == "json":
        return json.loads(text)

    def cell(value: str):
        if value == "":
            return None
        if value in ("true", "false"):
            return value == "true"
        try:
            return float(value)
        except ValueError:
            return value

    return [{k: cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _close(name: str, got, want: float, tol: float) -> None:
    if got is None or not abs(got - want) <= tol:
        raise CheckError(f"{name}: got {got!r}, oracle {want!r} (tolerance {tol:.3g})")


def _column(rows: list[dict], key: str) -> np.ndarray:
    return np.array([row[key] for row in rows], dtype=float)


def check_grid(rows: list[dict], theta_min: float, steps: int) -> np.ndarray:
    theta = _column(rows, "theta_deg")
    if len(theta) != steps or theta[0] != theta_min or not np.all(np.diff(theta) > 0):
        raise CheckError(f"grid of {len(theta)} points does not start at {theta_min} and rise")
    if theta[-1] > 22.5 + 1e-9:
        raise CheckError(f"grid ends at {theta[-1]}, beyond 22.5 degrees")
    return theta


def check_sweep(rows, theta, v_pm, v_hv, angle) -> None:
    """Rows match the oracle to 1e-12 (1e-12 / P(m) for conditional averages)."""
    want = oracle.sweep(theta, v_pm, v_hv, angle)
    p, _ = oracle.sequential(theta, v_pm, v_hv, angle)
    p1 = oracle.m1_sum(p)
    scale = {"aopt_m1_plus": p1[:, 0], "aopt_m1_minus": p1[:, 1]}
    scale.update({"aopt_" + s: p[:, j] for j, s in enumerate(oracle.SUFFIXES)})
    mean_a = math.sin(math.radians(2.0 * angle))
    for i, row in enumerate(rows):
        for key, column in want.items():
            tol = TOL / scale[key][i] if key in scale else TOL
            _close(f"sweep {key} at {theta[i]}", row[key], column[i], tol)
        probs = [row["p_" + s] for s in oracle.SUFFIXES]
        estimates = [row["aopt_" + s] for s in oracle.SUFFIXES]
        _close(f"sweep sum P(m) aopt(m) at {theta[i]}",
               sum(q * a for q, a in zip(probs, estimates)), mean_a, 4 * TOL)
        marginal = (probs[0] + probs[1]) * row["aopt_m1_plus"] + (
            probs[2] + probs[3]) * row["aopt_m1_minus"]
        _close(f"sweep sum P(m1) aopt(m1) at {theta[i]}", marginal, mean_a, 4 * TOL)
        eigen, opt_m1, opt_m1m2 = row["eps_eigen"], row["eps_opt_m1"], row["eps_opt_m1m2"]
        if not opt_m1m2 <= opt_m1 + TOL or not opt_m1 <= eigen + TOL:
            raise CheckError(f"sweep errors out of order at {theta[i]}: {opt_m1m2}, {opt_m1}, {eigen}")
        _close(f"sweep eps_eigen = 4 p_error at {theta[i]}", eigen, 4.0 * row["p_error"], TOL)


def _changes_sign(values: np.ndarray) -> bool:
    """Whether the nonzero values include two of strictly opposite sign."""
    nonzero = values[values != 0.0]
    return bool(np.any(nonzero[:-1] * nonzero[1:] < 0.0))


def check_crossings(rows, theta, v_pm, v_hv, angle) -> str | None:
    """Returns a failure reason for an eigenstate input with a finite swap."""
    if len(rows) != 2:
        raise CheckError(f"crossings gave {len(rows)} rows, expected 2")
    sign_flip, swap = rows[0]["theta_deg"], rows[1]["theta_deg"]
    ratio = math.sin(math.radians(2.0 * angle)) / v_pm
    closed = oracle.sign_flip_theta(v_pm, angle) if abs(ratio) <= 1.0 else None
    in_grid = closed is not None and theta[0] <= closed <= theta[-1]
    at_edge = in_grid and min(closed - theta[0], theta[-1] - closed) <= CROSSING_TOL_DEG
    if at_edge and sign_flip is None and not _changes_sign(oracle.sign_flip_curve(theta, v_pm, angle)):
        pass  # the root is a grid endpoint and the curve keeps its sign inside the grid
    elif in_grid:
        _close("sign-flip crossing", sign_flip, closed, CROSSING_TOL_DEG)
    elif sign_flip is not None:
        raise CheckError(f"sign-flip crossing at {sign_flip}, but none lies in the grid")
    eigenstate = abs(abs(math.sin(math.radians(2.0 * angle))) - 1.0) <= TOL
    if eigenstate:
        return None if swap is None else f"eigenstate input reports a branch swap at {swap}"
    if swap is not None:
        gap = oracle.branch_swap_gap(np.array([swap - CROSSING_TOL_DEG, swap + CROSSING_TOL_DEG]),
                                     v_pm, v_hv, angle)
        if gap[0] * gap[1] > 0.0:
            raise CheckError(f"oracle swap gap keeps its sign around the reported {swap}")
    elif np.any(np.diff(np.sign(oracle.branch_swap_gap(theta[theta > 0], v_pm, v_hv, angle)))):
        raise CheckError("no branch swap reported, but the oracle gap changes sign")
    return None


def check_lgi(rows, theta, v_pm, v_hv, angle) -> None:
    q_plus, q_minus = oracle.quasi_probability(theta, v_pm, v_hv, angle)
    p, _ = oracle.sequential(theta, v_pm, v_hv, angle)
    mean_a = math.sin(math.radians(2.0 * angle))
    for i, row in enumerate(rows):
        plus = [row["q_plus_" + s] for s in oracle.SUFFIXES]
        minus = [row["q_minus_" + s] for s in oracle.SUFFIXES]
        for j, s in enumerate(oracle.SUFFIXES):
            _close(f"lgi q_plus_{s} at {theta[i]}", plus[j], q_plus[i, j], TOL)
            _close(f"lgi q_minus_{s} at {theta[i]}", minus[j], q_minus[i, j], TOL)
            _close(f"lgi q+ + q- = P({s}) at {theta[i]}", plus[j] + minus[j], p[i, j], TOL)
        _close(f"lgi sum q+ at {theta[i]}", sum(plus), 0.5 * (1.0 + mean_a), TOL)
        if row["negativity"] != (min(plus + minus) < -NEGATIVITY_TOL):
            raise CheckError(f"lgi negativity flag {row['negativity']} disagrees at {theta[i]}")


def check_reconstruct(rows, theta, v_pm, v_hv, angle, lam) -> None:
    p, c = oracle.sequential(theta, v_pm, v_hv, angle)
    if len(rows) != 4 * len(theta):
        raise CheckError(f"reconstruct gave {len(rows)} rows for {len(theta)} strengths")
    for k, row in enumerate(rows):
        i, j = divmod(k, 4)
        where = f"reconstruct {oracle.OUTCOMES[j]} at {theta[i]}"
        if (row["theta_deg"], row["m1"], row["m2"]) != (theta[i], *oracle.OUTCOMES[j]):
            raise CheckError(f"{where}: row out of order")
        _close(where + " lam", row["lam"], lam, 0.0)
        if not row["abs_diff"] <= TOL:
            raise CheckError(f"{where}: abs_diff {row['abs_diff']!r} above {TOL}")
        _close(where + " abs_diff", row["abs_diff"],
               abs(row["corr_reconstructed"] - row["corr_direct"]), 0.0)
        _close(where + " corr_direct", row["corr_direct"], c[i, j], TOL)
        _close(where + " p_outcome", row["p_outcome"], p[i, j], TOL)
        _close(where + " a_opt", row["a_opt"], c[i, j] / p[i, j], TOL / p[i, j])


def check_montecarlo(rows, theta, v_pm, v_hv, angle, n_photons) -> None:
    """Each estimate within MC_SIGMAS standard errors of the oracle."""
    want = oracle.sweep(theta, v_pm, v_hv, angle)
    errors = oracle.counting_standard_errors(theta, v_pm, v_hv, angle, n_photons)
    for i, row in enumerate(rows):
        for key, error in errors.items():
            tol = MC_SIGMAS * error[i] + MC_SECOND_ORDER / n_photons
            _close(f"montecarlo {key} at {theta[i]}", row[key], want[key][i], tol)


def check_counts(record, row, n_photons) -> None:
    """Every counting run sums to n, and the row's p_* are the input run's frequencies."""
    if row["theta_deg"] != record.setup.theta_deg:
        raise CheckError(f"row at {row['theta_deg']} paired with counts at {record.setup.theta_deg}")
    for name, counts in record.runs().items():
        if sum(counts.values()) != n_photons:
            raise CheckError(f"counts of run {name} sum to {sum(counts.values())}, not {n_photons}")
    for outcome, s in zip(oracle.OUTCOMES, oracle.SUFFIXES):
        _close(f"montecarlo p_{s} from counts", row["p_" + s],
               record.counts_psi[outcome] / n_photons, 0.0)


def check_bootstrap(errors, theta, v_pm, v_hv, angle, n_photons) -> None:
    p, _ = oracle.sequential(np.array([theta]), v_pm, v_hv, angle)
    for j, s in enumerate(oracle.SUFFIXES):
        binomial = math.sqrt(p[0, j] * (1.0 - p[0, j]) / n_photons)
        ratio = errors["p_" + s] / binomial
        if not 1.0 / BOOTSTRAP_FACTOR <= ratio <= BOOTSTRAP_FACTOR:
            raise CheckError(f"bootstrap SE of p_{s} at {theta} is {ratio:.3f} x binomial")
