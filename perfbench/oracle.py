"""Closed-form reference values for the sequential PM/HV measurement.

This module does not import seqpol.  It rebuilds every quantity the
benchmark checks from the ideal effects stated in the instrument model,

    (m2 = +1):  (cos 2t |H> + m1 sin 2t |V>) / sqrt(2)
    (m2 = -1):  (sin 2t |H> + m1 cos 2t |V>) / sqrt(2)

with the HV coherences scaled by ``v_pm`` and a fraction ``(1 - v_hv) / 2``
of each effect swapped with its m2-flipped partner.  For a real input
``cos a |H> + sin a |V>`` and the target ``S_PM`` (sigma_x) every effect is a
real symmetric 2x2 matrix, so

    P(m) = <psi|E_m|psi>,    c_m = Re<psi|E_m A|psi> = sin(2a) tr(E_m) / 2 + E_m[0, 1].

All functions take an array of strengths in degrees and return arrays of
shape (N, 4) in the outcome order (+,+), (+,-), (-,+), (-,-), or (N, 2) in
the m1 order (+1, -1).
"""

import math

import numpy as np

OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
SUFFIXES = ("pp", "pm", "mp", "mm")
M1_OF_OUTCOME = np.array([1.0, 1.0, -1.0, -1.0])


def effects(theta_deg, v_pm, v_hv):
    """Entries (e00, e01, e11) of the four effects, each of shape (N, 4)."""
    two_t = np.radians(2.0 * np.asarray(theta_deg, dtype=float))[:, None]
    c, s = np.cos(two_t), np.sin(two_t)
    keep, swap = (1.0 + v_hv) / 2.0, (1.0 - v_hv) / 2.0
    m2_plus = np.array([True, False, True, False])
    # Ideal diagonal weights for m2 = +1 are (c^2, s^2) and (s^2, c^2) for
    # m2 = -1; the readout confusion mixes the two.
    diag_same = np.where(m2_plus, c * c, s * s)
    diag_other = np.where(m2_plus, s * s, c * c)
    e00 = 0.5 * (keep * diag_same + swap * diag_other)
    e11 = 0.5 * (keep * diag_other + swap * diag_same)
    e01 = 0.5 * v_pm * M1_OF_OUTCOME * c * s * np.ones((1, 4))
    return e00, e01, e11


def sequential(theta_deg, v_pm, v_hv, input_angle_deg):
    """(P(m), c_m) for the four sequential outcomes, each (N, 4)."""
    a = math.radians(input_angle_deg)
    h, v = math.cos(a), math.sin(a)
    e00, e01, e11 = effects(theta_deg, v_pm, v_hv)
    p = h * h * e00 + 2.0 * h * v * e01 + v * v * e11
    c = 0.5 * math.sin(2.0 * a) * (e00 + e11) + e01
    return p, c


def m1_sum(table):
    """Sum a sequential (N, 4) table over m2, giving the m1 table (N, 2)."""
    return table[:, [0, 2]] + table[:, [1, 3]]


def p_error(theta_deg, v_pm):
    """Eigenstate confusion probability (1 - v_pm sin 4t) / 2."""
    return 0.5 * (1.0 - v_pm * np.sin(np.radians(4.0 * np.asarray(theta_deg, dtype=float))))


def optimal_error(p, c):
    """epsilon^2 of the conditional-average assignment: <A^2> - sum c^2 / p."""
    return 1.0 - np.sum(c * c / p, axis=1)


def sweep(theta_deg, v_pm, v_hv, input_angle_deg):
    """Every column of a sweep row, keyed by its CSV name."""
    p, c = sequential(theta_deg, v_pm, v_hv, input_angle_deg)
    p1, c1 = m1_sum(p), m1_sum(c)
    pe = p_error(theta_deg, v_pm)
    columns = {"theta_deg": np.asarray(theta_deg, dtype=float), "p_error": pe}
    for j, suffix in enumerate(SUFFIXES):
        columns["p_" + suffix] = p[:, j]
        columns["aopt_" + suffix] = c[:, j] / p[:, j]
    columns["aopt_m1_plus"] = c1[:, 0] / p1[:, 0]
    columns["aopt_m1_minus"] = c1[:, 1] / p1[:, 1]
    columns["eps_eigen"] = 4.0 * pe
    columns["eps_opt_m1"] = optimal_error(p1, c1)
    columns["eps_opt_m1m2"] = optimal_error(p, c)
    return columns


def quasi_probability(theta_deg, v_pm, v_hv, input_angle_deg):
    """q_plus and q_minus, each (N, 4): Re<psi|E_m (1 +- A)/2|psi> = (P +- c) / 2."""
    p, c = sequential(theta_deg, v_pm, v_hv, input_angle_deg)
    return 0.5 * (p + c), 0.5 * (p - c)


def sign_flip_theta(v_pm, input_angle_deg):
    """Strength where c(-1, m2) = (sin 2a - v_pm sin 4t) / 4 changes sign."""
    return math.degrees(math.asin(math.sin(math.radians(2.0 * input_angle_deg)) / v_pm)) / 4.0


def sign_flip_curve(theta_deg, v_pm, input_angle_deg):
    """c(-1, m2) = (sin 2a - v_pm sin 4t) / 4, whose root the sign-flip crossing marks."""
    four_t = np.radians(4.0 * np.asarray(theta_deg, dtype=float))
    return 0.25 * (math.sin(math.radians(2.0 * input_angle_deg)) - v_pm * np.sin(four_t))


def branch_swap_gap(theta_deg, v_pm, v_hv, input_angle_deg):
    """c(-1,+1) P(+1,+1) - c(+1,+1) P(-1,+1), whose roots the swap crossing marks."""
    p, c = sequential(theta_deg, v_pm, v_hv, input_angle_deg)
    return c[:, 2] * p[:, 0] - c[:, 0] * p[:, 2]


def estimates_from_frequencies(f_psi, f_plus, f_minus, mean_a):
    """The counting pipeline's estimates from outcome frequencies, (N, 4) each.

    Correlations come from the two eigenstate runs weighted by the input's
    eigenstate populations, c_m = P(m|+) (1 + <A>)/2 - P(m|-) (1 - <A>)/2,
    and probabilities from the input run.  ``eps_eigen`` is the general
    probability form 2 - 2 (c(m1=+1) - c(m1=-1)).
    """
    w_plus, w_minus = 0.5 * (1.0 + mean_a), 0.5 * (1.0 - mean_a)
    c = f_plus * w_plus - f_minus * w_minus
    p1, c1 = m1_sum(f_psi), m1_sum(c)
    columns = {"p_error": 0.5 * (m1_sum(f_plus)[:, 1] + m1_sum(f_minus)[:, 0])}
    for j, suffix in enumerate(SUFFIXES):
        columns["p_" + suffix] = f_psi[:, j]
        columns["aopt_" + suffix] = c[:, j] / f_psi[:, j]
    columns["aopt_m1_plus"] = c1[:, 0] / p1[:, 0]
    columns["aopt_m1_minus"] = c1[:, 1] / p1[:, 1]
    columns["eps_eigen"] = 1.0 + p1.sum(axis=1) - 2.0 * (c1[:, 0] - c1[:, 1])
    columns["eps_opt_m1"] = optimal_error(p1, c1)
    columns["eps_opt_m1m2"] = optimal_error(f_psi, c)
    return columns


def run_probabilities(theta_deg, v_pm, v_hv, input_angle_deg):
    """Outcome probabilities of the input run and the P and M calibration runs."""
    return tuple(
        sequential(theta_deg, v_pm, v_hv, angle)[0] for angle in (input_angle_deg, 45.0, -45.0)
    )


def counting_standard_errors(theta_deg, v_pm, v_hv, input_angle_deg, n_photons, step=1e-7):
    """Delta-method standard errors of the counting estimates at n photons per run.

    Each run's frequencies are multinomial with covariance (diag(p) - p p^T) / n;
    the gradient of every estimate with respect to the twelve frequencies is
    taken by central differences.  ``eps_eigen`` takes the larger error of its
    two algebraic forms, since the pipeline switches to 4 p_error when the two
    confusion counts happen to agree.
    """
    runs = run_probabilities(theta_deg, v_pm, v_hv, input_angle_deg)
    mean_a = math.sin(math.radians(2.0 * input_angle_deg))
    variance: dict[str, np.ndarray] = {}
    for r, probs in enumerate(runs):
        grads: dict[str, list[np.ndarray]] = {}
        for j in range(4):
            values = []
            for sign in (1.0, -1.0):
                shifted = [run.copy() for run in runs]
                shifted[r][:, j] += sign * step
                values.append(estimates_from_frequencies(*shifted, mean_a))
            for key in values[0]:
                grads.setdefault(key, []).append((values[0][key] - values[1][key]) / (2 * step))
        for key, columns in grads.items():
            g = np.stack(columns, axis=1)
            quad = np.einsum("ni,ni->n", g * g, probs) - np.einsum("ni,ni->n", g, probs) ** 2
            variance[key] = variance.get(key, 0.0) + quad / n_photons
    errors = {key: np.sqrt(np.maximum(value, 0.0)) for key, value in variance.items()}
    errors["eps_eigen"] = np.maximum(errors["eps_eigen"], 4.0 * errors["p_error"])
    return errors
