"""Closed forms of the instrument, kept as test oracles.

The effects are built one outcome at a time from the ideal state vectors, in
the loop form that ``seqpol.instrument.effect_stack`` replaces for whole
grids, and their (P, c) pairs are taken in complex128, as
``seqpol.analysis.stack_terms`` took them before it ran in float64.  The
conditional averages follow from the ideal effects with a symmetric PM error
probability and an HV readout that is fully random for P and M eigenstate
inputs.  The error report is the outcome-by-outcome loop
that ``seqpol.analysis.error_columns`` replaces for whole tables.  The count
table keeps every count a Python number in an object array, as
``seqpol.harness`` did before it estimated int64 draws directly.  The
crossing search reads both curves from a per-strength dict of outcome pairs,
as ``seqpol.harness.find_crossings`` did before it read them from arrays.  The
renderers write rows one cell at a time, as ``seqpol.cli`` did before it
wrote its tables by columns.  The two marginals of a quasi-probability table
are sums over its entries.
"""

import csv
import io
import json
import math

import numpy as np

from seqpol import (
    EstimateTable,
    DegenerateBranchError,
    InvalidInputError,
    SeqpolError,
    SetupParams,
    UnresolvableOutcomeError,
    make_linear_polarization,
    make_stokes,
)
from seqpol.algebra import TAU_ALG, PovmElement, PovmSet
from seqpol.analysis import P_FLOOR, ErrorReport, calibrated_columns, symmetric_confusion
from seqpol.harness import (
    BISECTION_TOL_DEG,
    CROSSING_BRANCH_SWAP,
    CROSSING_SIGN_FLIP,
    NOISE_EPS,
    Crossing,
    _estimate_columns,
    _estimate_table,
)
from seqpol.instrument import OUTCOMES, THETA_MAX_DEG

_SQRT2 = math.sqrt(2.0)


def _require_sign(value: int, name: str) -> int:
    if value not in (1, -1):
        raise InvalidInputError(f"{name} must be +1 or -1, got {value!r}")
    return int(value)


def classical_conditional_average(m1: int, p_error: float, mean_a: float) -> float:
    """Bayesian update of the target expectation from the commuting outcome alone.

    Interpolates between the prior expectation (random outcome, error
    probability 1/2) and the outcome value itself (error-free measurement),
    and always stays inside [-1, +1].
    """
    m1 = _require_sign(m1, "m1")
    if not math.isfinite(p_error) or not 0.0 <= p_error <= 0.5:
        raise InvalidInputError(f"p_error must lie in [0, 1/2], got {p_error!r}")
    if not math.isfinite(mean_a) or abs(mean_a) > 1.0:
        raise InvalidInputError(f"mean_a must lie in [-1, 1], got {mean_a!r}")
    contrast = 1.0 - 2.0 * p_error
    denominator = m1 + contrast * mean_a
    if abs(denominator) <= 1e-12:
        raise DegenerateBranchError(
            f"conditional average for m1={m1:+d} is undefined: vanishing denominator"
        )
    return m1 * (contrast * m1 + mean_a) / denominator


def sequential_conditional_average(
    m1: int, m2: int, p_error: float, mean_a: float, p_joint: float
) -> float:
    """Conditional average for a joint outcome of the sequential measurement.

    Because the HV readout is fully random for PM eigenstate inputs, m2 enters
    only through the measured joint probability in the denominator; unlikely
    readouts therefore amplify the estimate.
    """
    m1 = _require_sign(m1, "m1")
    _require_sign(m2, "m2")
    if not math.isfinite(p_error) or not 0.0 <= p_error <= 0.5:
        raise InvalidInputError(f"p_error must lie in [0, 1/2], got {p_error!r}")
    if not math.isfinite(mean_a) or abs(mean_a) > 1.0:
        raise InvalidInputError(f"mean_a must lie in [-1, 1], got {mean_a!r}")
    if p_joint <= P_FLOOR:
        raise UnresolvableOutcomeError(
            f"joint probability {p_joint!r} is below the resolvable floor", outcome=(m1, m2)
        )
    return (m1 * (1.0 - 2.0 * p_error) + mean_a) / (4.0 * p_joint)


def ideal_outcome_vector(theta_deg: float, outcome) -> np.ndarray:
    """Sub-normalized state vector of an ideal outcome; squared norm is 1/2."""
    if not math.isfinite(theta_deg) or not 0.0 <= theta_deg <= THETA_MAX_DEG:
        raise InvalidInputError(f"theta_deg must lie in [0, {THETA_MAX_DEG}], got {theta_deg!r}")
    m1, m2 = outcome
    m1, m2 = _require_sign(m1, "m1"), _require_sign(m2, "m2")
    two_theta = math.radians(2.0 * theta_deg)
    c, s = math.cos(two_theta), math.sin(two_theta)
    if m2 == 1:
        amplitudes = (c, m1 * s)
    else:
        amplitudes = (s, m1 * c)
    return np.array(amplitudes, dtype=np.complex128) / _SQRT2


def oracle_povm(params: SetupParams) -> PovmSet:
    """The four-outcome POVM of the imperfect instrument, one effect at a time.

    Ideal rank-one effects are dephased in the HV basis by ``v_pm`` and then
    mixed across m2 by the readout confusion ``(1 - v_hv) / 2``.
    """
    dephased = {}
    for outcome in OUTCOMES:
        vec = ideal_outcome_vector(params.theta_deg, outcome)
        effect = np.outer(vec, vec.conj())
        effect[0, 1] *= params.v_pm
        effect[1, 0] *= params.v_pm
        dephased[outcome] = effect
    keep = (1.0 + params.v_hv) / 2.0
    swap = (1.0 - params.v_hv) / 2.0
    elements = []
    for m1, m2 in OUTCOMES:
        op = keep * dephased[(m1, m2)] + swap * dephased[(m1, -m2)]
        elements.append(PovmElement(label=(m1, m2), op=op))
    return PovmSet(tuple(elements))


def oracle_effect_stack(thetas, v_pm: float, v_hv: float) -> np.ndarray:
    """The complex128 effect stack of a grid, one :func:`oracle_povm` per strength."""
    return np.array([[e.op for e in oracle_povm(SetupParams(theta, v_pm, v_hv))]
                     for theta in thetas])


def oracle_stack_terms(state, effects, observable):
    """Arrays P(m) = Tr(rho E_m) and c_m = Re Tr(rho E_m A) over a stack of effects, in
    complex128: a non-real probability or one outside [0, 1] by more than ``TAU_ALG``
    is an error, and in-band values are clamped to [0, 1]."""
    weighted = state.density @ effects
    p = np.trace(weighted, axis1=-2, axis2=-1)
    c = np.trace(weighted @ observable.op, axis1=-2, axis2=-1).real
    non_real = np.abs(p.imag) >= TAU_ALG
    if non_real.any():
        raise InvalidInputError(f"outcome probability {complex(p[non_real][0])!r} is not real")
    p = p.real
    out_of_range = (p < -TAU_ALG) | (p > 1.0 + TAU_ALG)
    if out_of_range.any():
        raise InvalidInputError(f"outcome probability {float(p[out_of_range][0])!r} is out of range")
    # as min(1, max(0, p)), which also turns -0.0 into 0.0
    return np.where(p <= 0.0, 0.0, np.minimum(p, 1.0)), c


def oracle_count_table(theta, input_angle_deg: float, n: int, counts):
    """The sweep table estimated from N count tables shaped (N, run, outcome), runs as in
    :meth:`CountRecord.runs`.  Counts stay Python numbers up to the division by
    ``n``, so totals and frequencies are exact as in a scalar loop.  A symmetric
    eigenstate confusion gives the eigenvalue-assignment error 4 p_error directly.
    """
    counts = np.asarray(counts, dtype=object)
    totals = counts.sum(axis=2)
    off = np.abs(totals - n) > 1e-6 * max(1.0, n)
    if off.any():
        row, run = np.argwhere(off)[0]
        raise InvalidInputError(f"counts for run {('psi', 'plus', 'minus')[run]!r} sum to "
                                f"{totals[row, run]!r}, expected n_photons={n}")
    psi, plus, minus = (counts / n).astype(float).transpose(1, 0, 2)
    mean_a = math.sin(2.0 * math.radians(input_angle_deg))
    p, c = calibrated_columns(psi, plus, minus, 0.5 * (1.0 + mean_a), 0.5 * (1.0 - mean_a))
    p_error, symmetric = symmetric_confusion(plus[:, 2] + plus[:, 3], minus[:, 0] + minus[:, 1])
    # Sampling noise can push plug-in errors slightly negative: no sign check.
    return _estimate_table(_estimate_columns(theta, p_error, p, c, 1.0, nonnegative=False,
                                             eps_eigen=np.where(symmetric, 4.0 * p_error, np.nan)))


def oracle_error_report(terms, mean_square, variance_initial, assignments=None):
    """Optimal estimates and the squared error of an assignment, one outcome at a time."""
    if assignments is not None:
        if set(assignments.labels()) != set(terms):
            raise InvalidInputError("assignment table must cover exactly the outcome set")
        if any(value is None for value in assignments.assignments.values()):
            raise InvalidInputError("every outcome needs a finite assignment for error evaluation")
    optimal = {}
    epsilon_sq = mean_square
    estimate_variance = residual = excluded = 0.0
    for label, (p, c) in terms.items():
        pivot = c / p if p > P_FLOOR else None
        optimal[label] = pivot
        if pivot is not None:
            estimate_variance += pivot * c
        else:
            excluded += p
        if assignments is not None:
            assigned = assignments[label]
            raw = assigned * assigned * p - 2.0 * assigned * c
            epsilon_sq += raw
            # Without a stable pivot, booking the raw error terms against the
            # residual keeps the decomposition identity exact.
            residual += raw if pivot is None else (assigned - pivot) ** 2 * p
    if assignments is None:
        epsilon_sq = mean_square - estimate_variance
    report = ErrorReport(
        epsilon_sq=epsilon_sq,
        mean_square=mean_square,
        variance_initial=variance_initial,
        estimate_variance=estimate_variance,
        residual=residual,
        excluded_probability=excluded,
    )
    return EstimateTable(optimal), report


def outcome_marginal(table, label) -> float:
    """Sum of a quasi-probability table's entries for one outcome over both eigenvalues."""
    return table.entries[(1, label)] + table.entries[(-1, label)]


def eigenvalue_marginal(table, a: int) -> float:
    """Sum of a quasi-probability table's entries for target eigenvalue ``a``."""
    return sum(value for (sign, _), value in table.entries.items() if sign == a)


def _oracle_bisect(f, lo: float, hi: float, f_lo: float) -> float:
    while hi - lo > BISECTION_TOL_DEG:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _oracle_first_root(points, f):
    """First bracketed sign change among grid ``points`` (theta, value, noise scale)."""
    last = None
    for theta, value, scale in points:
        if abs(value) <= NOISE_EPS * scale:
            continue
        if last is not None and (value < 0.0) != (last[1] < 0.0):
            return _oracle_bisect(f, last[0], theta, last[1])
        last = (theta, value)
    return None


def oracle_find_crossings(config):
    """The crossings of ``seqpol.harness.find_crossings``, scanned over one dict of
    (P, c) outcome pairs per strength from the oracle effects and products."""
    state = make_linear_polarization(config.input_angle_deg)
    target = make_stokes("PM")
    tables = {}

    def evaluate(thetas) -> None:
        p, c = oracle_stack_terms(state, oracle_effect_stack(thetas, config.v_pm, config.v_hv),
                                  target)
        rows = zip(p.tolist(), c.tolist())
        tables.update(zip(thetas, (dict(zip(OUTCOMES, zip(*row))) for row in rows)))

    def terms(theta: float):
        if theta not in tables:
            evaluate((theta,))
        return tables[theta]

    def branch_numerator(t):
        _, c_mm = t[(-1, -1)]
        return c_mm, 1.0

    def branch_swap_gap(t):
        p_mp, c_mp = t[(-1, 1)]
        p_pp, c_pp = t[(1, 1)]
        return c_mp * p_pp - c_pp * p_mp, abs(c_mp) + p_pp + abs(c_pp) + p_mp

    grid = sorted(config.theta_grid)
    evaluate(grid)

    def root(curve):
        points = [(theta, *curve(tables[theta])) for theta in grid]
        return _oracle_first_root(points, lambda theta: curve(terms(theta))[0])

    return [
        Crossing(CROSSING_SIGN_FLIP, root(branch_numerator)),
        Crossing(CROSSING_BRANCH_SWAP, root(branch_swap_gap)),
    ]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def oracle_render_csv(records: list[dict], header: list[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        writer.writerow([_cell(record[key]) for key in header])
    return buffer.getvalue()


def oracle_render_json(records: list[dict], header: list[str]) -> str:
    """JSON text of the rows; a NaN or infinite value has no JSON form and is an error."""
    ordered = [{key: record[key] for key in header} for record in records]
    try:
        return json.dumps(ordered, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise SeqpolError(f"cannot write JSON: {exc}") from None
