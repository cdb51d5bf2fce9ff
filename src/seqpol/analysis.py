"""Estimation machinery for a dichotomic target observable measured through
an arbitrary qubit POVM.

Two independent routes to every outcome/observable correlation are kept
separate on purpose.  The direct route multiplies operators
(:func:`stack_terms`, checked against the scalar oracle
:func:`seqpol.algebra.real_cross_correlation`).  The reconstruction route
uses only probabilities measured on two variations of the input state,

    |+> ~ (1 + lam A)|psi>,   |-> ~ (1 - lam A)|psi>,

via the weighted difference

    Re <psi| E A |psi> = [w_plus P(m|+) - w_minus P(m|-)] / (4 lam),
    w_pm = 1 +- 2 lam <A> + lam^2 <A^2>.

For a two-level system, lam = 1 turns the variations into the eigenstates of
the target, so the whole reconstruction runs on eigenstate calibration data.
Conditional averages Re<psi|E A|psi> / <psi|E|psi> are the error-minimizing
value assignments; they coincide with real parts of weak values and may lie
far outside the eigenvalue range when the conditioning outcome is unlikely.
That possibility is exactly the failure of a joint positive probability for
outcome and eigenvalue, which :func:`quasi_probability` makes visible.

Every estimate and error is computed from one pair per outcome, (P(m), c_m =
Re<psi|E_m A|psi>), held as two float arrays.  The operator products have one source
of them, :func:`stack_terms`, over a whole strength grid at once or, in
:func:`outcome_terms`, over any one POVM, complex ones included;
:func:`calibrated_columns` gives them from eigenstate-calibration probabilities.  One
array step, :func:`error_columns`, turns ``(N, K)`` tables of them into the optimal
assignments and the squared errors of N settings, the same for every caller;
:func:`error_report` is its one-row view, where the operator route rejects a negative error.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .algebra import TAU_ALG, DichotomicObservable, PovmSet, QubitState, expectation
from .exceptions import (DegenerateBranchError, InvalidInputError, UnresolvableOutcomeError,
                         require_mapping, require_real, require_reals, shown)

# Below this probability an outcome is reported as unresolvable instead of
# producing a huge finite estimate; divergent conditional averages are real
# physics, but feeding them onward would be numerically meaningless.
P_FLOOR = 1e-9

# Tolerance for the error-decomposition identity carried by every report: this floor,
# plus DECOMPOSITION_ROUNDING times the sum of the magnitudes of the three terms.
# Over K outcomes, the roundings of the assignments, the products, the running sums
# and the recomposition add up to at most (6 K + 17) / 2 epsilon of that sum, 20.5
# at four outcomes; 32 covers up to seven.
DECOMPOSITION_TOL = 1e-9
DECOMPOSITION_ROUNDING = 32.0 * np.finfo(float).eps

# Entries of a quasi-probability table below this count as genuinely negative.
NEGATIVITY_TOL = 1e-10

# Eigenstate error probabilities closer than this count as one symmetric error.
SYMMETRY_TOL = 1e-9

# Largest rounding error bound of a probability reconstruction that is returned.
RECONSTRUCTION_TOL = 1e-6


@dataclass(frozen=True)
class ReconstructionConfig:
    """Input-state variation parameter; ``lam = 1`` is the eigenstate method."""

    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", require_real("lam", self.lam))
        if self.lam == 0.0:
            raise InvalidInputError("lam must be nonzero")


def _require_probability(value, name: str):
    """A probability in [0, 1] as a float, or an array of them as a float64 array."""
    return (require_reals if isinstance(value, np.ndarray) else require_real)(name, value, 0, 1)


def _require_shapes(first: tuple[str, object], *others: tuple[str, object]) -> None:
    """Each ``(name, array)`` of ``others`` has the shape of ``first``: no broadcasting."""
    for name, other in others:
        if np.shape(other) != np.shape(first[1]):
            raise InvalidInputError(f"{name} must be an array of the shape {np.shape(first[1])} "
                                    f"of {first[0]}, got {shown(other)}")


def variation_states(
    psi: QubitState, observable: DichotomicObservable, config: ReconstructionConfig
) -> tuple[QubitState, QubitState]:
    """Normalized states proportional to (1 +- lam A)|psi>.

    For ``lam = 1`` and a dichotomic observable these are its +1 and -1
    eigenstates (up to global phase).  A branch whose normalization
    ``1 +- 2 lam <A> + lam^2 <A^2>`` is not strictly positive, or overflows,
    raises :class:`DegenerateBranchError`.
    """
    lam = config.lam
    mean, mean_square, _ = moments(psi, observable)
    states = []
    for sign in (1, -1):
        weight = 1.0 + 2.0 * sign * lam * mean + lam * lam * mean_square
        if not math.isfinite(weight):
            raise DegenerateBranchError(
                f"variation branch {sign:+d} has non-finite normalization {weight!r}"
            )
        if weight <= 1e-12:
            raise DegenerateBranchError(
                f"variation branch {sign:+d} has vanishing normalization {weight!r}"
            )
        if psi.is_pure:
            branch = psi.vector + sign * lam * (observable.op @ psi.vector)
            states.append(QubitState.pure(branch / np.linalg.norm(branch)))
        else:
            kernel = np.eye(2) + sign * lam * observable.op
            rho = kernel @ psi.density @ kernel
            states.append(QubitState.mixed(rho / np.trace(rho).real))
    return states[0], states[1]


def reconstruct_correlation(p_plus, p_minus, mean_a: float, mean_a2: float,
                            config: ReconstructionConfig):
    """Re <psi| E A |psi> from outcome probabilities on the two variation states.

    ``p_plus`` and ``p_minus``, numbers or float arrays, are the probabilities
    of the same outcome on the + and - variation branches; ``mean_a`` and
    ``mean_a2`` are the first two moments of the target observable in the
    original state.  A ``lam`` whose rounding error bound (|w_plus| +
    |w_minus|) eps / (4 |lam|) exceeds ``RECONSTRUCTION_TOL`` is an error.
    """
    p_plus = _require_probability(p_plus, "p_plus")
    p_minus = _require_probability(p_minus, "p_minus")
    _require_shapes(("p_plus", p_plus), ("p_minus", p_minus))
    mean_a, mean_a2 = require_real("mean_a", mean_a), require_real("mean_a2", mean_a2)
    lam = config.lam
    w_plus = 1.0 + 2.0 * lam * mean_a + lam * lam * mean_a2
    w_minus = 1.0 - 2.0 * lam * mean_a + lam * lam * mean_a2
    bound = (abs(w_plus) + abs(w_minus)) * np.finfo(float).eps / (4.0 * abs(lam))
    if not bound <= RECONSTRUCTION_TOL:
        raise InvalidInputError(f"reconstruction at lam={lam!r} has a rounding error of up to "
                                f"{bound:.3g}, above {RECONSTRUCTION_TOL:g}")
    return (w_plus * p_plus - w_minus * p_minus) / (4.0 * lam)


def conditional_average(correlation: float, p_m: float, outcome: Hashable = None) -> float:
    """Error-minimizing value assignment Re<psi|E A|psi> / <psi|E|psi>.

    May lie outside [-1, +1].  Raises :class:`UnresolvableOutcomeError` when
    the outcome probability is at or below ``P_FLOOR``.
    """
    correlation, p_m = require_real("correlation", correlation), require_real("p_m", p_m)
    if p_m <= P_FLOOR:
        raise UnresolvableOutcomeError(
            f"outcome probability {p_m!r} is below the resolvable floor", outcome=outcome
        )
    return correlation / p_m


def two_level_conditional_average(
    p_m_given_plus: float,
    p_m_given_minus: float,
    p_plus_psi: float,
    p_minus_psi: float,
    p_m_psi: float,
    outcome: Hashable = None,
) -> float:
    """Conditional average built from eigenstate-run and direct-run statistics.

    The numerator combines the outcome probabilities measured on the two
    eigenstate inputs with the eigenstate weights of the actual input state.
    The denominator is the outcome probability measured directly on the input
    state; it is an independent quantity, not the sum of the numerator terms,
    which is what lets the result leave the eigenvalue range.
    """
    _, p, c = _calibrated_pairs({outcome: p_m_psi}, {outcome: (p_m_given_plus, p_m_given_minus)},
                                p_plus_psi, p_minus_psi)
    return conditional_average(float(c[0]), float(p[0]), outcome=outcome)


def symmetric_error_probability(p_flip_plus: float, p_flip_minus: float) -> float | None:
    """The single error probability if eigenstate confusion is symmetric.

    ``p_flip_plus`` is the probability of outcome -1 for a +1 eigenstate input
    and ``p_flip_minus`` the probability of +1 for a -1 eigenstate.  Returns
    ``None`` when they differ by ``SYMMETRY_TOL`` or more, in which case the
    general probability-based error evaluation must be used instead.  The
    one-point view of :func:`symmetric_confusion`.
    """
    p_error, symmetric = symmetric_confusion(p_flip_plus, p_flip_minus)
    return float(p_error) if symmetric else None


def symmetric_confusion(p_flip_plus, p_flip_minus):
    """Mean error probability 0.5 (p_flip_plus + p_flip_minus), and whether the two
    flips lie within ``SYMMETRY_TOL`` of each other, over numbers or float arrays."""
    p_flip_plus = _require_probability(p_flip_plus, "p_flip_plus")
    p_flip_minus = _require_probability(p_flip_minus, "p_flip_minus")
    _require_shapes(("p_flip_plus", p_flip_plus), ("p_flip_minus", p_flip_minus))
    return 0.5 * (p_flip_plus + p_flip_minus), np.abs(p_flip_plus - p_flip_minus) < SYMMETRY_TOL


@dataclass(frozen=True)
class EstimateTable:
    """Outcome-value assignments; ``None`` marks an unresolvable outcome."""

    assignments: Mapping[Hashable, float | None]

    def __post_init__(self):
        table = require_mapping("assignments", self.assignments)
        for label, value in table.items():
            if value is not None:
                table[label] = require_real(f"assignment for outcome {label!r}", value)
        if not table:
            raise InvalidInputError("an estimate table needs at least one outcome")
        object.__setattr__(self, "assignments", table)

    def __getitem__(self, label) -> float | None:
        return self.assignments[label]


@dataclass(frozen=True)
class ErrorReport:
    """Squared measurement error and its variance decomposition.

    ``epsilon_sq`` always satisfies

        epsilon_sq = mean_square - estimate_variance + residual

    within ``DECOMPOSITION_TOL`` plus ``DECOMPOSITION_ROUNDING`` times
    ``|mean_square| + |estimate_variance| + |residual|``, the rounding of terms
    that large; construction fails otherwise.
    ``estimate_variance`` sums (correlation^2 / probability) over resolvable
    outcomes and ``residual`` collects the squared deviation of the actual
    assignments from the optimal ones.  Outcomes whose probability is at or
    below ``P_FLOOR`` contribute their raw error terms to ``residual`` and
    their probability to ``excluded_probability``.
    """

    epsilon_sq: float
    mean_square: float
    variance_initial: float
    estimate_variance: float
    residual: float
    excluded_probability: float = 0.0

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        fields = (self.epsilon_sq, self.mean_square, self.estimate_variance, self.residual)
        _check_decomposition(*np.atleast_1d(*fields, self.excluded_probability))
        require_real("variance_initial", self.variance_initial)


def _check_decomposition(epsilon_sq, mean_square, estimate_variance, residual, excluded) -> None:
    """The checks of :class:`ErrorReport` over arrays of reports; non-finite values raise.
    Callers ignore overflow and invalid-value warnings, which the checks turn into errors."""
    recomposed = mean_square - estimate_variance + residual
    scale = abs(mean_square) + abs(estimate_variance) + abs(residual)
    # False for a NaN or infinite epsilon_sq or scale, as a finite scale keeps recomposed finite
    reconciled = ((abs(epsilon_sq - recomposed) <= DECOMPOSITION_TOL
                   + DECOMPOSITION_ROUNDING * scale) & (scale < math.inf))
    if not reconciled.all():
        n = np.argmin(reconciled)
        raise InvalidInputError("error decomposition does not reconcile: epsilon_sq="
                                f"{float(epsilon_sq[n])!r} vs recomposed={float(recomposed[n])!r}")
    if not ((excluded >= 0.0) & (excluded < math.inf)).all():
        raise InvalidInputError("excluded probability must be finite and >= 0")


def stack_terms(
    state: QubitState | Sequence[QubitState], effects: np.ndarray, observable: DichotomicObservable
) -> tuple[np.ndarray, np.ndarray]:
    """Float arrays P(m) = Tr(rho E_m) and c_m = Re Tr(rho E_m A) over a stack of effects.

    ``effects`` is an array of shape ``(..., 2, 2)`` and both arrays have its
    leading shape, after an axis of S for a sequence of S states, taken in one product.
    With E and A real, P = Tr(Re(rho) E) and c = Tr(Re(rho) E A) for any state, so they
    run in float64; a complex stack or target runs in complex128, where an imaginary part
    of P of ``TAU_ALG`` or more is an error.  So is a P outside [0, 1] by more than
    ``TAU_ALG``, as in :func:`seqpol.algebra.born_probability`; in-band P are clamped.
    """
    part = np.asarray if np.iscomplexobj(effects) or observable.op.imag.any() else np.real
    density = (part(state.density) if isinstance(state, QubitState) else  # (S, 1, ..., 1, 2, 2)
               np.expand_dims([part(s.density) for s in state], tuple(range(1, effects.ndim - 1))))
    weighted = density @ effects
    p = weighted.trace(axis1=-2, axis2=-1)
    if np.iscomplexobj(p) and (abs(p.imag) >= TAU_ALG).any():
        raise InvalidInputError(f"outcome probability {complex(p[abs(p.imag) >= TAU_ALG][0])!r} "
                                "is not real")
    p, c = p.real, (weighted @ part(observable.op)).trace(axis1=-2, axis2=-1).real
    out_of_range = (p < -TAU_ALG) | (p > 1.0 + TAU_ALG)
    if out_of_range.any():
        raise InvalidInputError(f"outcome probability {float(p[out_of_range][0])!r} is out of range")
    # as min(1, max(0, p)), which also turns -0.0 into 0.0
    return np.where(p <= 0.0, 0.0, np.minimum(p, 1.0)), c


def outcome_terms(
    state: QubitState, povm: PovmSet, observable: DichotomicObservable
) -> tuple[tuple[Hashable, ...], np.ndarray, np.ndarray]:
    """The labels of any POVM, complex ones included, and float arrays of their P(m) and
    Re<psi|E_m A|psi>, from one :func:`stack_terms` pass over its effects."""
    return tuple(e.label for e in povm), *stack_terms(state, np.array([e.op for e in povm]),
                                                      observable)


def _calibrated_pairs(outcome_probs, eigenstate_probs, p_plus_psi, p_minus_psi):
    """The labels and :func:`calibrated_columns` of probability tables keyed by outcome that
    share one outcome set, with a (P(m|+), P(m|-)) pair and real numbers for each outcome."""
    if set(outcome_probs) != set(eigenstate_probs):
        raise InvalidInputError("probability tables must share one outcome set")
    values = [p_plus_psi, p_minus_psi]
    for label, p in outcome_probs.items():
        try:
            given_plus, given_minus = eigenstate_probs[label]
        except (TypeError, ValueError):
            raise InvalidInputError(f"outcome {label!r} needs a (P(m|+), P(m|-)) pair, "
                                    f"got {shown(eigenstate_probs[label])}") from None
        values += [p, given_plus, given_minus]
    numbers = require_reals("a probability", values)
    return tuple(outcome_probs), *calibrated_columns(*numbers[2:].reshape(-1, 3).T, *numbers[:2])


def calibrated_columns(p, given_plus, given_minus, p_plus_psi, p_minus_psi):
    """Pairs P(m) and c_m = P(m|+) p_plus_psi - P(m|-) p_minus_psi of a two-level target,
    from float arrays of P(m|psi), P(m|+) and P(m|-); every probability lies in [0, 1]."""
    p_plus_psi = _require_probability(p_plus_psi, "p_plus_psi")
    p_minus_psi = _require_probability(p_minus_psi, "p_minus_psi")
    given_plus = _require_probability(given_plus, "P(m|+)")
    given_minus = _require_probability(given_minus, "P(m|-)")
    p = _require_probability(p, "P(m)")
    _require_shapes(("P(m)", p), ("P(m|+)", given_plus), ("P(m|-)", given_minus))
    return p, given_plus * p_plus_psi - given_minus * p_minus_psi


# Optimal assignments and error decomposition of N settings, one array row each.
ErrorColumns = namedtuple("ErrorColumns", ["optimal", "epsilon_sq", "estimate_variance",
                                           "residual", "excluded_probability"])


def _running_sum(start: float, terms: np.ndarray) -> np.ndarray:
    """start + terms[:, 0] + terms[:, 1] + ..., added from the left as a scalar loop adds."""
    return sum(terms.T, np.full(len(terms), start, dtype=float))


@np.errstate(over="ignore", invalid="ignore")
def error_columns(
    p: np.ndarray, c: np.ndarray, mean_square: float, assignment: Sequence[float] | None = None,
) -> ErrorColumns:
    """Optimal assignments and the squared error of an assignment over ``(N, K)`` tables.

    Row n of ``p`` and ``c`` holds the K outcome pairs of one setting.  The
    assignments c_m / P(m) are NaN where P(m) is at or below ``P_FLOOR``.
    Without ``assignment`` the error is the minimal <A^2> - sum_m c_m^2 / P(m);
    with one value A_m per column it is Ozawa's <A^2> + sum_m (A_m^2 P(m) -
    2 A_m c_m), the deviation from the optimal assignment booked as
    ``residual``.  Unresolvable outcomes add their probability to
    ``excluded_probability``.  Sums run over the columns from the left, as a
    scalar loop over the outcomes would.  ``p`` and ``c`` are 2-D arrays of one
    shape, ``mean_square`` a real number and ``assignment`` K of them; an array
    that is not float64 follows the real rule entry by entry.  The checks of
    :class:`EstimateTable` and :class:`ErrorReport` run on all rows at once.  A
    negative error passes: each route decides what it means.
    """
    if getattr(p, "ndim", None) != 2:
        raise InvalidInputError(f"p must be a 2-D array, got {shown(p)}")
    if getattr(c, "shape", None) != p.shape:
        raise InvalidInputError(f"c must be an array of the shape {p.shape} of p, got {shown(c)}")
    p, c = (x if x.dtype == float else require_reals(name, x) for name, x in (("p", p), ("c", c)))
    mean_square = require_real("mean_square", mean_square)
    resolvable = p > P_FLOOR
    optimal = np.divide(c, p, out=np.full(p.shape, np.nan), where=resolvable)
    if not (np.isfinite(p).all() and (np.isfinite(optimal) == resolvable).all()):
        raise InvalidInputError("outcome probabilities and optimal assignments must be finite")
    estimate_variance = _running_sum(0.0, np.where(resolvable, optimal * c, 0.0))
    excluded = _running_sum(0.0, np.where(resolvable, 0.0, p))
    if assignment is None:
        epsilon_sq, residual = mean_square - estimate_variance, np.zeros(len(p))
    else:
        assigned = (assignment if getattr(assignment, "dtype", None) == float
                    else require_reals("assignment", assignment)
                    if isinstance(assignment, (Sequence, np.ndarray)) else None)
        if assigned is None or assigned.shape != p.shape[1:]:
            raise InvalidInputError(f"assignment must hold {p.shape[1]} real numbers, one per "
                                    f"outcome, got {shown(assignment)}")
        raw = assigned * assigned * p - 2.0 * assigned * c
        epsilon_sq = _running_sum(mean_square, raw)
        # Without a stable pivot, booking the raw error terms against the residual
        # keeps the decomposition identity exact; float_power squares as ** does.
        deviation = np.float_power(assigned - optimal, 2.0) * p
        residual = _running_sum(0.0, np.where(resolvable, deviation, raw))
    _check_decomposition(epsilon_sq, mean_square, estimate_variance, residual, excluded)
    return ErrorColumns(optimal, epsilon_sq, estimate_variance, residual, excluded)


def _require_nonnegative(epsilon_sq: np.ndarray) -> None:
    """Reject a squared error below ``-DECOMPOSITION_TOL``, a model fault on the operator route."""
    if (epsilon_sq < -DECOMPOSITION_TOL).any():
        value = float(epsilon_sq[epsilon_sq < -DECOMPOSITION_TOL][0])
        raise InvalidInputError(f"squared error {value!r} is negative beyond tolerance")


def error_report(
    labels: Sequence[Hashable], p: np.ndarray, c: np.ndarray, mean_square: float,
    variance_initial: float, assignments: EstimateTable | None, nonnegative: bool,
) -> tuple[EstimateTable, ErrorReport]:
    """The one-row view of :func:`error_columns` over the pairs of ``labels``: the optimal
    estimates, ``None`` for an unresolvable outcome, and the minimal error, or Ozawa's
    error of ``assignments``.  ``nonnegative`` rejects a negative error, a model fault
    on the operator route."""
    if len(labels) != np.size(p):
        raise InvalidInputError(f"labels must name the {np.size(p)} outcomes, got {shown(labels)}")
    fixed = None
    if assignments is not None:
        if set(assignments.assignments) != set(labels):
            raise InvalidInputError("assignment table must cover exactly the outcome set")
        fixed = [assignments[label] for label in labels]
        if any(value is None for value in fixed):
            raise InvalidInputError("every outcome needs a finite assignment for error evaluation")
    columns = error_columns(np.reshape(p, (1, -1)), np.reshape(c, (1, -1)), mean_square, fixed)
    if nonnegative:
        _require_nonnegative(columns.epsilon_sq)
    optimal, epsilon_sq, *decomposition = (column[0].tolist() for column in columns)
    table = EstimateTable({label: None if math.isnan(a) else a for label, a in zip(labels, optimal)})
    return table, ErrorReport(epsilon_sq, mean_square, variance_initial, *decomposition)


def moments(state: QubitState, observable: DichotomicObservable) -> tuple[float, float, float]:
    """<A>, <A^2> and the prior variance <A^2> - <A>^2."""
    mean = expectation(state, observable.op)
    mean_square = expectation(state, observable.op @ observable.op)
    return mean, mean_square, mean_square - mean * mean


def ozawa_error(
    state: QubitState,
    povm: PovmSet,
    observable: DichotomicObservable,
    assignments: EstimateTable,
) -> ErrorReport:
    """Operator-based squared error of an outcome-value assignment.

    Evaluates <A^2> + sum_m A_m^2 P(m) - 2 sum_m A_m Re<psi|E_m A|psi> and
    reports the decomposition into prior moment, estimate variance, and
    residual mis-assignment.
    """
    terms = outcome_terms(state, povm, observable)
    return error_report(*terms, *moments(state, observable)[1:], assignments, True)[1]


def optimal_error(
    state: QubitState, povm: PovmSet, observable: DichotomicObservable
) -> tuple[EstimateTable, ErrorReport]:
    """Best value assignment per outcome and the resulting minimal error.

    Outcomes with probability at or below ``P_FLOOR`` get a ``None`` estimate;
    their probability is surfaced as ``excluded_probability`` in the report
    and they contribute nothing to the estimate variance.
    """
    terms = outcome_terms(state, povm, observable)
    return error_report(*terms, *moments(state, observable)[1:], None, True)


def two_level_ozawa_error(
    outcome_probs: Mapping[Hashable, float],
    eigenstate_probs: Mapping[Hashable, tuple[float, float]],
    p_plus_psi: float,
    p_minus_psi: float,
    assignments: EstimateTable,
) -> ErrorReport:
    """Squared error evaluated purely from measured probabilities.

    The tables hold P(m|psi) and (P(m|+), P(m|-)) by outcome, the inputs of
    :func:`calibrated_columns`.  Sampling noise can push the plug-in estimate
    slightly negative, so unlike :func:`ozawa_error` no sign gate is applied.
    """
    labels, p, c = _calibrated_pairs(outcome_probs, eigenstate_probs, p_plus_psi, p_minus_psi)
    mean = p_plus_psi - p_minus_psi
    return error_report(labels, p, c, 1.0, 1.0 - mean * mean, assignments, False)[1]


def two_level_optimal_error(
    outcome_probs: Mapping[Hashable, float],
    eigenstate_probs: Mapping[Hashable, tuple[float, float]],
    p_plus_psi: float,
    p_minus_psi: float,
) -> tuple[EstimateTable, ErrorReport]:
    """Probability-based counterpart of :func:`optimal_error`."""
    labels, p, c = _calibrated_pairs(outcome_probs, eigenstate_probs, p_plus_psi, p_minus_psi)
    mean = p_plus_psi - p_minus_psi
    return error_report(labels, p, c, 1.0, 1.0 - mean * mean, None, False)


@dataclass(frozen=True)
class QuasiProbabilityTable:
    """Joint quasi-probabilities Re <psi| E_m Pi_a |psi> over (a, outcome).

    Both marginals reproduce ordinary probabilities, but individual entries
    may be negative; ``negativity_present`` flags entries below
    ``-NEGATIVITY_TOL``.  Negativity in an outcome's column is equivalent to
    its conditional average leaving the eigenvalue range.
    """

    entries: Mapping[tuple[int, Hashable], float]
    negativity_present: bool


def quasi_entries(p: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries Re<psi|E_m (1 + a A)/2|psi> = (P(m) + a c_m) / 2 over ``(..., K)`` pairs.

    The entries have shape ``(..., 2, K)``, a = +1 first; the flag, of the
    leading shape, marks a setting with an entry below ``-NEGATIVITY_TOL``.
    """
    _require_shapes(("p", p), ("c", c))
    entries = 0.5 * np.stack([p + c, p - c], axis=-2)
    return entries, entries.min(axis=(-2, -1)) < -NEGATIVITY_TOL


def quasi_probability(
    state: QubitState, povm: PovmSet, observable: DichotomicObservable
) -> QuasiProbabilityTable:
    """Quasi-probability table of outcomes against target eigenvalues."""
    labels, p, c = outcome_terms(state, povm, observable)
    entries, negative = quasi_entries(p, c)
    keys = [(a, label) for a in (1, -1) for label in labels]
    return QuasiProbabilityTable(dict(zip(keys, entries.ravel().tolist())), bool(negative))
