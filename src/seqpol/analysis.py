"""Estimation machinery for a dichotomic target observable measured through
an arbitrary qubit POVM.

Two independent routes to every outcome/observable correlation are kept
separate on purpose.  The direct route multiplies operators
(:func:`seqpol.algebra.real_cross_correlation`).  The reconstruction route
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

Every estimate and error is computed from one pair per outcome,
(P(m), c_m = Re<psi|E_m A|psi>).  :func:`outcome_terms` gives the pairs by
the operator route, :func:`calibrated_terms` from eigenstate-calibration
probabilities, and :func:`error_report` turns either into the optimal
assignments and a squared error.
"""

import math
from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from .algebra import (
    DichotomicObservable,
    PovmSet,
    QubitState,
    born_probability,
    expectation,
    real_cross_correlation,
)
from .exceptions import DegenerateBranchError, InvalidInputError, UnresolvableOutcomeError

# Below this probability an outcome is reported as unresolvable instead of
# producing a huge finite estimate; divergent conditional averages are real
# physics, but feeding them onward would be numerically meaningless.
P_FLOOR = 1e-9

# Tolerance for the error-decomposition identity carried by every report.
DECOMPOSITION_TOL = 1e-9

# Entries of a quasi-probability table below this count as genuinely negative.
NEGATIVITY_TOL = 1e-10


@dataclass(frozen=True)
class ReconstructionConfig:
    """Input-state variation parameter; ``lam = 1`` is the eigenstate method."""

    lam: float

    def __post_init__(self):
        if not isinstance(self.lam, (int, float)) or not math.isfinite(self.lam):
            raise InvalidInputError(f"lam must be finite, got {self.lam!r}")
        if self.lam == 0.0:
            raise InvalidInputError("lam must be nonzero")
        object.__setattr__(self, "lam", float(self.lam))


def _require_probability(value: float, name: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise InvalidInputError(f"{name} must be a probability in [0, 1], got {value!r}")
    return float(value)


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
    mean = expectation(psi, observable.op)
    mean_square = expectation(psi, observable.op @ observable.op)
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


def reconstruct_correlation(
    p_plus: float,
    p_minus: float,
    mean_a: float,
    mean_a2: float,
    config: ReconstructionConfig,
) -> float:
    """Re <psi| E A |psi> from outcome probabilities on the two variation states.

    ``p_plus`` and ``p_minus`` are the probabilities of the same outcome on
    the + and - variation branches; ``mean_a`` and ``mean_a2`` are the first
    two moments of the target observable in the original state.
    """
    p_plus = _require_probability(p_plus, "p_plus")
    p_minus = _require_probability(p_minus, "p_minus")
    lam = config.lam
    w_plus = 1.0 + 2.0 * lam * mean_a + lam * lam * mean_a2
    w_minus = 1.0 - 2.0 * lam * mean_a + lam * lam * mean_a2
    return (w_plus * p_plus - w_minus * p_minus) / (4.0 * lam)


def conditional_average(correlation: float, p_m: float, outcome: Hashable = None) -> float:
    """Error-minimizing value assignment Re<psi|E A|psi> / <psi|E|psi>.

    May lie outside [-1, +1].  Raises :class:`UnresolvableOutcomeError` when
    the outcome probability is at or below ``P_FLOOR``.
    """
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
    terms = calibrated_terms(
        {outcome: p_m_psi}, {outcome: (p_m_given_plus, p_m_given_minus)}, p_plus_psi, p_minus_psi
    )
    p, c = terms[outcome]
    return conditional_average(c, p, outcome=outcome)


def symmetric_error_probability(
    p_flip_plus: float, p_flip_minus: float, tol: float = 1e-9
) -> float | None:
    """The single error probability if eigenstate confusion is symmetric.

    ``p_flip_plus`` is the probability of outcome -1 for a +1 eigenstate input
    and ``p_flip_minus`` the probability of +1 for a -1 eigenstate.  Returns
    ``None`` when they differ by more than ``tol``, in which case the general
    probability-based error evaluation must be used instead.
    """
    p_flip_plus = _require_probability(p_flip_plus, "p_flip_plus")
    p_flip_minus = _require_probability(p_flip_minus, "p_flip_minus")
    if abs(p_flip_plus - p_flip_minus) >= tol:
        return None
    return 0.5 * (p_flip_plus + p_flip_minus)


@dataclass(frozen=True)
class EstimateTable:
    """Outcome-value assignments; ``None`` marks an unresolvable outcome."""

    assignments: Mapping[Hashable, float | None]

    def __post_init__(self):
        table = {}
        for label, value in dict(self.assignments).items():
            if value is not None:
                value = float(value)
                if not math.isfinite(value):
                    raise InvalidInputError(f"assignment for outcome {label!r} must be finite")
            table[label] = value
        if not table:
            raise InvalidInputError("an estimate table needs at least one outcome")
        object.__setattr__(self, "assignments", table)

    def __getitem__(self, label) -> float | None:
        return self.assignments[label]

    def labels(self) -> tuple[Hashable, ...]:
        return tuple(self.assignments)


@dataclass(frozen=True)
class ErrorReport:
    """Squared measurement error and its variance decomposition.

    ``epsilon_sq`` always satisfies

        epsilon_sq = mean_square - estimate_variance + residual

    within ``DECOMPOSITION_TOL``; construction fails otherwise.
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

    def __post_init__(self):
        recomposed = self.mean_square - self.estimate_variance + self.residual
        if not math.isfinite(self.epsilon_sq) or abs(self.epsilon_sq - recomposed) > DECOMPOSITION_TOL:
            raise InvalidInputError(
                "error decomposition does not reconcile: "
                f"epsilon_sq={self.epsilon_sq!r} vs recomposed={recomposed!r}"
            )
        if self.excluded_probability < 0.0:
            raise InvalidInputError("excluded probability cannot be negative")


OutcomeTerms = Mapping[Hashable, tuple[float, float]]


def outcome_terms(
    state: QubitState, povm: PovmSet, observable: DichotomicObservable
) -> dict[Hashable, tuple[float, float]]:
    """Per-outcome pairs (P(m), Re<psi|E_m A|psi>) by direct operator products."""
    return {
        element.label: (
            born_probability(state, element),
            real_cross_correlation(state, element, observable.op),
        )
        for element in povm.elements
    }


def calibrated_terms(
    outcome_probs: Mapping[Hashable, float],
    eigenstate_probs: Mapping[Hashable, tuple[float, float]],
    p_plus_psi: float,
    p_minus_psi: float,
) -> dict[Hashable, tuple[float, float]]:
    """Per-outcome pairs (P(m), c_m) from measured probabilities alone.

    ``outcome_probs`` holds P(m|psi) from the direct run, ``eigenstate_probs``
    holds (P(m|+), P(m|-)) from the eigenstate calibration runs, and the
    eigenstate weights of the input complete the correlation
    c_m = P(m|+) p_plus - P(m|-) p_minus of a two-level target.
    """
    p_plus_psi = _require_probability(p_plus_psi, "p_plus_psi")
    p_minus_psi = _require_probability(p_minus_psi, "p_minus_psi")
    if set(outcome_probs) != set(eigenstate_probs):
        raise InvalidInputError("probability tables must share one outcome set")
    terms = {}
    for label, p in outcome_probs.items():
        given_plus, given_minus = eigenstate_probs[label]
        given_plus = _require_probability(given_plus, f"P({label!r}|+)")
        given_minus = _require_probability(given_minus, f"P({label!r}|-)")
        terms[label] = (
            _require_probability(p, f"P({label!r})"),
            given_plus * p_plus_psi - given_minus * p_minus_psi,
        )
    return terms


def error_report(
    terms: OutcomeTerms,
    mean_square: float,
    variance_initial: float,
    assignments: EstimateTable | None = None,
) -> tuple[EstimateTable, ErrorReport]:
    """Optimal estimates and the squared error of an assignment, from (P, c) pairs.

    The table holds the error-minimizing assignment c_m / P(m) per outcome,
    ``None`` where P(m) is at or below ``P_FLOOR``.  Without ``assignments``
    the report is the minimal error <A^2> - sum_m c_m^2 / P(m); with them it
    is Ozawa's <A^2> + sum_m (A_m^2 P(m) - 2 A_m c_m), with the deviation
    from the optimal assignment booked as ``residual``.  Unresolvable
    outcomes contribute their probability to ``excluded_probability``.
    """
    if assignments is not None:
        if set(assignments.labels()) != set(terms):
            raise InvalidInputError("assignment table must cover exactly the outcome set")
        if any(value is None for value in assignments.assignments.values()):
            raise InvalidInputError("every outcome needs a finite assignment for error evaluation")
    optimal: dict[Hashable, float | None] = {}
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


def check_nonnegative(report: ErrorReport) -> ErrorReport:
    """Pass an operator-route report through; a negative error is a model fault."""
    if report.epsilon_sq < -DECOMPOSITION_TOL:
        raise InvalidInputError(
            f"squared error {report.epsilon_sq!r} is negative beyond tolerance"
        )
    return report


def moments(state: QubitState, observable: DichotomicObservable) -> tuple[float, float]:
    """<A^2> and the prior variance <A^2> - <A>^2."""
    mean = expectation(state, observable.op)
    mean_square = expectation(state, observable.op @ observable.op)
    return mean_square, mean_square - mean * mean


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
    return check_nonnegative(error_report(terms, *moments(state, observable), assignments)[1])


def optimal_error(
    state: QubitState, povm: PovmSet, observable: DichotomicObservable
) -> tuple[EstimateTable, ErrorReport]:
    """Best value assignment per outcome and the resulting minimal error.

    Outcomes with probability at or below ``P_FLOOR`` get a ``None`` estimate;
    their probability is surfaced as ``excluded_probability`` in the report
    and they contribute nothing to the estimate variance.
    """
    terms = outcome_terms(state, povm, observable)
    table, report = error_report(terms, *moments(state, observable))
    return table, check_nonnegative(report)


def two_level_ozawa_error(
    outcome_probs: Mapping[Hashable, float],
    eigenstate_probs: Mapping[Hashable, tuple[float, float]],
    p_plus_psi: float,
    p_minus_psi: float,
    assignments: EstimateTable,
) -> ErrorReport:
    """Squared error evaluated purely from measured probabilities.

    The inputs are those of :func:`calibrated_terms`.  Sampling noise can push
    the plug-in estimate slightly negative, so unlike :func:`ozawa_error` no
    sign gate is applied.
    """
    terms = calibrated_terms(outcome_probs, eigenstate_probs, p_plus_psi, p_minus_psi)
    mean = p_plus_psi - p_minus_psi
    return error_report(terms, 1.0, 1.0 - mean * mean, assignments)[1]


def two_level_optimal_error(
    outcome_probs: Mapping[Hashable, float],
    eigenstate_probs: Mapping[Hashable, tuple[float, float]],
    p_plus_psi: float,
    p_minus_psi: float,
) -> tuple[EstimateTable, ErrorReport]:
    """Probability-based counterpart of :func:`optimal_error`."""
    terms = calibrated_terms(outcome_probs, eigenstate_probs, p_plus_psi, p_minus_psi)
    mean = p_plus_psi - p_minus_psi
    return error_report(terms, 1.0, 1.0 - mean * mean)


@dataclass(frozen=True)
class QuasiProbabilityTable:
    """Joint quasi-probabilities Re <psi| E_m Pi_a |psi> over (a, outcome).

    With Pi_a = (1 + a A) / 2 each entry is (P(m) + a c_m) / 2, read from
    the same per-outcome pair as every estimate.

    Both marginals reproduce ordinary probabilities, but individual entries
    may be negative; ``negativity_present`` flags entries below
    ``-NEGATIVITY_TOL``.  Negativity in an outcome's column is equivalent to
    its conditional average leaving the eigenvalue range.
    """

    entries: Mapping[tuple[int, Hashable], float]
    negativity_present: bool

    def outcome_marginal(self, label) -> float:
        return self.entries[(1, label)] + self.entries[(-1, label)]

    def eigenvalue_marginal(self, a: int) -> float:
        return sum(value for (sign, _), value in self.entries.items() if sign == a)


def quasi_probability(
    state: QubitState, povm: PovmSet, observable: DichotomicObservable
) -> QuasiProbabilityTable:
    """Quasi-probability table of outcomes against target eigenvalues."""
    entries = {
        (a, label): 0.5 * (p + a * c)
        for label, (p, c) in outcome_terms(state, povm, observable).items()
        for a in (1, -1)
    }
    negativity = min(entries.values()) < -NEGATIVITY_TOL
    return QuasiProbabilityTable(entries=entries, negativity_present=negativity)
