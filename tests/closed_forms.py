"""Closed-form conditional averages of the instrument, kept as test oracles.

Both follow from the ideal effects with a symmetric PM error probability and
an HV readout that is fully random for P and M eigenstate inputs.
"""

import math

from seqpol import P_FLOOR, DegenerateBranchError, InvalidInputError, UnresolvableOutcomeError


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
