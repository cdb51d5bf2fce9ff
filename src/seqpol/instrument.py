"""Four-outcome model of a variable-strength PM measurement with HV readout.

The first stage splits the photon by polarization and distinguishes diagonal
(P) from anti-diagonal (M) light through path interference; a half-wave-plate
angle ``theta`` tunes the contrast from zero (no measurement) to full
(projective) at 22.5 degrees.  A projective H-versus-V readout follows on each
path.  Outcomes are labelled ``(m1, m2)`` with m1 = +1 for the P path and
m2 = +1 for H.  In the ideal instrument the outcome effects are rank-one
projectors onto

    (m2 = +1):  (cos(2 theta) |H> + m1 sin(2 theta) |V>) / sqrt(2)
    (m2 = -1):  (sin(2 theta) |H> + m1 cos(2 theta) |V>) / sqrt(2)

Two calibration numbers model the imperfections:

* ``v_pm``, the interferometer visibility.  Limited interference contrast
  dephases the HV coherences, so each effect keeps its HV-diagonal entries and
  has its off-diagonal entries scaled by ``v_pm``.  This is the minimal model
  that reproduces the calibrated eigenstate error probability
  ``(1 - v_pm * sin(4 theta)) / 2`` exactly.
* ``v_hv``, the readout visibility, acting as a symmetric classical confusion
  of m2: a fraction ``(1 - v_hv) / 2`` of each effect is swapped with its
  m2-flipped partner.

Both visibilities are treated as strength-independent.  The beam-splitter
asymmetry of a real apparatus is assumed compensated upstream and is not
modelled here, nor are dark counts or detector-efficiency asymmetries.

The effects of a whole strength grid are built at once by
:func:`effect_stack` as one float64 array of shape ``(N, 4, 2, 2)``: grid
point, outcome in ``OUTCOMES`` order, then the real symmetric 2x2 operator in
the HV basis.  The dephasing and the readout mixing act on every grid point
in the same element-wise arithmetic, and symmetry, positivity and
completeness are checked for the whole stack together.  :func:`sequential_povm`
is the one-point view of the stack, so every effect has this one construction path.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    TAU_ALG,
    TAU_HERM,
    TAU_POVM,
    PovmElement,
    PovmSet,
    QubitState,
    born_probability,
)
from .exceptions import InvalidInputError

V_PM_DEFAULT = 0.93
V_HV_DEFAULT = 0.9976
THETA_MAX_DEG = 22.5

# Canonical outcome order used everywhere: (m1, m2) = (+,+), (+,-), (-,+), (-,-).
OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
M1_VALUES = (1, -1)
# Index of the m2-flipped partner of each outcome in OUTCOMES.
_M2_PARTNER = [1, 0, 3, 2]

_SQRT2 = math.sqrt(2.0)


def _require_thetas(theta_grid: Sequence[float]) -> list[float]:
    """Strength settings as floats, checked as one array; the first bad one raises."""
    values = np.array([t if isinstance(t, (int, float)) else math.nan for t in theta_grid], float)
    bad = ~((values >= 0.0) & (values <= THETA_MAX_DEG))
    if bad.any():
        n = int(bad.argmax())
        rule = f"lie in [0, {THETA_MAX_DEG}] degrees" if math.isfinite(values[n]) else "be finite"
        raise InvalidInputError(f"theta_deg must {rule}, got {theta_grid[n]!r}")
    return values.tolist()


def _require_visibility(name: str, value: float) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise InvalidInputError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def _require_outcome(outcome) -> tuple[int, int]:
    try:
        m1, m2 = outcome
    except (TypeError, ValueError):
        raise InvalidInputError(f"outcome must be an (m1, m2) pair, got {outcome!r}") from None
    if m1 not in (1, -1) or m2 not in (1, -1):
        raise InvalidInputError(f"outcome components must be +1 or -1, got {outcome!r}")
    return (int(m1), int(m2))


@dataclass(frozen=True)
class SetupParams:
    """Instrument settings: measurement strength and the two visibilities."""

    theta_deg: float
    v_pm: float = V_PM_DEFAULT
    v_hv: float = V_HV_DEFAULT

    def __post_init__(self):
        object.__setattr__(self, "theta_deg", _require_thetas((self.theta_deg,))[0])
        for name in ("v_pm", "v_hv"):
            object.__setattr__(self, name, _require_visibility(name, getattr(self, name)))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability table over the four sequential outcomes."""

    probs: Mapping[tuple[int, int], float]

    def __post_init__(self):
        table = {}
        for outcome, p in dict(self.probs).items():
            outcome = _require_outcome(outcome)
            p = float(p)
            if not math.isfinite(p) or p < 0.0:
                raise InvalidInputError(f"probability of outcome {outcome} must be >= 0, got {p!r}")
            table[outcome] = p
        if set(table) != set(OUTCOMES):
            raise InvalidInputError("distribution must cover exactly the four sequential outcomes")
        if abs(sum(table.values()) - 1.0) > 1e-9:
            raise InvalidInputError("outcome probabilities must sum to one")
        object.__setattr__(self, "probs", table)

    def __getitem__(self, outcome) -> float:
        return self.probs[_require_outcome(outcome)]


def effect_stack(theta_grid: Sequence[float], v_pm: float, v_hv: float) -> np.ndarray:
    """Read-only float64 effects of the imperfect instrument over a strength grid.

    Entry ``[n, k]`` is the real symmetric 2x2 effect of outcome ``OUTCOMES[k]``
    at ``theta_grid[n]``: the ideal rank-one projector, dephased in the HV basis
    by ``v_pm`` and mixed across m2 by the readout confusion ``(1 - v_hv) / 2``.
    Both steps preserve completeness and positivity; the stack is checked for
    both, and for symmetry, before it is returned.
    """
    v_pm = _require_visibility("v_pm", v_pm)
    v_hv = _require_visibility("v_hv", v_hv)
    two_theta = [math.radians(2.0 * theta_deg) for theta_deg in _require_thetas(theta_grid)]
    c = np.array([math.cos(x) for x in two_theta])
    s = np.array([math.sin(x) for x in two_theta])
    # (m2 = +1): (c, m1 s); (m2 = -1): (s, m1 c), in OUTCOMES order.  Times the reciprocal,
    # not / _SQRT2: numpy divides a complex array by a real one so, as the oracle did.
    vectors = np.stack([c, s, s, c, c, -s, s, -c], axis=-1).reshape(-1, 4, 2) * (1.0 / _SQRT2)
    dephased = vectors[..., :, None] * vectors[..., None, :]
    dephased[..., 0, 1] *= v_pm
    dephased[..., 1, 0] *= v_pm
    keep = (1.0 + v_hv) / 2.0
    swap = (1.0 - v_hv) / 2.0
    effects = keep * dephased + swap * dephased[:, _M2_PARTNER]
    _check_effects(effects)
    effects.setflags(write=False)
    return effects


def _check_effects(effects: np.ndarray) -> None:
    """The checks of :class:`PovmElement` and :func:`validate_povm` over a real stack."""
    if not np.all(np.isfinite(effects)):
        raise InvalidInputError("effect entries must be finite")
    if np.any(np.abs(effects - effects.swapaxes(-1, -2)) > TAU_HERM):
        raise InvalidInputError("an effect is not Hermitian within tolerance")
    diagonal = np.diagonal(effects, axis1=-2, axis2=-1)
    radius = np.hypot(0.5 * (diagonal[..., 0] - diagonal[..., 1]), np.abs(effects[..., 0, 1]))
    if np.any(0.5 * (diagonal[..., 0] + diagonal[..., 1]) - radius < -TAU_ALG):
        raise InvalidInputError("an effect is not positive semidefinite")
    if np.any(np.abs(effects.sum(axis=1) - np.eye(2)) >= TAU_POVM):
        raise InvalidInputError("the effects of a setting do not sum to the identity")


def sequential_povm(params: SetupParams) -> PovmSet:
    """The four-outcome POVM of the imperfect instrument at one setting.

    A one-point view of :func:`effect_stack`.
    """
    effects = effect_stack((params.theta_deg,), params.v_pm, params.v_hv)[0]
    return PovmSet(tuple(PovmElement(label=o, op=op) for o, op in zip(OUTCOMES, effects)))


def pm_marginal_povm(params: SetupParams) -> PovmSet:
    """Two-outcome POVM for m1 alone, ignoring the HV readout.

    Both elements commute with the PM Stokes operator for every setting.
    """
    effects = effect_stack((params.theta_deg,), params.v_pm, params.v_hv)[0]
    summed = 0.0 + effects[::2] + effects[1::2]  # over m2, added from zero in OUTCOMES order
    return PovmSet(tuple(PovmElement(label=m1, op=op) for m1, op in zip(M1_VALUES, summed)))


def pm_error_probabilities(theta_grid: Sequence[float], v_pm: float) -> list[float]:
    """Probability that m1 disagrees with a P or M eigenstate input, over a strength grid.

    Equals ``(1 - v_pm * sin(4 theta)) / 2`` and, by construction of the
    imperfection model, the probability of the m1 = -1 marginal effect on a
    P-polarized input.
    """
    return [0.5 * (1.0 - v_pm * math.sin(math.radians(4.0 * theta))) for theta in theta_grid]


def pm_error_probability(params: SetupParams) -> float:
    """The one-point view of :func:`pm_error_probabilities`."""
    return pm_error_probabilities((params.theta_deg,), params.v_pm)[0]


def outcome_probabilities(params: SetupParams, state: QubitState) -> OutcomeDistribution:
    """Distribution of the four sequential outcomes for a given input state."""
    povm = sequential_povm(params)
    return OutcomeDistribution(
        {element.label: born_probability(state, element) for element in povm.elements}
    )
