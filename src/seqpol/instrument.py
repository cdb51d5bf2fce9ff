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
    make_stokes,
)
from .analysis import stack_terms
from .exceptions import InvalidInputError, require_mapping, require_real, require_reals, shown

V_PM_DEFAULT = 0.93
V_HV_DEFAULT = 0.9976
THETA_MAX_DEG = 22.5

# Canonical outcome order used everywhere: (m1, m2) = (+,+), (+,-), (-,+), (-,-).
OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
M1_VALUES = (1, -1)
# Index of the m2-flipped partner of each outcome in OUTCOMES.
_M2_PARTNER = [1, 0, 3, 2]

_SQRT2 = math.sqrt(2.0)
# How far a table of outcome probabilities, summed from 0.0 in outcome order, may lie from one.
PROBABILITY_SUM_TOL = 1e-9


def _grid_entries(theta_grid: Sequence[float]) -> Sequence:
    """The entries of a strength grid: a 1-D array as it is, any other iterable as a tuple,
    where each row of a 2-D grid is one entry, not a number.  A number is no grid."""
    ndim = getattr(theta_grid, "ndim", None)
    if ndim == 0 or not hasattr(theta_grid, "__iter__"):
        raise InvalidInputError(f"theta_grid must be a one-dimensional sequence, "
                                f"got {shown(theta_grid)}")
    return theta_grid if ndim == 1 else tuple(theta_grid)


def _require_thetas(theta_grid: Sequence[float]) -> np.ndarray:
    """Strength settings as a float64 array, from a one-dimensional grid."""
    return require_reals("theta_deg", _grid_entries(theta_grid), 0, THETA_MAX_DEG, " degrees")


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
        for name, hi, unit in (("theta_deg", THETA_MAX_DEG, " degrees"), ("v_pm", 1, ""),
                               ("v_hv", 1, "")):
            object.__setattr__(self, name, require_real(name, getattr(self, name), 0, hi, unit))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability table over the four sequential outcomes."""

    probs: Mapping[tuple[int, int], float]

    def __post_init__(self):
        table = {}
        for outcome, p in require_mapping("probs", self.probs).items():
            outcome = _require_outcome(outcome)
            table[outcome] = require_real(f"probability of outcome {outcome}", p, 0, math.inf)
        if set(table) != set(OUTCOMES):
            raise InvalidInputError("distribution must cover exactly the four sequential outcomes")
        if abs(sum((table[o] for o in OUTCOMES), 0.0) - 1.0) > PROBABILITY_SUM_TOL:
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
    v_pm, v_hv = require_real("v_pm", v_pm, 0, 1), require_real("v_hv", v_hv, 0, 1)
    two_theta = np.radians(2.0 * _require_thetas(theta_grid))
    c, s = np.cos(two_theta), np.sin(two_theta)
    # (m2 = +1): (c, m1 s); (m2 = -1): (s, m1 c), in OUTCOMES order.  Times the reciprocal,
    # not / _SQRT2: numpy divides a complex array by a real one so, as the oracle did.
    vectors = (np.array([c, s, s, c, c, -s, s, -c]) * (1.0 / _SQRT2)).T.reshape(-1, 4, 2)
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
    if not np.isfinite(effects).all():
        raise InvalidInputError("effect entries must be finite")
    if (np.abs(effects - effects.swapaxes(-1, -2)) > TAU_HERM).any():
        raise InvalidInputError("an effect is not Hermitian within tolerance")
    diagonal = np.diagonal(effects, axis1=-2, axis2=-1)
    radius = np.hypot(0.5 * (diagonal[..., 0] - diagonal[..., 1]), np.abs(effects[..., 0, 1]))
    if (0.5 * (diagonal[..., 0] + diagonal[..., 1]) - radius < -TAU_ALG).any():
        raise InvalidInputError("an effect is not positive semidefinite")
    if (np.abs(effects.sum(axis=1) - np.eye(2)) >= TAU_POVM).any():
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
    v_pm = require_real("v_pm", v_pm, 0, 1)
    return (0.5 * (1.0 - v_pm * np.sin(np.radians(4.0 * _require_thetas(theta_grid))))).tolist()


def pm_error_probability(params: SetupParams) -> float:
    """The one-point view of :func:`pm_error_probabilities`."""
    return pm_error_probabilities((params.theta_deg,), params.v_pm)[0]


def outcome_probabilities(params: SetupParams, state: QubitState) -> OutcomeDistribution:
    """Distribution of the four sequential outcomes for a given input state."""
    effects = effect_stack((params.theta_deg,), params.v_pm, params.v_hv)[0]
    p, _ = stack_terms(state, effects, make_stokes("PM"))  # the target shapes only c
    return OutcomeDistribution(dict(zip(OUTCOMES, p.tolist())))
