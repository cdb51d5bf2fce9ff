"""Exact operator algebra for a single polarization qubit.

The basis is fixed throughout the package: index 0 is horizontal polarization
|H>, index 1 is vertical polarization |V>.  The diagonal states are
|P> = (|H>+|V>)/sqrt(2) and |M> = (|H>-|V>)/sqrt(2).  Operators are read-only
numpy arrays of shape (2, 2) and dtype complex128.  All checks use absolute
tolerances because every quantity handled here is of order one.

Angles cross this boundary in degrees and are converted to radians once.
Every value is immutable after construction and every operation is a pure
function of its inputs, so concurrent evaluation needs no coordination.
"""

import math
from dataclasses import dataclass
from typing import Hashable, Iterator, NamedTuple

import numpy as np

from .exceptions import InvalidInputError, require_real, shown

# Absolute tolerances for double-precision closed-form arithmetic.
TAU_ALG = 1e-10
TAU_POVM = 1e-9
TAU_HERM = 1e-12


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _complex_array(entries, what: str) -> np.ndarray:
    """``entries`` as a complex128 array.  A string entry, which numpy would parse, and
    what numpy cannot convert are an InvalidInputError; a numeric array holds no string."""
    try:
        numeric = isinstance(entries, np.ndarray) and entries.dtype.kind in "biufc"
        if numeric or not any(isinstance(x, (str, bytes)) for x in np.array(entries, object).flat):
            return np.array(entries, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):  # not a number, ragged, past the float range
        pass
    raise InvalidInputError(f"{what} must be complex numbers, got {shown(entries)}")


def as_operator(entries) -> np.ndarray:
    """Coerce ``entries`` to a read-only 2x2 complex operator.

    Raises
    ------
    InvalidInputError
        If an entry is not a number, the shape is not (2, 2) or any entry is NaN or infinite.
    """
    op = _complex_array(entries, "operator entries")
    if op.shape != (2, 2):
        raise InvalidInputError(f"expected a 2x2 operator, got shape {op.shape}")
    if not np.isfinite(op).all():
        raise InvalidInputError("operator entries must be finite")
    return _frozen(op)


def require_hermitian(op: np.ndarray) -> np.ndarray:
    if not np.abs(op - op.conj().T).max() <= TAU_HERM:
        raise InvalidInputError("operator is not Hermitian within tolerance")
    return op


def hermitian_eigenvalues(op: np.ndarray) -> tuple[float, float]:
    """Closed-form (smallest, largest) eigenvalues of a Hermitian 2x2 operator."""
    mean = 0.5 * (op[0, 0].real + op[1, 1].real)
    radius = math.hypot(0.5 * (op[0, 0].real - op[1, 1].real), abs(op[0, 1]))
    return mean - radius, mean + radius


IDENTITY = as_operator(np.eye(2))


@dataclass(frozen=True)
class QubitState:
    """A pure or mixed qubit state; the density matrix is always available.

    :meth:`pure` builds a pure state from its amplitudes and the constructor,
    ``QubitState(density)``, a mixed one.  Every construction path validates
    normalization, positivity, and (for pure states) agreement between vector
    and density matrix.
    """

    density: np.ndarray
    vector: np.ndarray | None = None

    def __post_init__(self):
        rho = as_operator(self.density)
        require_hermitian(rho)
        if abs(rho.trace().real - 1.0) > TAU_ALG:
            raise InvalidInputError("density matrix must have unit trace")
        if hermitian_eigenvalues(rho)[0] < -TAU_ALG:
            raise InvalidInputError("density matrix must be positive semidefinite")
        object.__setattr__(self, "density", rho)
        if self.vector is not None:
            vec = _complex_array(self.vector, "state vector entries")
            if vec.shape != (2,) or not np.isfinite(vec).all():
                raise InvalidInputError("state vector must be a finite 2-vector")
            if abs(np.linalg.norm(vec) - 1.0) > TAU_ALG:
                raise InvalidInputError("pure state vector must have unit norm")
            if np.abs(np.outer(vec, vec.conj()) - rho).max() > TAU_ALG:
                raise InvalidInputError("state vector and density matrix disagree")
            object.__setattr__(self, "vector", _frozen(vec))

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    @classmethod
    def pure(cls, vector) -> "QubitState":
        vec = _complex_array(vector, "state amplitudes")
        if vec.shape != (2,):
            raise InvalidInputError(f"expected a 2-vector, got shape {vec.shape}")
        if not np.isfinite(vec).all():
            raise InvalidInputError("state amplitudes must be finite")
        return cls(density=np.outer(vec, vec.conj()), vector=vec)


def make_linear_polarization(angle_deg: float) -> QubitState:
    """Pure linear-polarization state cos(a)|H> + sin(a)|V> for ``a`` in degrees."""
    rad = math.radians(require_real("polarization angle", angle_deg))
    return QubitState.pure(np.array([math.cos(rad), math.sin(rad)]))


@dataclass(frozen=True)
class DichotomicObservable:
    """Traceless Hermitian operator that squares to the identity, checked however it is built:
    its eigenvalues are +1 and -1, and its spectral projectors, (1 +- op) / 2, enter (P, c)."""

    op: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "op", require_hermitian(as_operator(self.op)))
        if float(np.max(np.abs(self.op @ self.op - IDENTITY))) > TAU_ALG:
            raise InvalidInputError("a dichotomic observable must square to the identity")
        if abs(self.op.trace()) > TAU_ALG:
            raise InvalidInputError("a dichotomic observable must be traceless")


def make_stokes(axis: str) -> DichotomicObservable:
    """Stokes operator for a linear-polarization axis.

    ``"HV"`` gives |H><H| - |V><V| and ``"PM"`` gives |P><P| - |M><M|.
    """
    if axis == "HV":
        return DichotomicObservable([[1.0, 0.0], [0.0, -1.0]])
    if axis == "PM":
        return DichotomicObservable([[0.0, 1.0], [1.0, 0.0]])
    raise InvalidInputError(f"unknown axis {axis!r}; expected 'HV' or 'PM'")


@dataclass(frozen=True)
class PovmElement:
    """A measurement-outcome effect: Hermitian and positive semidefinite."""

    label: Hashable
    op: np.ndarray

    def __post_init__(self):
        op = as_operator(self.op)
        require_hermitian(op)
        if hermitian_eigenvalues(op)[0] < -TAU_ALG:
            raise InvalidInputError(
                f"effect for outcome {self.label!r} must be positive semidefinite"
            )
        object.__setattr__(self, "op", op)


@dataclass(frozen=True)
class PovmSet:
    """An ordered collection of effects, normally summing to the identity.

    Completeness is a property of the whole set and is checked by
    :func:`validate_povm`, which reports rather than raises, so that broken
    candidate sets can still be inspected.
    """

    elements: tuple[PovmElement, ...]

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise InvalidInputError("a POVM needs at least one element")
        labels = [e.label for e in elements]
        if len(set(labels)) != len(labels):
            raise InvalidInputError("POVM outcome labels must be unique")
        object.__setattr__(self, "elements", elements)

    def __iter__(self) -> Iterator[PovmElement]:
        return iter(self.elements)


class PovmValidation(NamedTuple):
    """Completeness and positivity report for a candidate POVM."""

    completeness_residual: float
    min_eigenvalues: tuple[float, ...]
    passed: bool


def validate_povm(povm: PovmSet) -> PovmValidation:
    """Report the completeness residual and per-element minimum eigenvalue.

    Passes iff the residual (max entrywise deviation of the element sum from
    the identity) is below ``TAU_POVM`` and no eigenvalue dips below
    ``-TAU_ALG``.
    """
    total = np.zeros((2, 2), dtype=np.complex128)
    for element in povm.elements:
        total = total + element.op
    residual = float(np.max(np.abs(total - IDENTITY)))
    mins = tuple(hermitian_eigenvalues(e.op)[0] for e in povm.elements)
    passed = residual < TAU_POVM and min(mins) > -TAU_ALG
    return PovmValidation(completeness_residual=residual, min_eigenvalues=mins, passed=passed)


def _real_part(value: complex, context: str) -> float:
    if abs(value.imag) >= TAU_ALG:
        raise InvalidInputError(f"{context} has a non-real value {value!r}")
    return float(value.real)


def expectation(state: QubitState, obs: np.ndarray) -> float:
    """Tr(rho obs) for a Hermitian observable."""
    obs = require_hermitian(as_operator(obs))
    return _real_part(complex(np.trace(state.density @ obs)), "expectation value")


def born_probability(state: QubitState, element: PovmElement) -> float:
    """Outcome probability Tr(rho E).

    The value must land in [0, 1] up to ``TAU_ALG``; anything further out is a
    hard error rather than a clamp, since silent clamping would mask model
    bugs.  In-band values are clamped to [0, 1] after the check.
    """
    value = _real_part(
        complex(np.trace(state.density @ element.op)),
        f"probability of outcome {element.label!r}",
    )
    if value < -TAU_ALG or value > 1.0 + TAU_ALG:
        raise InvalidInputError(
            f"probability {value} of outcome {element.label!r} is out of range"
        )
    return min(1.0, max(0.0, value))


def real_cross_correlation(state: QubitState, element: PovmElement, obs: np.ndarray) -> float:
    """Re Tr(rho E A), the operator correlation between an outcome and an observable.

    This direct operator product is the oracle against which every
    probability-based reconstruction in the analysis module is validated.
    """
    obs = require_hermitian(as_operator(obs))
    return float(np.trace(state.density @ element.op @ obs).real)
