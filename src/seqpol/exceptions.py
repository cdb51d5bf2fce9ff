"""Exception types shared across the package, and the two number rules of every input.

A real input is a ``numbers.Real`` that is finite as a float (a bool counts as 0 or 1, a
numpy scalar by its value); an integer input is a ``numbers.Integral`` other than a bool.
:func:`require_reals` is the real rule over a sequence or an array, entry by entry.
"""

import math
import numbers
import sys
from collections.abc import Mapping

import numpy as np


class SeqpolError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(SeqpolError, ValueError):
    """An argument violates a documented precondition or invariant."""


class DegenerateBranchError(SeqpolError, ArithmeticError):
    """A conditional branch has vanishing weight, so no state or estimate exists."""


class UnresolvableOutcomeError(SeqpolError, ArithmeticError):
    """An estimate was requested for an outcome with negligible probability.

    The offending outcome label, when known, is attached as ``outcome``.
    """

    def __init__(self, message: str, outcome=None):
        super().__init__(message)
        self.outcome = outcome


def shown(value) -> str:
    """``repr(value)`` for an error message; an int too long for repr gets a placeholder."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def real_number(value) -> float | None:
    """``value`` as a float if it is a finite real number, else None."""
    try:
        number = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int past the float range
        return None
    return number if math.isfinite(number) else None


def require_real(name: str, value, lo=-math.inf, hi=math.inf, unit: str = "") -> float:
    """``value`` as a float, once it is a finite real number in [lo, hi]."""
    number = real_number(value)
    if number is None:
        raise InvalidInputError(f"{name} must be finite, got {shown(value)}")
    if not lo <= number <= hi:
        raise InvalidInputError(f"{name} must lie in [{lo}, {hi}]{unit}, got {shown(value)}")
    return number


def require_reals(name: str, values, lo=-math.inf, hi=math.inf, unit: str = "") -> np.ndarray:
    """A sequence or an array as a float64 array of its shape, by :func:`require_real` per entry."""
    array = isinstance(values, np.ndarray)
    if array and values.dtype.kind in "biuf":  # bool, int and float arrays in one step
        floats = np.asarray(values, dtype=float)
    else:  # entry by entry, an array's entries as Python values
        entries = values.ravel().tolist() if array else values
        floats = np.array([v if type(v) is float else real_number(v) for v in entries], float)
    # NaN fails both, and +-inf the largest finite floats that stand in for infinite bounds
    ok = (floats >= max(lo, -sys.float_info.max)) & (floats <= min(hi, sys.float_info.max))
    if not ok.all():  # the first bad entry in flat order raises, named by its Python value
        first = int(ok.argmin())
        require_real(name, values.item(first) if array else values[first], lo, hi, unit)
    return floats.reshape(values.shape) if array else floats


def require_mapping(name: str, value) -> dict:
    """``value`` as a dict, once it is a mapping."""
    if not isinstance(value, Mapping):
        raise InvalidInputError(f"{name} must be a mapping, got {shown(value)}")
    return dict(value)


def require_integer(name: str, value, least: int, most=math.inf) -> int:
    """``value`` as an int, once it is an integer, not a bool, in [least, most]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidInputError(
            f"{name} must be an integer of at least {least}, got {shown(value)}")
    if value > most:
        raise InvalidInputError(f"{name} must lie in [{least}, {most}], got {shown(value)}")
    return int(value)
