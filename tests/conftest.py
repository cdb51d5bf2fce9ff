import math

import numpy as np
import pytest
from hypothesis import strategies as st

from seqpol import DichotomicObservable, QubitState
from seqpol.algebra import PovmElement, PovmSet

SQRT2 = math.sqrt(2.0)

# Edge values of the instrument settings and the input angle: zero and full
# strength, visibilities 0 and 1 besides the calibrated ones, H and V inputs
# (0, 90) and the P and M eigenstates (45, -45).
THETA_EDGES = (0.0, 22.5)
V_PM_EDGES = (0.0, 0.93, 1.0)
V_HV_EDGES = (0.0, 0.9976, 1.0)
ANGLE_EDGES = (0.0, 45.0, -45.0, 22.5, 90.0, 67.5)


def with_edges(edges, lo, hi):
    """Floats in [lo, hi] that also draw each of ``edges`` directly."""
    return st.one_of(st.sampled_from(edges), st.floats(min_value=lo, max_value=hi))


@pytest.fixture
def psi_67_5():
    from seqpol import make_linear_polarization

    return make_linear_polarization(67.5)


def random_pure_state(rng) -> QubitState:
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    return QubitState.pure(vec / np.linalg.norm(vec))


def random_mixed_state(rng) -> QubitState:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return QubitState.mixed(rho / np.trace(rho).real)


def random_state(rng) -> QubitState:
    return random_pure_state(rng) if rng.random() < 0.5 else random_mixed_state(rng)


def random_dichotomic(rng) -> DichotomicObservable:
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    op = np.array(
        [[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]], dtype=complex
    )
    return DichotomicObservable.from_operator(op)


def m1_marginal(dist) -> dict[int, float]:
    """Probabilities of the first outcome alone: an outcome distribution summed over m2."""
    return {m1: sum(p for (a, _), p in dist.probs.items() if a == m1) for m1 in (1, -1)}


def projector(observable: DichotomicObservable, sign: int) -> np.ndarray:
    """Spectral projector (1 + sign A) / 2 of a dichotomic observable."""
    return (np.eye(2) + sign * observable.op) / 2.0


def random_binary_povm(rng) -> PovmSet:
    """Unsharp two-outcome POVM along a random direction."""
    direction = random_dichotomic(rng)
    u, v = rng.uniform(0.0, 1.0, size=2)
    first = u * projector(direction, 1) + v * projector(direction, -1)
    second = np.eye(2) - first
    return PovmSet((PovmElement("first", first), PovmElement("second", second)))


def random_three_outcome_povm(rng) -> PovmSet:
    """Three random positive effects, complex in general, scaled to sum to the identity."""
    raw = [g @ g.conj().T for g in rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))]
    values, vectors = np.linalg.eigh(sum(raw))
    root = vectors @ np.diag(values**-0.5) @ vectors.conj().T
    effects = [root @ m @ root for m in raw]
    return PovmSet(tuple(PovmElement(k, 0.5 * (e + e.conj().T)) for k, e in enumerate(effects)))


def random_povm(rng) -> PovmSet:
    """Either a random unsharp binary POVM or a random instrument POVM."""
    from seqpol import SetupParams, sequential_povm

    if rng.random() < 0.5:
        return random_binary_povm(rng)
    params = SetupParams(
        theta_deg=rng.uniform(0.0, 22.5),
        v_pm=rng.uniform(0.0, 1.0),
        v_hv=rng.uniform(0.0, 1.0),
    )
    return sequential_povm(params)
