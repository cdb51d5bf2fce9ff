import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpol import (DichotomicObservable, InvalidInputError, QubitState, make_linear_polarization,
                    make_stokes)
from seqpol.algebra import (
    IDENTITY,
    PovmElement,
    PovmSet,
    TAU_ALG,
    as_operator,
    born_probability,
    expectation,
    hermitian_eigenvalues,
    real_cross_correlation,
    validate_povm,
)
from seqpol import SetupParams, sequential_povm

from conftest import SQRT2, projector, random_dichotomic, random_state

angles = st.floats(min_value=-360.0, max_value=360.0, allow_nan=False)


class TestOperators:
    def test_as_operator_rejects_bad_shape(self):
        with pytest.raises(InvalidInputError):
            as_operator([1.0, 2.0])

    def test_as_operator_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            as_operator([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            as_operator([[1.0, np.inf * 1j], [0.0, 1.0]])

    def test_operators_are_read_only(self):
        op = as_operator(np.eye(2))
        with pytest.raises(ValueError):
            op[0, 0] = 5.0

    def test_closed_form_eigenvalues(self):
        low, high = hermitian_eigenvalues(as_operator([[2.0, 1.0 + 1j], [1.0 - 1j, -1.0]]))
        brute = np.linalg.eigvalsh(np.array([[2.0, 1.0 + 1j], [1.0 - 1j, -1.0]]))
        assert low == pytest.approx(brute[0], abs=1e-12)
        assert high == pytest.approx(brute[1], abs=1e-12)


class TestStates:
    def test_basis_states(self):
        h = make_linear_polarization(0.0)
        assert np.allclose(h.vector, [1.0, 0.0], atol=1e-15)
        p = make_linear_polarization(45.0)
        assert np.allclose(p.vector, [1 / SQRT2, 1 / SQRT2], atol=1e-15)

    def test_67_5_degree_expectations(self):
        psi = make_linear_polarization(67.5)
        assert expectation(psi, make_stokes("PM").op) == pytest.approx(1 / SQRT2, abs=1e-12)
        assert expectation(psi, make_stokes("HV").op) == pytest.approx(-1 / SQRT2, abs=1e-12)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(InvalidInputError):
            make_linear_polarization(math.nan)
        with pytest.raises(InvalidInputError):
            make_linear_polarization(math.inf)

    def test_pure_requires_unit_norm(self):
        with pytest.raises(InvalidInputError):
            QubitState.pure([1.0, 1.0])

    def test_mixed_requires_positivity(self):
        with pytest.raises(InvalidInputError):
            QubitState([[1.5, 0.0], [0.0, -0.5]])

    def test_direct_construction_is_validated_too(self):
        with pytest.raises(InvalidInputError):
            QubitState(density=np.diag([0.7, 0.7]))
        with pytest.raises(InvalidInputError):
            QubitState(density=np.diag([1.0, 0.0]), vector=np.array([0.0, 1.0]))

    @settings(max_examples=100, deadline=None)
    @given(angle=angles)
    def test_linear_polarization_invariants(self, angle):
        psi = make_linear_polarization(angle)
        assert abs(np.linalg.norm(psi.vector) - 1.0) <= TAU_ALG
        assert abs(np.trace(psi.density).real - 1.0) <= TAU_ALG
        low, _ = hermitian_eigenvalues(psi.density)
        assert low >= -TAU_ALG

    def test_randomized_construction_invariants(self):
        # hermiticity and positivity of every constructed object, checked
        # directly rather than through the constructors alone
        rng = np.random.default_rng(53)
        for _ in range(1000):
            state = make_linear_polarization(rng.uniform(-180, 180)) if rng.random() < 0.5 else (
                random_state(rng)
            )
            rho = state.density
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
            assert hermitian_eigenvalues(rho)[0] >= -TAU_ALG
            obs = random_dichotomic(rng)
            assert np.max(np.abs(obs.op - obs.op.conj().T)) <= 1e-12
            assert np.max(np.abs(obs.op @ obs.op - IDENTITY)) <= TAU_ALG


class TestStokes:
    def test_hv_matrix(self):
        op = make_stokes("HV").op
        assert np.allclose(op, [[1.0, 0.0], [0.0, -1.0]], atol=0)

    def test_pm_matrix(self):
        op = make_stokes("PM").op
        assert np.allclose(op, [[0.0, 1.0], [1.0, 0.0]], atol=0)

    @pytest.mark.parametrize("axis", ["HV", "PM"])
    def test_squares_to_identity(self, axis):
        obs = make_stokes(axis)
        assert np.max(np.abs(obs.op @ obs.op - IDENTITY)) <= TAU_ALG

    def test_unknown_axis(self):
        with pytest.raises(InvalidInputError):
            make_stokes("circular")


class TestDichotomicObservable:
    @pytest.mark.parametrize("entries, message", [
        ("x", "operator entries must be complex numbers, got 'x'"),
        ([[1.0, 1.0], [0.0, 1.0]], "operator is not Hermitian within tolerance"),
        (2.0 * np.eye(2), "a dichotomic observable must square to the identity"),
        (np.diag([1.0, 0.5]), "a dichotomic observable must square to the identity"),
        # I and -I square to the identity but have one eigenvalue, +1 or -1, twice
        (np.eye(2), "a dichotomic observable must be traceless"),
        (-np.eye(2), "a dichotomic observable must be traceless"),
    ])
    def test_every_construction_path_checks_the_operator(self, entries, message):
        with pytest.raises(InvalidInputError) as excinfo:
            DichotomicObservable(entries)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("axis, entries", [("HV", [[1.0, 0.0], [0.0, -1.0]]),
                                               ("PM", [[0.0, 1.0], [1.0, 0.0]])])
    def test_the_constructor_stores_a_read_only_complex_operator(self, axis, entries):
        # the constructor, on an array or on nested lists, builds the target of make_stokes
        for built in (DichotomicObservable(np.array(entries)), DichotomicObservable(entries),
                      make_stokes(axis)):
            assert built.op.dtype == np.complex128 and not built.op.flags.writeable
            assert repr(built) == repr(make_stokes(axis))


class TestExpectationValues:
    def test_h_state_hv(self):
        assert expectation(make_linear_polarization(0.0), make_stokes("HV").op) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_squared_observable(self, psi_67_5):
        pm = make_stokes("PM").op
        assert expectation(psi_67_5, pm @ pm) == pytest.approx(1.0, abs=1e-12)

    def test_non_hermitian_rejected(self, psi_67_5):
        with pytest.raises(InvalidInputError):
            expectation(psi_67_5, [[0.0, 1.0], [0.0, 0.0]])


class TestBornProbability:
    def test_identity_element(self, psi_67_5):
        assert born_probability(psi_67_5, PovmElement("all", IDENTITY)) == 1.0

    def test_orthogonal_projector(self):
        h = make_linear_polarization(0.0)
        v_proj = PovmElement("V", [[0.0, 0.0], [0.0, 1.0]])
        assert born_probability(h, v_proj) == 0.0

    def test_hv_projector_at_67_5(self, psi_67_5):
        element = PovmElement("H", (IDENTITY + make_stokes("HV").op) / 2)
        # frozen from the independent dense evaluation: cos^2(67.5 deg)
        assert born_probability(psi_67_5, element) == pytest.approx(0.1464466094067263, abs=1e-12)

    def test_out_of_range_is_hard_error(self, psi_67_5):
        double = PovmElement("double", 2.0 * np.eye(2))
        with pytest.raises(InvalidInputError):
            born_probability(psi_67_5, double)


class TestRealCrossCorrelation:
    def test_identity_element_reduces_to_expectation(self, psi_67_5):
        pm = make_stokes("PM")
        value = real_cross_correlation(psi_67_5, PovmElement("all", IDENTITY), pm.op)
        assert value == pytest.approx(1 / SQRT2, abs=1e-12)

    def test_plus_projector_equals_probability(self):
        rng = np.random.default_rng(11)
        pm = make_stokes("PM")
        element = PovmElement("plus", projector(pm, 1))
        for _ in range(50):
            state = random_state(rng)
            assert real_cross_correlation(state, element, pm.op) == pytest.approx(
                born_probability(state, element), abs=1e-12
            )

    def test_frozen_noncommuting_value(self, psi_67_5):
        element = PovmElement("H", (IDENTITY + make_stokes("HV").op) / 2)
        value = real_cross_correlation(psi_67_5, element, make_stokes("PM").op)
        # frozen from an independent dense 2x2 product; equals sqrt(2)/4
        assert value == pytest.approx(0.3535533905932738, abs=1e-12)
        # keep the oracle in view: raw matrix product, no package code
        rho = np.outer(psi_67_5.vector, psi_67_5.vector.conj())
        brute = np.trace(rho @ np.array([[1.0, 0], [0, 0]]) @ np.array([[0, 1.0], [1, 0]])).real
        assert value == pytest.approx(brute, abs=1e-15)

    def test_sum_over_complete_povm_is_expectation(self):
        from conftest import random_povm

        rng = np.random.default_rng(13)
        for _ in range(1000):
            state = random_state(rng)
            obs = random_dichotomic(rng)
            povm = random_povm(rng)
            total = sum(real_cross_correlation(state, el, obs.op) for el in povm)
            assert total == pytest.approx(expectation(state, obs.op), abs=1e-9)


class TestValidatePovm:
    def test_projective_pair_passes(self):
        pm = make_stokes("PM")
        povm = PovmSet(
            (PovmElement(1, projector(pm, 1)), PovmElement(-1, projector(pm, -1)))
        )
        assert validate_povm(povm).passed

    def test_identity_alone_passes(self):
        assert validate_povm(PovmSet((PovmElement("all", IDENTITY),))).passed

    def test_incomplete_set_fails_with_residual(self):
        pm = make_stokes("PM")
        report = validate_povm(PovmSet((PovmElement(1, projector(pm, 1)),)))
        assert not report.passed
        assert report.completeness_residual == pytest.approx(0.5, abs=1e-12)

    def test_negative_element_rejected_at_construction(self):
        with pytest.raises(InvalidInputError):
            PovmElement("bad", [[-0.1, 0.0], [0.0, 1.0]])

    def test_born_probabilities_sum_to_one(self):
        from conftest import random_povm

        rng = np.random.default_rng(17)
        for _ in range(1000):
            state = random_state(rng)
            povm = random_povm(rng)
            total = sum(born_probability(state, el) for el in povm)
            assert abs(total - 1.0) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(min_value=0.0, max_value=22.5, allow_nan=False),
        v_pm=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        v_hv=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_instrument_povm_always_validates(self, theta, v_pm, v_hv):
        assert validate_povm(sequential_povm(SetupParams(theta, v_pm, v_hv))).passed
