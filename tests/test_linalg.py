import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsverify.linalg import (
    ComplexMatrix,
    DensityMatrix,
    I2,
    I4,
    PAULI_X,
    PAULI_Z,
    PureState,
    expectation,
    kron,
    overlap,
    phased_singlet,
    projector,
)


def random_density(rng) -> DensityMatrix:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return DensityMatrix(ComplexMatrix(m / np.trace(m)))


def test_kron_identity():
    assert np.allclose(kron(I2, I2).data, I4.data, rtol=0, atol=1e-12)


def test_kron_zz_diagonal():
    zz = kron(PAULI_Z, PAULI_Z)
    assert np.allclose(zz.data, np.diag([1, -1, -1, 1]), rtol=0, atol=1e-12)


def test_kron_xx_flips_both_qubits():
    xx = kron(PAULI_X, PAULI_X)
    ket = np.eye(4)  # |00>, |01>, |10>, |11>
    out = xx.data @ PureState(ket[0b01]).vec
    assert np.allclose(out, PureState(ket[0b10]).vec, atol=1e-12)


def test_kron_rejects_dim_4():
    with pytest.raises(ValueError):
        kron(I4, I2)


@settings(max_examples=100, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_kron_bilinear(re, im):
    rng = np.random.default_rng(int(abs(re) * 1e6) % 2**32)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    scalar = re + 1j * im
    lhs = kron(ComplexMatrix(scalar * a), ComplexMatrix(b)).data
    rhs = scalar * kron(ComplexMatrix(a), ComplexMatrix(b)).data
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, abs(scalar))


def test_expectation_identity_is_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = random_density(rng)
        assert expectation(I4, s) == pytest.approx(1.0, abs=1e-10)


def test_expectation_projector_on_itself():
    p = projector(phased_singlet(0.0))
    assert expectation(p.mat, p) == pytest.approx(1.0, abs=1e-12)


def test_expectation_maximally_mixed():
    p = projector(phased_singlet(0.0))
    mixed = DensityMatrix(ComplexMatrix(np.eye(4) / 4))
    assert expectation(p.mat, mixed) == pytest.approx(0.25, abs=1e-12)


def test_expectation_rejects_non_hermitian():
    # coherent state with off-diagonal weight so a skew operand leaves an
    # imaginary trace
    plus = PureState(np.array([1, 1, 0, 0]) / np.sqrt(2))
    skew = np.zeros((4, 4), dtype=complex)
    skew[1, 0] = 1j
    with pytest.raises(ValueError):
        expectation(ComplexMatrix(skew), projector(plus))


def test_expectation_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(I2, DensityMatrix(ComplexMatrix(np.eye(4) / 4)))


def test_projector_basis_state():
    p = projector(PureState(np.eye(4)[0]))
    assert np.allclose(p.mat.data, np.diag([1, 0, 0, 0]), atol=1e-14)


def test_projector_idempotent_unit_trace():
    p = projector(phased_singlet(0.7)).mat.data
    assert np.max(np.abs(p @ p - p)) < 1e-10
    assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)


def test_projector_global_phase_free():
    # (|01> + |10>)/sqrt(2) equals the phi = pi rotated singlet up to phase.
    plus = PureState(np.array([0, 1, 1, 0]) / np.sqrt(2))
    assert np.allclose(
        projector(phased_singlet(np.pi)).mat.data, projector(plus).mat.data, rtol=0, atol=1e-12
    )


def test_density_matrix_invariants_reject_bad_inputs():
    with pytest.raises(ValueError):
        DensityMatrix(ComplexMatrix(np.eye(4)))  # trace 4
    with pytest.raises(ValueError):
        DensityMatrix(ComplexMatrix(np.diag([1.5, -0.5, 0, 0])))  # negative eigenvalue
    nonherm = np.diag([1.0, 0, 0, 0]).astype(complex)
    nonherm[0, 1] = 1e-3
    with pytest.raises(ValueError):
        DensityMatrix(ComplexMatrix(nonherm))


def test_density_matrix_random_samples_satisfy_invariants():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = random_density(rng)
        m = d.mat.data
        assert abs(np.trace(m) - 1) < 1e-10
        assert np.max(np.abs(m - m.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(m).min() > -1e-10


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(np.array([1, 1, 0, 0], dtype=complex))


def test_matrices_are_immutable():
    m = kron(PAULI_X, PAULI_X)
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0


def test_overlap_matches_expectation():
    rng = np.random.default_rng(2)
    target = phased_singlet(1.3)
    for _ in range(10):
        s = random_density(rng)
        assert overlap(target, s) == pytest.approx(
            expectation(projector(target).mat, s), abs=1e-12
        )
