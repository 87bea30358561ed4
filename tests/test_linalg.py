import re

import numpy as np
import pytest

from qsverify.linalg import (
    DensityMatrix,
    PureState,
    expectation,
    overlap,
    phased_singlet,
    projector,
)
from qsverify.strategy import build_singlet_strategy


def random_density(rng) -> DensityMatrix:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


def test_expectation_identity_is_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = random_density(rng)
        assert expectation(np.eye(4), s) == pytest.approx(1.0, abs=1e-10)


def test_expectation_projector_on_itself():
    p = projector(phased_singlet(0.0))
    assert expectation(p.data, p) == pytest.approx(1.0, abs=1e-12)


def test_expectation_maximally_mixed():
    p = projector(phased_singlet(0.0))
    mixed = DensityMatrix(np.eye(4) / 4)
    assert expectation(p.data, mixed) == pytest.approx(0.25, abs=1e-12)


def test_expectation_rejects_non_hermitian():
    # coherent state with off-diagonal weight so a skew operand leaves an
    # imaginary trace
    plus = PureState(np.array([1, 1, 0, 0]) / np.sqrt(2))
    skew = np.zeros((4, 4), dtype=complex)
    skew[1, 0] = 1j
    with pytest.raises(ValueError):
        expectation(skew, projector(plus))


def test_expectation_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(np.eye(2), DensityMatrix(np.eye(4) / 4))


def test_projector_basis_state():
    p = projector(PureState(np.eye(4)[0]))
    assert np.allclose(p.data, np.diag([1, 0, 0, 0]), atol=1e-14)


def test_projector_idempotent_unit_trace():
    p = projector(phased_singlet(0.7)).data
    assert np.max(np.abs(p @ p - p)) < 1e-10
    assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)


def test_projector_global_phase_free():
    # (|01> + |10>)/sqrt(2) equals the phi = pi rotated singlet up to phase.
    plus = PureState(np.array([0, 1, 1, 0]) / np.sqrt(2))
    assert np.allclose(
        projector(phased_singlet(np.pi)).data, projector(plus).data, rtol=0, atol=1e-12
    )


def test_density_matrix_invariants_reject_bad_inputs():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2) / 2)  # not 4x4
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5, 0, 0]))  # negative eigenvalue
    nonherm = np.diag([1.0, 0, 0, 0]).astype(complex)
    nonherm[0, 1] = 1e-3
    with pytest.raises(ValueError):
        DensityMatrix(nonherm)


def test_density_matrix_random_samples_satisfy_invariants():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = random_density(rng)
        m = d.data
        assert abs(np.trace(m) - 1) < 1e-10
        assert np.max(np.abs(m - m.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(m).min() > -1e-10


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(np.array([1, 1, 0, 0], dtype=complex))


def test_pure_state_rejects_non_finite_amplitudes():
    # NaN compares False against any tolerance, so the norm check must be
    # written to fail on it.
    for amps in ([np.nan, 0, 0, 0], [np.inf, 0, 0, 0]):
        with pytest.raises(ValueError):
            PureState(np.array(amps, dtype=complex))
    with pytest.raises(ValueError):
        phased_singlet(np.nan)


def test_matrices_are_immutable():
    strat = build_singlet_strategy()
    for m in (projector(phased_singlet(0.0)).data, strat.tests[0].proj, strat.omega):
        with pytest.raises(ValueError):
            m[0, 0] = 5.0


def test_overlap_matches_expectation():
    rng = np.random.default_rng(2)
    target = phased_singlet(1.3)
    for _ in range(10):
        s = random_density(rng)
        assert overlap(target, s) == pytest.approx(
            expectation(projector(target).data, s), abs=1e-12
        )


@pytest.mark.parametrize(
    "amplitudes, message",
    [
        (np.ones(3) / np.sqrt(3), "expected 4 amplitudes, got shape (3,)"),
        (np.ones(5) / np.sqrt(5), "expected 4 amplitudes, got shape (5,)"),
    ],
)
def test_pure_state_refusals_state_their_reason(amplitudes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PureState(amplitudes)
