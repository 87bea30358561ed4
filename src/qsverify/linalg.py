"""Dense complex linear algebra for one- and two-qubit operators.

Everything in this package lives in fixed, tiny Hilbert spaces: single-qubit
operators are 2x2, two-qubit operators are 4x4.  The two-qubit computational
basis is ordered |00>, |01>, |10>, |11> throughout; ``kron(a, b)`` puts ``a``
on the first (left) qubit, so entry ``(2*i1 + i0, 2*j1 + j0)`` of a 4x4 matrix
is ``<i1 i0| M |j1 j0>``.  Matrix entries are stored dense in row-major
(C-contiguous) order: ``m.data[row, col]``.

All values are immutable after construction (the wrapped arrays are marked
read-only), so they can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances used by the type invariants.
NORM_TOL = 1e-12        # pure-state normalization
HERMITIAN_TOL = 1e-10   # Hermiticity of density matrices
TRACE_TOL = 1e-10       # unit-trace deviation
PSD_TOL = 1e-10         # most negative admissible eigenvalue
IMAG_TOL = 1e-10        # residual imaginary part of an expectation value


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ComplexMatrix:
    """A dense square complex matrix of dimension 2 or 4."""

    data: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.data)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] not in (2, 4):
            raise ValueError(f"only dimensions 2 and 4 are supported, got {arr.shape[0]}")
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return bool(np.max(np.abs(self.data - self.data.conj().T)) <= tol)


@dataclass(frozen=True)
class PureState:
    """A normalized two-qubit state vector (4 complex amplitudes)."""

    vec: np.ndarray

    def __post_init__(self):
        arr = np.array(self.vec, dtype=np.complex128).reshape(-1)
        if arr.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {arr.shape}")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm {norm} deviates from 1 beyond {NORM_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "vec", arr)


@dataclass(frozen=True)
class DensityMatrix:
    """A 4x4 Hermitian, unit-trace, positive-semidefinite operator."""

    mat: ComplexMatrix

    def __post_init__(self):
        m = self.mat
        if not isinstance(m, ComplexMatrix):
            m = ComplexMatrix(np.asarray(m))
            object.__setattr__(self, "mat", m)
        if m.dim != 4:
            raise ValueError("density matrices are 4x4 in this package")
        if not m.is_hermitian(HERMITIAN_TOL):
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m.data))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1 beyond {TRACE_TOL}")
        # Dimension is 4, so a full eigenvalue decomposition is cheap and exact
        # enough; no need for anything smarter.
        eigs = np.linalg.eigvalsh(m.data)
        if float(eigs.min()) < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product of two 2x2 operators, ``a`` acting on the left qubit."""
    if a.dim != 2 or b.dim != 2:
        raise ValueError(f"kron expects 2x2 factors, got dims {a.dim} and {b.dim}")
    return ComplexMatrix(np.kron(a.data, b.data))


def expectation(m: ComplexMatrix, s: DensityMatrix) -> float:
    """Real part of tr(m s); raises if the trace has a non-negligible imaginary part."""
    if m.dim != s.mat.dim:
        raise ValueError(f"dimension mismatch: {m.dim} vs {s.mat.dim}")
    value = complex(np.einsum("ij,ji->", m.data, s.mat.data))
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(
            f"tr(m s) has imaginary part {value.imag}; operand is not Hermitian"
        )
    return float(value.real)


def projector(s: PureState) -> DensityMatrix:
    """Rank-1 projector |s><s| as a density matrix."""
    return DensityMatrix(ComplexMatrix(np.outer(s.vec, s.vec.conj())))


def overlap(a: PureState, s: DensityMatrix) -> float:
    """Fidelity <a| s |a> of a density matrix with a pure state."""
    value = complex(a.vec.conj() @ s.mat.data @ a.vec)
    return float(value.real)


def phased_singlet(phi: float = 0.0) -> PureState:
    """The state (|01> - e^{i phi} |10>) / sqrt(2); phi = 0 gives the singlet."""
    vec = np.zeros(4, dtype=np.complex128)
    vec[1] = 1.0 / np.sqrt(2.0)
    vec[2] = -np.exp(1j * phi) / np.sqrt(2.0)
    return PureState(vec)


def identity(dim: int) -> ComplexMatrix:
    return ComplexMatrix(np.eye(dim))


PAULI_X = ComplexMatrix(np.array([[0, 1], [1, 0]], dtype=np.complex128))
PAULI_Y = ComplexMatrix(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
PAULI_Z = ComplexMatrix(np.array([[1, 0], [0, -1]], dtype=np.complex128))
I2 = identity(2)
I4 = identity(4)
