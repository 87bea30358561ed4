"""Dense complex linear algebra for two-qubit states and operators.

Every operator in this package is a 4x4 complex128 ndarray.  The two-qubit
computational basis is ordered |00>, |01>, |10>, |11> throughout, with the
first (left) qubit most significant: entry ``(2*i1 + i0, 2*j1 + j0)`` of a
4x4 matrix is ``<i1 i0| M |j1 j0>``.  Matrix entries are stored dense in
row-major (C-contiguous) order: ``m[row, col]``.

All values are immutable after construction (the stored arrays are marked
read-only), so they can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances used by the type invariants.
NORM_TOL = 1e-12        # pure-state normalization
HERMITIAN_TOL = 1e-10   # Hermiticity of density matrices and test projectors
TRACE_TOL = 1e-10       # unit-trace deviation
PSD_TOL = 1e-10         # most negative admissible eigenvalue
IMAG_TOL = 1e-10        # residual imaginary part of an expectation value


def freeze(arr) -> np.ndarray:
    """A read-only, C-contiguous complex128 copy of ``arr``."""
    out = np.array(arr, dtype=np.complex128, order="C")
    out.setflags(write=False)
    return out


def is_hermitian(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL)


@dataclass(frozen=True)
class PureState:
    """A normalized two-qubit state vector (4 complex amplitudes)."""

    vec: np.ndarray

    def __post_init__(self):
        arr = np.array(self.vec, dtype=np.complex128).reshape(-1)
        if arr.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {arr.shape}")
        norm = float(np.linalg.norm(arr))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state vector norm {norm} deviates from 1 beyond {NORM_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "vec", arr)


@dataclass(frozen=True)
class DensityMatrix:
    """A 4x4 Hermitian, unit-trace, positive-semidefinite operator."""

    data: np.ndarray

    def __post_init__(self):
        m = freeze(self.data)
        object.__setattr__(self, "data", m)
        if m.shape != (4, 4):
            raise ValueError(f"density matrices are 4x4 in this package, got shape {m.shape}")
        if not is_hermitian(m):
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1 beyond {TRACE_TOL}")
        # Dimension is 4, so a full eigenvalue decomposition is cheap and exact
        # enough; no need for anything smarter.
        eigs = np.linalg.eigvalsh(m)
        if float(eigs.min()) < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")


def expectation(op: np.ndarray, s: DensityMatrix) -> float:
    """Real part of tr(op s); raises if the trace has a non-negligible imaginary part."""
    if op.shape != s.data.shape:
        raise ValueError(f"dimension mismatch: {op.shape} vs {s.data.shape}")
    value = complex(np.einsum("ij,ji->", op, s.data))
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(
            f"tr(op s) has imaginary part {value.imag}; operand is not Hermitian"
        )
    return float(value.real)


def projector(s: PureState) -> DensityMatrix:
    """Rank-1 projector |s><s| as a density matrix."""
    return DensityMatrix(np.outer(s.vec, s.vec.conj()))


def overlap(a: PureState, s: DensityMatrix) -> float:
    """Fidelity <a| s |a> of a density matrix with a pure state."""
    value = complex(a.vec.conj() @ s.data @ a.vec)
    return float(value.real)


def phased_singlet(phi: float = 0.0) -> PureState:
    """The state (|01> - e^{i phi} |10>) / sqrt(2); phi = 0 gives the singlet."""
    vec = np.zeros(4, dtype=np.complex128)
    vec[1] = 1.0 / np.sqrt(2.0)
    vec[2] = -np.exp(1j * phi) / np.sqrt(2.0)
    return PureState(vec)
