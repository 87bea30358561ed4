"""Honest and adversarial source models for verification runs.

A source hands the verifier N + 1 two-qubit systems.  Every model here is a
weighted mixture of *product sequences*: with probability w_b the source
emits palette[index[b, 0]] (x) ... (x) palette[index[b, N]], where the
palette holds the distinct single-copy states and ``index`` has one byte per
system.  This covers the honest IID source, the two correlated adversaries
used in the experiments, and arbitrary user-declared mixtures; globally
entangled sources are outside the representation (and outside what the
exact reference computations can factorize).

The canonical noisy single copy is the Werner state

    v |S><S| + (1 - v) I/4,    v = (4 F - 1) / 3,

which has fidelity F with the singlet |S> and is positive for F >= 1/4.
Phase-rotated copies |S(phi)> = (|01> - e^{i phi} |10>)/sqrt(2) are
depolarized with the same parameter when a preparation fidelity below 1 is
requested; the noise channel of an imperfect preparation is a modeling
choice, and isotropic depolarization is the simplest one-parameter option.

Mixtures are immutable; the round engine in ``simulate`` draws from them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import DensityMatrix, PureState, overlap, phased_singlet, projector
from .strategy import WEIGHT_TOL, HomogeneousStrategy


@dataclass(frozen=True)
class NoiseSpec:
    """Per-copy preparation quality: target-state fidelity of each copy."""

    fidelity: float = 1.0

    def __post_init__(self):
        check_fidelity(self.fidelity)


def check_fidelity(fidelity: float) -> float:
    """The preparation-fidelity rule: a depolarized copy is a state only in [1/4, 1]."""
    if not (0.25 <= fidelity <= 1.0):
        raise ValueError(f"fidelity {fidelity} outside [1/4, 1]; not a state below 1/4")
    return fidelity


@dataclass(frozen=True, eq=False)
class ProductSequenceMixture:
    """Weighted mixture of product sequences over a palette of distinct states.

    Branch b emits palette[index[b, i]] on system i.  ``index`` (B, L) is
    stored in the smallest dtype that holds ``len(palette) - 1``: uint8 for
    up to 256 states, so ``rho2(N)`` costs one byte per system slot.
    """

    weights: np.ndarray
    palette: tuple[DensityMatrix, ...]
    index: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        palette = tuple(self.palette)
        raw = np.asarray(self.index)
        if weights.ndim != 1 or len(weights) == 0:
            raise ValueError("mixture needs a non-empty 1-D array of branch weights")
        total = math.fsum(weights)
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise ValueError(f"branch weights sum to {total}, not 1")
        if np.any(weights < 0):
            raise ValueError("branch weights must be non-negative")
        if not all(isinstance(s, DensityMatrix) for s in palette):
            raise ValueError("palette entries must be DensityMatrix values")
        if raw.ndim != 2 or raw.shape[0] != len(weights) or raw.dtype.kind not in "iu":
            raise ValueError(f"index must be 2-D integers, one row per weight; got {raw.shape}")
        if raw.shape[1] < 2:
            raise ValueError("a product sequence needs at least 2 systems")
        if raw.min() < 0 or raw.max() >= len(palette):
            raise ValueError(f"index entries must lie in [0, {len(palette)})")
        index = raw.astype(np.min_scalar_type(len(palette) - 1))
        weights.setflags(write=False)
        index.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "palette", palette)
        object.__setattr__(self, "index", index)

    @property
    def num_systems(self) -> int:
        return self.index.shape[1]

    def tabulate(self, fn) -> np.ndarray:
        """``fn(state)`` for every palette entry, as a (P, ...) array.

        ``table[m.index]`` is the (B, L, ...) view, one value per system of
        every branch.
        """
        return np.array([fn(s) for s in self.palette])


def maximally_mixed() -> DensityMatrix:
    return DensityMatrix(np.eye(4) / 4.0)


def werner_state(fidelity: float) -> DensityMatrix:
    """Isotropically depolarized singlet with the given target fidelity."""
    return depolarized_state(phased_singlet(0.0), fidelity)


def depolarized_state(state: PureState, fidelity: float) -> DensityMatrix:
    """Mix |state><state| with I/4 so its own-projector fidelity is ``fidelity``."""
    check_fidelity(fidelity)
    v = (4.0 * fidelity - 1.0) / 3.0
    return DensityMatrix(v * projector(state).data + (1.0 - v) * np.eye(4) / 4.0)


def honest_iid(n_plus_1: int, noise: NoiseSpec = NoiseSpec()) -> ProductSequenceMixture:
    """IID source: every system is the same (possibly noisy) singlet copy."""
    if n_plus_1 < 2:
        raise ValueError(f"need at least 2 systems, got {n_plus_1}")
    return ProductSequenceMixture(
        [1.0], (werner_state(noise.fidelity),), np.zeros((1, n_plus_1), dtype=np.uint8)
    )


def rho1(n: int, prep: NoiseSpec = NoiseSpec()) -> ProductSequenceMixture:
    """Correlated two-branch source on N + 1 systems.

    With probability 2/3 all systems are (noisy) singlet copies; with
    probability 1/3 all systems are maximally mixed.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    index = np.repeat(np.array([[0], [1]], dtype=np.uint8), n + 1, axis=1)
    return ProductSequenceMixture(
        [2.0 / 3.0, 1.0 / 3.0], (werner_state(prep.fidelity), maximally_mixed()), index
    )


def rho2(n: int, phi: float, prep: NoiseSpec = NoiseSpec()) -> ProductSequenceMixture:
    """Permutation-invariant source with one phase-rotated copy among N + 1.

    Branch l (weight 1/(N+1)) places the |S(phi)> copy at position l and
    (noisy) singlet copies everywhere else.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    good = werner_state(prep.fidelity)
    odd = depolarized_state(phased_singlet(phi), prep.fidelity)
    return ProductSequenceMixture(
        np.full(n + 1, 1.0 / (n + 1)), (good, odd), np.eye(n + 1, dtype=np.uint8)
    )


def worst_case_state(epsilon: float, strat: HomogeneousStrategy) -> DensityMatrix:
    """Infidelity-epsilon state supported on the top two eigenspaces of Omega.

    For a homogeneous strategy the top eigenvector is the target and every
    orthogonal direction carries the second eigenvalue lambda, so mixing the
    target projector with one orthogonal eigenvector realizes the extremal
    single-copy pass probability 1 - nu * epsilon.
    """
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError(f"epsilon {epsilon} outside [0, 1]")
    eigvals, eigvecs = np.linalg.eigh(strat.omega)
    # eigh sorts ascending: the target is last, the second eigenspace next.
    second = eigvecs[:, -2]
    mat = (1.0 - epsilon) * projector(strat.target).data + epsilon * np.outer(
        second, second.conj()
    )
    return DensityMatrix(mat)


def unconditional_fidelity(m: ProductSequenceMixture, target: PureState) -> float:
    """Fidelity of the single-system reduced state, averaged over systems."""
    fid = m.tabulate(partial(overlap, target))
    total = 0.0
    for w, row in zip(m.weights.tolist(), m.index):
        total += w * np.mean(fid[row])
    return float(total)


# --- declarative state descriptors (used by config files) -------------------

_DESCRIPTOR_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*([^)]*)\s*\))?\s*$")


def parse_state(descriptor: str) -> DensityMatrix:
    """Parse a per-system state descriptor.

    Accepted forms: ``singlet``, ``mixed``, ``werner(F)``, ``singlet_phi(PHI)``
    where PHI is a number or a pi expression such as ``pi``, ``pi/2`` or
    ``3pi/4``.
    """
    match = _DESCRIPTOR_RE.match(descriptor)
    if not match:
        raise ValueError(f"unparseable state descriptor {descriptor!r}")
    name, arg = match.group(1), match.group(2)
    if name == "singlet":
        if arg is not None:
            raise ValueError("singlet takes no argument")
        return projector(phased_singlet(0.0))
    if name == "mixed":
        if arg is not None:
            raise ValueError("mixed takes no argument")
        return maximally_mixed()
    if name == "werner":
        if arg is None:
            raise ValueError("werner requires a fidelity argument")
        return werner_state(float(arg))
    if name == "singlet_phi":
        if arg is None:
            raise ValueError("singlet_phi requires a phase argument")
        return projector(phased_singlet(parse_angle(arg)))
    raise ValueError(f"unknown state descriptor {name!r}")


def parse_real(value) -> float:
    """A finite config number as a float; a bool (YAML ``yes``/``no``) is refused."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {value!r}")
    return x


def parse_angle(text) -> float:
    """Parse an angle given as a number or a pi expression like ``3pi/4``."""
    if isinstance(text, (int, float)):
        return parse_real(text)
    s = str(text).strip().lower().replace(" ", "")
    m = re.match(r"^(-?\d*\.?\d*)\*?pi(?:/(\d*\.?\d+))?$", s)
    if not m:
        return parse_real(s)
    coef = float(m.group(1)) if m.group(1) not in ("", "-") else (
        -1.0 if m.group(1) == "-" else 1.0
    )
    div = float(m.group(2)) if m.group(2) else 1.0
    if div == 0.0:
        raise ValueError(f"angle {text!r} divides by zero")
    return coef * math.pi / div


def mixture_from_spec(spec: dict) -> ProductSequenceMixture:
    """Build a custom mixture from a declarative branch list.

    ``spec`` is ``{"branches": [{"weight": w, "states": [descriptor, ...]},
    ...]}``; all branches must list the same number of systems.  Each distinct
    descriptor string becomes one palette entry, parsed once; an error names
    the field of its first occurrence, as in ``branches[1].states[0]``.
    """
    branches = spec.get("branches")
    if not isinstance(branches, list) or not branches:
        raise ValueError(f"branches: expected a non-empty list of branches, got {branches!r}")
    weights, codes, index = [], {}, []
    for i, b in enumerate(branches):
        if not isinstance(b, dict):
            raise ValueError(f"branches[{i}]: expected a mapping of weight and states, got {b!r}")
        if set(b) != {"weight", "states"}:
            raise ValueError(f"branches[{i}]: need the keys weight and states, got {list(b)}")
        try:
            weights.append(parse_real(b["weight"]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"branches[{i}].weight: {exc}") from None
        states = b["states"]
        if not isinstance(states, list) or not all(isinstance(d, str) for d in states):
            raise ValueError(f"branches[{i}].states: expected a list of descriptor strings")
        for j, d in enumerate(states):
            codes.setdefault(d, (len(codes), i, j))  # code and first position
        index.append([codes[d][0] for d in states])
    lengths = sorted({len(row) for row in index})
    if len(lengths) != 1:
        raise ValueError(f"branches have inconsistent lengths {lengths}")
    palette = []
    for d, (_, i, j) in codes.items():
        try:
            palette.append(parse_state(d))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"branches[{i}].states[{j}]: {exc}") from None
    return ProductSequenceMixture(weights, tuple(palette), np.array(index, dtype=np.intp))
