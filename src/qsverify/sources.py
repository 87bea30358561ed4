"""Honest and adversarial source models for verification runs.

A source hands the verifier N + 1 two-qubit systems.  Every model here is a
weighted mixture of *product sequences*: with probability w_b the source
emits the ordered product state seq_b[0] (x) seq_b[1] (x) ... (x) seq_b[N].
This covers the honest IID source, the two correlated adversaries used in
the experiments, and arbitrary user-declared mixtures; globally entangled
sources are outside the representation (and outside what the exact reference
computations can factorize).

The canonical noisy single copy is the Werner state

    v |S><S| + (1 - v) I/4,    v = (4 F - 1) / 3,

which has fidelity F with the singlet |S> and is positive for F >= 1/4.
Phase-rotated copies |S(phi)> = (|01> - e^{i phi} |10>)/sqrt(2) are
depolarized with the same parameter when a preparation fidelity below 1 is
requested; the noise channel of an imperfect preparation is a modeling
choice, and isotropic depolarization is the simplest one-parameter option.

Mixtures are immutable; sampling takes a caller-owned Generator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import (
    ComplexMatrix,
    DensityMatrix,
    PureState,
    overlap,
    phased_singlet,
    projector,
)
from .strategy import HomogeneousStrategy

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class NoiseSpec:
    """Per-copy preparation quality: target-state fidelity of each copy."""

    fidelity: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.fidelity <= 1.0):
            raise ValueError(f"fidelity {self.fidelity} outside [0, 1]")


@dataclass(frozen=True)
class ProductSequence:
    """An ordered list of single-copy states, one per system."""

    states: tuple[DensityMatrix, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) < 2:
            raise ValueError("a product sequence needs at least 2 systems")
        for s in self.states:
            if not isinstance(s, DensityMatrix):
                raise ValueError("sequence entries must be DensityMatrix values")

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class ProductSequenceMixture:
    """Weighted mixture of product sequences sharing a common length."""

    branches: tuple[tuple[float, ProductSequence], ...]

    def __post_init__(self):
        branches = tuple((float(w), seq) for w, seq in self.branches)
        object.__setattr__(self, "branches", branches)
        if not branches:
            raise ValueError("mixture needs at least one branch")
        total = math.fsum(w for w, _ in branches)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"branch weights sum to {total}, not 1")
        if any(w < 0 for w, _ in branches):
            raise ValueError("branch weights must be non-negative")
        lengths = {len(seq) for _, seq in branches}
        if len(lengths) != 1:
            raise ValueError(f"branches have inconsistent lengths {sorted(lengths)}")

    @property
    def num_systems(self) -> int:
        return len(self.branches[0][1])

    @property
    def weights(self) -> np.ndarray:
        w = np.array([wb for wb, _ in self.branches])
        w.setflags(write=False)
        return w

    def tabulate(self, fn) -> np.ndarray:
        """``fn(state)`` for every system of every branch, as a (B, L, ...) array.

        ``fn`` runs once per distinct state, keyed by the matrix entries, so
        ``rho2(n)`` costs two calls however large n is.
        """
        values = {}

        def value(s: DensityMatrix):
            key = s.mat.data.tobytes()
            if key not in values:
                values[key] = fn(s)
            return values[key]

        return np.array([[value(s) for s in seq.states] for _, seq in self.branches])


def maximally_mixed() -> DensityMatrix:
    return DensityMatrix(ComplexMatrix(np.eye(4) / 4.0))


def werner_state(fidelity: float) -> DensityMatrix:
    """Isotropically depolarized singlet with the given target fidelity."""
    return depolarized_state(phased_singlet(0.0), fidelity)


def depolarized_state(state: PureState, fidelity: float) -> DensityMatrix:
    """Mix |state><state| with I/4 so its own-projector fidelity is ``fidelity``."""
    if not (0.25 <= fidelity <= 1.0):
        raise ValueError(
            f"fidelity {fidelity} outside [1/4, 1]; the depolarized form is not PSD below 1/4"
        )
    v = (4.0 * fidelity - 1.0) / 3.0
    mat = v * projector(state).mat.data + (1.0 - v) * np.eye(4) / 4.0
    return DensityMatrix(ComplexMatrix(mat))


def honest_iid(n_plus_1: int, noise: NoiseSpec = NoiseSpec()) -> ProductSequenceMixture:
    """IID source: every system is the same (possibly noisy) singlet copy."""
    if n_plus_1 < 2:
        raise ValueError(f"need at least 2 systems, got {n_plus_1}")
    copy = werner_state(noise.fidelity)
    seq = ProductSequence((copy,) * n_plus_1, label=f"iid(F={noise.fidelity:g})")
    return ProductSequenceMixture(((1.0, seq),))


def rho1(n: int, prep: NoiseSpec = NoiseSpec()) -> ProductSequenceMixture:
    """Correlated two-branch source on N + 1 systems.

    With probability 2/3 all systems are (noisy) singlet copies; with
    probability 1/3 all systems are maximally mixed.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    singlet_branch = ProductSequence(
        (werner_state(prep.fidelity),) * (n + 1), label="singlet"
    )
    mixed_branch = ProductSequence((maximally_mixed(),) * (n + 1), label="mixed")
    return ProductSequenceMixture(((2.0 / 3.0, singlet_branch), (1.0 / 3.0, mixed_branch)))


def rho2(n: int, phi: float, prep: NoiseSpec = NoiseSpec()) -> ProductSequenceMixture:
    """Permutation-invariant source with one phase-rotated copy among N + 1.

    Branch l (weight 1/(N+1)) places the |S(phi)> copy at position l and
    (noisy) singlet copies everywhere else.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    good = werner_state(prep.fidelity)
    odd = depolarized_state(phased_singlet(phi), prep.fidelity)
    branches = []
    for slot in range(n + 1):
        states = [good] * (n + 1)
        states[slot] = odd
        branches.append(
            (1.0 / (n + 1), ProductSequence(tuple(states), label=f"odd@{slot}"))
        )
    return ProductSequenceMixture(tuple(branches))


def worst_case_state(epsilon: float, strat: HomogeneousStrategy) -> DensityMatrix:
    """Infidelity-epsilon state supported on the top two eigenspaces of Omega.

    For a homogeneous strategy the top eigenvector is the target and every
    orthogonal direction carries the second eigenvalue lambda, so mixing the
    target projector with one orthogonal eigenvector realizes the extremal
    single-copy pass probability 1 - nu * epsilon.
    """
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError(f"epsilon {epsilon} outside [0, 1]")
    eigvals, eigvecs = np.linalg.eigh(strat.omega.data)
    # eigh sorts ascending: the target is last, the second eigenspace next.
    second = eigvecs[:, -2]
    mat = (1.0 - epsilon) * projector(strat.target).mat.data + epsilon * np.outer(
        second, second.conj()
    )
    return DensityMatrix(ComplexMatrix(mat))


def unconditional_fidelity(m: ProductSequenceMixture, target: PureState) -> float:
    """Fidelity of the single-system reduced state, averaged over systems."""
    total = 0.0
    for (w, _), fid in zip(m.branches, m.tabulate(partial(overlap, target))):
        total += w * np.mean(fid)
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
    """A config number as a float; a bool (YAML ``yes``/``no``) is refused, not read as 1 or 0."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def parse_angle(text) -> float:
    """Parse an angle given as a number or a pi expression like ``3pi/4``."""
    if isinstance(text, (int, float)):
        return parse_real(text)
    s = str(text).strip().lower().replace(" ", "")
    m = re.match(r"^(-?\d*\.?\d*)\*?pi(?:/(\d*\.?\d+))?$", s)
    if m:
        coef = float(m.group(1)) if m.group(1) not in ("", "-") else (
            -1.0 if m.group(1) == "-" else 1.0
        )
        div = float(m.group(2)) if m.group(2) else 1.0
        return coef * math.pi / div
    return float(s)


def mixture_from_spec(spec: dict) -> ProductSequenceMixture:
    """Build a custom mixture from a declarative branch list.

    ``spec`` is ``{"branches": [{"weight": w, "states": [descriptor, ...]},
    ...]}``; all branches must list the same number of systems.
    """
    branches = spec.get("branches")
    if not branches:
        raise ValueError("custom source needs a non-empty 'branches' list")
    built = []
    for i, b in enumerate(branches):
        if set(b) != {"weight", "states"}:
            raise ValueError(f"branches[{i}]: need the keys weight and states, got {list(b)}")
        try:
            weight = parse_real(b["weight"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"branches[{i}].weight: {exc}") from None
        states = tuple(parse_state(d) for d in b["states"])
        built.append((weight, ProductSequence(states, label=f"branch{i}")))
    return ProductSequenceMixture(tuple(built))
