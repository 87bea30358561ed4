"""Homogeneous verification strategies and pass-rate fidelity estimation.

A homogeneous strategy tests copies of a two-qubit state against a target
pure state |T> using a weighted set of projective tests.  Its verification
operator Omega = sum_i w_i P_i has the special form

    Omega = |T><T| + lam * (1 - |T><T|),    0 <= lam < 1,

so the single-copy pass probability tr(Omega s) determines the fidelity
<T|s|T> exactly:  tr(Omega s) = lam + (1 - lam) <T|s|T>.

The singlet instance uses the three Pauli tests XX, YY, ZZ with equal weight;
each test passes on the -1 outcome, i.e. projects onto the negative eigenspace
of the corresponding Pauli product.  Since W (x) W is an involution, that
projector is (1 - W(x)W)/2 exactly, formed with ``np.kron`` on the local 2x2
Pauli matrix W, which avoids any eigensolver.

Strategy objects are immutable; each test projector and Omega are read-only
4x4 complex128 arrays, and nu = 1 - lam and Omega are computed from the
constructor's arguments.  The round engine in ``simulate`` samples tests from
their weights and per-test pass probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DensityMatrix,
    PureState,
    expectation,
    freeze,
    is_hermitian,
    phased_singlet,
    projector,
)

# Constructor invariant tolerances.
WEIGHT_TOL = 1e-12
HOMOGENEITY_TOL = 1e-10
CLAMP_LOG_TOL = 1e-10


@dataclass(frozen=True)
class StrategyTest:
    """One projective test: pass with probability tr(projector * state)."""

    label: str
    proj: np.ndarray
    weight: float

    def __post_init__(self):
        p = freeze(self.proj)
        object.__setattr__(self, "proj", p)
        if not (0.0 <= self.weight <= 1.0):
            raise ValueError(f"test weight {self.weight} outside [0, 1]")
        if p.shape != (4, 4):
            raise ValueError(f"test projector {self.label!r} is not 4x4: shape {p.shape}")
        if not is_hermitian(p):
            raise ValueError(f"test projector {self.label!r} is not Hermitian")
        if np.max(np.abs(p @ p - p)) > 1e-10:
            raise ValueError(f"test projector {self.label!r} is not idempotent")


@dataclass(frozen=True)
class HomogeneousStrategy:
    tests: tuple[StrategyTest, ...]
    target: PureState
    lam: float
    nu: float = field(init=False)
    omega: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tests", tuple(self.tests))
        if not (0.0 <= self.lam < 1.0):
            raise ValueError(f"lambda {self.lam} outside [0, 1)")
        total = sum(t.weight for t in self.tests)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"test weights sum to {total}, not 1")
        acc = sum((t.weight * t.proj for t in self.tests), np.zeros((4, 4), complex))
        object.__setattr__(self, "nu", 1.0 - self.lam)
        object.__setattr__(self, "omega", freeze(acc))
        tvec = self.target.vec
        if np.max(np.abs(self.omega @ tvec - tvec)) > HOMOGENEITY_TOL:
            raise ValueError("target state does not pass every test with certainty")
        ptarget = np.outer(tvec, tvec.conj())
        homog = ptarget + self.lam * (np.eye(4) - ptarget)
        if np.max(np.abs(self.omega - homog)) > HOMOGENEITY_TOL:
            raise ValueError(
                "strategy is not homogeneous: omega != P_target + lambda (1 - P_target)"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.tests)

    @property
    def weights(self) -> np.ndarray:
        w = np.array([t.weight for t in self.tests], dtype=float)
        w.setflags(write=False)
        return w


def build_singlet_strategy() -> HomogeneousStrategy:
    """The XX/YY/ZZ strategy for the singlet (|01> - |10>)/sqrt(2); lambda = 1/3."""
    target = phased_singlet(0.0)
    paulis = (
        ("XX", np.array([[0, 1], [1, 0]], dtype=np.complex128)),
        ("YY", np.array([[0, -1j], [1j, 0]], dtype=np.complex128)),
        ("ZZ", np.array([[1, 0], [0, -1]], dtype=np.complex128)),
    )
    tests = tuple(
        StrategyTest(label, (np.eye(4) - np.kron(w, w)) / 2.0, 1.0 / 3.0)
        for label, w in paulis
    )
    return HomogeneousStrategy(tests, target, 1.0 / 3.0)


def build_homogeneous_strategy(target: PureState, lam: float) -> HomogeneousStrategy:
    """A synthetic homogeneous strategy with an arbitrary lambda in [0, 1).

    Two tests realize Omega = |T><T| + lam (1 - |T><T|): the trivial
    always-pass test (identity projector) with weight lam, and the projector
    onto the target with weight 1 - lam.
    """
    if not (0.0 <= lam < 1.0):
        raise ValueError(f"lambda {lam} outside [0, 1)")
    tests = (
        StrategyTest("ALL", np.eye(4), lam),
        StrategyTest("TARGET", projector(target).data, 1.0 - lam),
    )
    return HomogeneousStrategy(tests, target, lam)


def pass_probability(strat: HomogeneousStrategy, s: DensityMatrix) -> float:
    """Single-test pass probability tr(Omega s), clamped to [0, 1]."""
    value = expectation(strat.omega, s)
    if value < -CLAMP_LOG_TOL or value > 1.0 + CLAMP_LOG_TOL:
        import logging  # imported here, so that no command without a clamp loads it

        logging.getLogger(__name__).warning("pass probability %.17g clamped to [0, 1]", value)
    return min(1.0, max(0.0, value))


def test_pass_probabilities(strat: HomogeneousStrategy, s: DensityMatrix) -> np.ndarray:
    """Per-test pass probabilities tr(P_i s), clamped to [0, 1]."""
    probs = np.array([expectation(t.proj, s) for t in strat.tests])
    bad = np.max(np.abs(probs - np.clip(probs, 0.0, 1.0)))
    if bad > CLAMP_LOG_TOL:
        import logging  # imported here, so that no command without a clamp loads it

        logging.getLogger(__name__).warning("per-test probability clamped by %.3g", bad)
    return np.clip(probs, 0.0, 1.0)


def fidelity_from_pass_rate(rate: float, lam: float) -> float:
    """Invert the pass rate into a fidelity estimate: (rate - lam) / (1 - lam).

    The result may be negative when rate < lam; it is reported as-is so the
    caller can decide how to treat unphysical estimates.
    """
    if not (0.0 <= lam < 1.0):
        raise ValueError(f"lambda {lam} outside [0, 1)")
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"pass rate {rate} outside [0, 1]")
    return (rate - lam) / (1.0 - lam)
