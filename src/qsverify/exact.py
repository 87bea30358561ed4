"""Exact reference statistics for small verification runs.

For a mixture of product sequences the joint distribution of test outcomes
factorizes, so the acceptance probability and the conditional fidelity of the
untested system can be computed exactly instead of estimated by simulation.
These routines are the package's independent cross-checks and never reuse the
certificate formulas they are meant to validate.

Everything runs on the (branch, system) table of target fidelities F.  For a
homogeneous strategy the single-test pass probability is the homogeneity
identity tr(Omega s) = lambda + nu F (checked by the strategy's constructor),
so one Poisson-binomial dynamic program over failure counts, with prefix and
suffix passes for the uniformly random untested system, gives p_k and f_k
without any matrix.  The soundness sweep draws its random mixtures directly
as such tables, using the closed-form fidelities of the states it samples.

Two oracles keep the matrices: the 2^N pattern enumeration reads tr(Omega s)
from every density matrix (and checks the homogeneity identity on it), and
the SQSV worst-case scan builds the extremal state of each infidelity.

Everything here is pure and reentrant; sweeps take a caller-owned Generator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .certificates import (
    CertificateQuery,
    NumericalConsistencyError,
    PROTOCOL_DQSV,
    binom_tail,
    dqsv_certificate,
)
from .linalg import overlap, phased_singlet
from .sources import ProductSequenceMixture, worst_case_state
from .strategy import (
    HomogeneousStrategy,
    build_homogeneous_strategy,
    pass_probability,
)

MAX_SYSTEMS = 16          # combinatorial budget for the exact statistics
MAX_ENUM_TESTS = 12       # budget for the brute-force pattern enumeration
SWEEP_SLACK_TOL = 1e-9    # certificates may exceed the truth by at most this
IDENTITY_TOL = 4e-10      # |tr(Omega s) - lambda - nu F|: 4 x HOMOGENEITY_TOL on a 4x4 state


@dataclass(frozen=True)
class ExactStats:
    """Acceptance probability, fidelity numerator, and conditional fidelity."""

    p_k: float
    f_k: float
    F_k: float | None

    def __post_init__(self):
        if not (-1e-12 <= self.f_k <= self.p_k + 1e-12):
            raise ValueError(f"need 0 <= f_k <= p_k, got f_k={self.f_k}, p_k={self.p_k}")


def _exact_from_fidelities(
    weights: np.ndarray, fid: np.ndarray, k: int, lam: float
) -> ExactStats:
    """Exact (p_k, f_k, F_k) from branch weights and the (B, L) fidelity table.

    System i of branch b passes its test with a = lam + nu F[b, i] and is the
    untested one with probability 1/L.  The failure-count distributions of
    the systems before and after i, truncated at k, come from one prefix and
    one suffix pass over the systems, vectorized over branches: O(B L k).
    """
    branches, length = fid.shape
    q = 1.0 - np.clip(lam + (1.0 - lam) * fid, 0.0, 1.0)

    def add_system(dist: np.ndarray, qi: np.ndarray) -> np.ndarray:
        out = dist * (1.0 - qi)[:, None]
        out[:, 1:] += dist[:, :-1] * qi[:, None]
        return out

    # before[i] counts the failures of systems 0..i-1, after[i] of i..L-1.
    before = np.zeros((length + 1, branches, k + 1))
    after = np.zeros((length + 1, branches, k + 1))
    before[0, :, 0] = 1.0
    after[length, :, 0] = 1.0
    for i in range(length):
        before[i + 1] = add_system(before[i], q[:, i])
        j = length - 1 - i
        after[j] = add_system(after[j + 1], q[:, j])
    # accept[b, i] = P[at most k failures among the systems other than i]
    #              = sum_c before[i][c] * P[after[i + 1] <= k - c].
    after_cdf = np.cumsum(after[1:], axis=2)[:, :, ::-1]
    accept = np.einsum("ibc,ibc->bi", before[:-1], after_cdf)
    p_tot = float(weights @ accept.mean(axis=1))
    f_tot = float(weights @ (accept * fid).mean(axis=1))
    F = f_tot / p_tot if p_tot > 0.0 else None
    return ExactStats(p_k=min(p_tot, 1.0), f_k=min(f_tot, 1.0), F_k=F)


def exact_stats(
    m: ProductSequenceMixture, k: int, strat: HomogeneousStrategy
) -> ExactStats:
    """Exact (p_k, f_k, F_k) for a mixture of at most MAX_SYSTEMS systems."""
    if m.num_systems > MAX_SYSTEMS:
        raise ValueError(
            f"{m.num_systems} systems exceed the exact-computation budget of {MAX_SYSTEMS}"
        )
    if k < 0 or k > m.num_systems - 2:
        raise ValueError(f"k = {k} outside [0, N - 1] for N = {m.num_systems - 1}")
    fid = m.tabulate(partial(overlap, strat.target))[m.index]
    return _exact_from_fidelities(m.weights, fid, k, strat.lam)


def exact_stats_bruteforce(
    m: ProductSequenceMixture, k: int, strat: HomogeneousStrategy
) -> ExactStats:
    """Same statistics by direct enumeration of all 2^N pass/fail patterns.

    Exists purely as an independent second computation of the factorized
    path; usable only for small N.  It reads each pass probability as
    tr(Omega s) from the density matrix and raises NumericalConsistencyError
    if that breaks the homogeneity identity the factorized path relies on.
    """
    n = m.num_systems - 1
    if n > MAX_ENUM_TESTS:
        raise ValueError(f"N = {n} exceeds the enumeration budget of {MAX_ENUM_TESTS}")
    if k < 0 or k > n - 1:
        raise ValueError(f"k = {k} outside [0, N - 1]")
    p_tot = 0.0
    f_tot = 0.0
    a_table = m.tabulate(partial(pass_probability, strat))[m.index]
    fid_table = m.tabulate(partial(overlap, strat.target))[m.index]
    gap = np.max(np.abs(a_table - np.clip(strat.lam + strat.nu * fid_table, 0.0, 1.0)))
    if gap > IDENTITY_TOL:
        raise NumericalConsistencyError(f"tr(Omega s) differs from lambda + nu F by {gap:.3g}")
    for w, a, fid in zip(m.weights.tolist(), a_table, fid_table):
        for leftover in range(n + 1):
            tested = [a[i] for i in range(n + 1) if i != leftover]
            for pattern in itertools.product((True, False), repeat=n):
                if pattern.count(False) > k:
                    continue
                prob = math.prod(
                    ai if passed else 1.0 - ai for ai, passed in zip(tested, pattern)
                )
                p_tot += w * prob / (n + 1)
                f_tot += w * prob * fid[leftover] / (n + 1)
    F = f_tot / p_tot if p_tot > 0.0 else None
    return ExactStats(p_k=min(p_tot, 1.0), f_k=min(f_tot, 1.0), F_k=F)


def sqsv_worst_case_scan(
    n: int, k: int, delta: float, lam: float, grid_size: int = 2000
) -> float:
    """Brute-force worst-case infidelity admitted by the SQSV acceptance rule.

    Scans epsilon over a uniform grid in [0, 1], builds the extremal state of
    that infidelity (supported on the top two eigenspaces of Omega), and keeps
    the largest epsilon whose IID acceptance probability still reaches delta.
    The result should agree with 1 - F_S to within one grid step.
    """
    if grid_size < 1000:
        raise ValueError(f"grid_size {grid_size} below the minimum of 1000")
    strat = build_homogeneous_strategy(phased_singlet(0.0), lam)
    best = 0.0
    for eps in np.linspace(0.0, 1.0, grid_size):
        tau = worst_case_state(float(eps), strat)
        q = 1.0 - pass_probability(strat, tau)
        if binom_tail(n, k, q) >= delta:
            best = float(eps)
    return best


def _random_fidelities(
    n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """A random mixture of 1 to 8 Werner and rotated-singlet product sequences.

    Returns the branch weights, the (B, n + 1) table of singlet fidelities and
    one label per branch.  A copy depolarized to own-state fidelity f has
    Werner parameter v = (4f - 1)/3 and singlet fidelity
    v cos^2(phi/2) + (1 - v)/4, phi being its rotation (0 for a Werner state).
    """
    n_branches = int(rng.integers(1, 9))
    weights = rng.dirichlet(np.ones(n_branches))
    fid = np.empty((n_branches, n + 1))
    labels = []
    for b in range(n_branches):
        desc = []
        for i in range(n + 1):
            werner = rng.random() < 0.5
            phi = 0.0 if werner else float(rng.uniform(0.0, 2.0 * math.pi))
            f = float(rng.uniform(0.25, 1.0))
            v = (4.0 * f - 1.0) / 3.0
            fid[b, i] = v * math.cos(phi / 2.0) ** 2 + (1.0 - v) / 4.0
            desc.append(f"werner({f:.4f})" if werner else f"phi({phi:.4f},F={f:.4f})")
        labels.append("|".join(desc))
    return weights, fid, labels


def dqsv_soundness_sweep(
    n: int,
    k: int,
    lam: float,
    trials: int,
    rng: np.random.Generator,
) -> dict:
    """Falsification sweep: random sources must never beat the DQSV certificate.

    For each random mixture the exact conditional fidelity F_k is compared
    against the certificate evaluated at delta = p_k.  The bound is proved to
    hold for every permutation-invariant source, so any violation beyond
    SWEEP_SLACK_TOL indicates an implementation bug; offenders are returned in
    full as counterexamples.
    """
    if n > MAX_ENUM_TESTS:
        raise ValueError(f"n = {n} exceeds the sweep budget of {MAX_ENUM_TESTS}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"k = {k} outside [0, N - 1] for N = {n}")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda {lam} outside (0, 1)")
    tail = binom_tail(n, k, 1.0 - lam)
    min_slack = math.inf
    argmin = None
    checked = 0
    skipped = 0
    violations = []
    for trial in range(trials):
        weights, fid, labels = _random_fidelities(n, rng)
        stats = _exact_from_fidelities(weights, fid, k, lam)
        if stats.p_k <= tail or stats.F_k is None:
            skipped += 1
            continue
        q = CertificateQuery(PROTOCOL_DQSV, n, k, stats.p_k, lam)
        bound = dqsv_certificate(q).fidelity_bound
        slack = stats.F_k - bound
        checked += 1
        record = {
            "trial": trial,
            "p_k": stats.p_k,
            "F_k": stats.F_k,
            "bound": bound,
            "slack": slack,
            "branches": [
                {"weight": float(w), "states": label}
                for w, label in zip(weights, labels)
            ],
        }
        if slack < min_slack:
            min_slack = slack
            argmin = record
        if slack < -SWEEP_SLACK_TOL:
            violations.append(record)
    return {
        "n": n,
        "k": k,
        "lambda": lam,
        "trials": trials,
        "checked": checked,
        "skipped_degenerate": skipped,
        "min_slack": None if argmin is None else min_slack,
        "argmin": argmin,
        "violations": violations,
    }
