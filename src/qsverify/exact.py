"""Exact, slow reference statistics for small verification runs.

For a mixture of product sequences the joint distribution of test outcomes
factorizes, so the acceptance probability and the conditional fidelity of the
untested system can be computed exactly instead of estimated by simulation.
These routines are the package's independent cross-checks: they are kept
deliberately direct (per-system probabilities, dynamic programming over
failure counts, and an optional full 2^N enumeration) and never reuse the
certificate formulas they are meant to validate.

The tested systems are chosen uniformly at random, which is equivalent to
averaging over which single system is left untested.  That uniform-leftover
average is applied branch by branch, so the computation is exactly
permutation-invariant without ever materializing a symmetrized state.

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
    PROTOCOL_DQSV,
    binom_tail,
    dqsv_certificate,
)
from .linalg import overlap, phased_singlet
from .sources import (
    ProductSequence,
    ProductSequenceMixture,
    depolarized_state,
    werner_state,
    worst_case_state,
)
from .strategy import (
    HomogeneousStrategy,
    build_homogeneous_strategy,
    pass_probability,
)

MAX_SYSTEMS = 16          # combinatorial budget for the exact statistics
MAX_ENUM_TESTS = 12       # budget for the brute-force pattern enumeration
SWEEP_SLACK_TOL = 1e-9    # certificates may exceed the truth by at most this


@dataclass(frozen=True)
class ExactStats:
    """Acceptance probability, fidelity numerator, and conditional fidelity."""

    p_k: float
    f_k: float
    F_k: float | None

    def __post_init__(self):
        if not (-1e-12 <= self.f_k <= self.p_k + 1e-12):
            raise ValueError(f"need 0 <= f_k <= p_k, got f_k={self.f_k}, p_k={self.p_k}")


def _poisson_binomial_tail(qs: np.ndarray, k: int) -> float:
    """P[number of failures <= k] for independent failure probabilities qs."""
    dp = np.zeros(k + 1)
    dp[0] = 1.0
    for q in qs:
        upper = dp[:-1] * q if k >= 1 else None
        dp *= 1.0 - q
        if k >= 1:
            dp[1:] += upper
    return float(dp.sum())


def _branch_stats(
    a: np.ndarray, fid: np.ndarray, k: int
) -> tuple[float, float]:
    """(accept probability, fidelity-weighted accept probability) for one branch.

    a[i] is the single-test pass probability of system i, fid[i] its target
    fidelity; the leftover system is uniform over all positions.
    """
    length = len(a)
    p_tot = 0.0
    f_tot = 0.0
    for leftover in range(length):
        qs = 1.0 - np.delete(a, leftover)
        accept = _poisson_binomial_tail(qs, k)
        p_tot += accept
        f_tot += accept * fid[leftover]
    return p_tot / length, f_tot / length


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
    p_tot = 0.0
    f_tot = 0.0
    a_table = m.tabulate(partial(pass_probability, strat))
    fid_table = m.tabulate(partial(overlap, strat.target))
    for (w, _), a, fid in zip(m.branches, a_table, fid_table):
        p_b, f_b = _branch_stats(a, fid, k)
        p_tot += w * p_b
        f_tot += w * f_b
    F = f_tot / p_tot if p_tot > 0.0 else None
    return ExactStats(p_k=min(p_tot, 1.0), f_k=min(f_tot, 1.0), F_k=F)


def exact_stats_bruteforce(
    m: ProductSequenceMixture, k: int, strat: HomogeneousStrategy
) -> ExactStats:
    """Same statistics by direct enumeration of all 2^N pass/fail patterns.

    Exists purely as an independent second computation of the factorized
    path; usable only for small N.
    """
    n = m.num_systems - 1
    if n > MAX_ENUM_TESTS:
        raise ValueError(f"N = {n} exceeds the enumeration budget of {MAX_ENUM_TESTS}")
    if k < 0 or k > n - 1:
        raise ValueError(f"k = {k} outside [0, N - 1]")
    p_tot = 0.0
    f_tot = 0.0
    a_table = m.tabulate(partial(pass_probability, strat))
    fid_table = m.tabulate(partial(overlap, strat.target))
    for (w, _), a, fid in zip(m.branches, a_table, fid_table):
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


def _random_mixture(
    n: int, rng: np.random.Generator, max_branches: int = 8
) -> ProductSequenceMixture:
    """A random mixture of product sequences of Werner and rotated-singlet states."""
    n_branches = int(rng.integers(1, max_branches + 1))
    weights = rng.dirichlet(np.ones(n_branches))
    branches = []
    for b in range(n_branches):
        states = []
        desc = []
        for _ in range(n + 1):
            if rng.random() < 0.5:
                f = float(rng.uniform(0.25, 1.0))
                states.append(werner_state(f))
                desc.append(f"werner({f:.4f})")
            else:
                phi = float(rng.uniform(0.0, 2.0 * math.pi))
                f = float(rng.uniform(0.25, 1.0))
                states.append(depolarized_state(phased_singlet(phi), f))
                desc.append(f"phi({phi:.4f},F={f:.4f})")
        branches.append(
            (float(weights[b]), ProductSequence(tuple(states), label="|".join(desc)))
        )
    return ProductSequenceMixture(tuple(branches))


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
    strat = build_homogeneous_strategy(phased_singlet(0.0), lam)
    tail = binom_tail(n, k, 1.0 - lam)
    min_slack = math.inf
    argmin = None
    checked = 0
    skipped = 0
    violations = []
    for trial in range(trials):
        mix = _random_mixture(n, rng)
        stats = exact_stats(mix, k, strat)
        if stats.p_k <= tail or stats.F_k is None:
            skipped += 1
            continue
        q = CertificateQuery(PROTOCOL_DQSV, n, k, min(1.0, stats.p_k), lam)
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
                {"weight": w, "states": seq.label} for w, seq in mix.branches
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
