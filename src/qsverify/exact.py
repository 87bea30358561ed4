"""Exact reference statistics for verification runs.

For a mixture of product sequences the joint distribution of test outcomes
factorizes, so the acceptance probability and the conditional fidelity of the
untested system can be computed exactly instead of estimated by simulation.
These routines are the package's independent cross-checks and never reuse the
certificate formulas they are meant to validate.

Everything runs on the (branch, system) table of target fidelities F.  For a
homogeneous strategy the single-test pass probability is the homogeneity
identity tr(Omega s) = lambda + nu F (checked by the strategy's constructor),
so a Poisson-binomial dynamic program over failure counts gives p_k and f_k
without any matrix.  The untested system is uniform over the L = N + 1
positions; with T the failures of all L systems and Y_i those of system i,

    sum_i 1{T - Y_i <= k} = L 1{T <= k} + (k + 1) 1{T = k + 1},

so one forward pass per row, truncated at T = k + 1, serves every choice of
the untested system: O(B L k) time and O(B k) memory beyond the (B, L)
table.  The soundness sweep draws its random mixtures directly as such
tables, using the closed-form fidelities of the states it samples.  It runs
in blocks of trials: the draws of a block stay in trial order, and one pass
runs over all their branches stacked.  Each mixture reads its doubles
from one request long enough for any draw, then rewinds the generator and
consumes exactly the doubles it read, so a seed still gives the report, and
leaves the generator in the state, of checking one trial at a time.

Two oracles keep the matrices: the 2^N pattern enumeration, which has a
size budget of its own, reads tr(Omega s) from every density matrix (and
checks the homogeneity identity on it), and the SQSV worst-case scan builds
the extremal state of each infidelity.

Everything here is pure and reentrant; sweeps take a caller-owned Generator.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
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
    HOMOGENEITY_TOL,
    HomogeneousStrategy,
    build_homogeneous_strategy,
    pass_probability,
)

MAX_ENUM_TESTS = 12       # budget for the brute-force pattern enumeration
SWEEP_SLACK_TOL = 1e-9    # certificates may exceed the truth by at most this
IDENTITY_TOL = 4 * HOMOGENEITY_TOL  # |tr(Omega s) - lambda - nu F| on a 4x4 state
SWEEP_BLOCK_TRIALS = 128  # soundness-sweep trials per stacked DP; bounds its memory
MAX_SWEEP_TESTS = 1000    # limit on the sweep's N: 1000 trials at k = 1 take seconds
SCAN_MIN_GRID = 1000      # smallest grid of the SQSV scan, whose step is its tolerance


@dataclass(frozen=True)
class ExactStats:
    """Acceptance probability, fidelity numerator, and conditional fidelity."""

    p_k: float
    f_k: float
    F_k: float | None

    def __post_init__(self):
        if not (-1e-12 <= self.f_k <= self.p_k + 1e-12):
            raise ValueError(f"need 0 <= f_k <= p_k, got f_k={self.f_k}, p_k={self.p_k}")


def _row_stats(fid: np.ndarray, k: int, lam: float) -> np.ndarray:
    """(2, R) array: per row of the (R, L) fidelity table, P[accept] and
    E[F_leftover; accept].

    System i fails its test with q_i = 1 - clip(lam + nu F_i) and passes with
    1 - q_i, as ``binom_tail`` forms them.  One forward pass over the systems
    carries P[T = c] and G[c] = E[F summed over the failed systems; T = c]
    for c <= k + 1; by the identity in the module docstring a row accepts
    with P[T <= k] + (k + 1)/L P[T = k + 1] and its numerator is
    (sum F P[T <= k] + G[k + 1])/L.  The work is elementwise across rows, so
    a row's bits do not depend on the rows stacked with it.
    """
    rows, length = fid.shape
    prob = np.zeros((rows, k + 2))
    prob[:, 0] = 1.0
    gain = np.zeros((rows, k + 2))  # gain[:, 0] stays 0: no system failed
    total = np.zeros(rows)
    for i in range(length):
        f = fid[:, i]
        q = 1.0 - np.clip(lam + (1.0 - lam) * f, 0.0, 1.0)
        a, qc = (1.0 - q)[:, None], q[:, None]
        gain[:, 1:] = gain[:, 1:] * a + (gain[:, :-1] + f[:, None] * prob[:, :-1]) * qc
        prob[:, 1:] = prob[:, 1:] * a + prob[:, :-1] * qc
        prob[:, 0] *= a[:, 0]
        total += f
    below = prob[:, 0].copy()  # P[T <= k], summed in order, row by row
    for c in range(1, k + 1):
        below += prob[:, c]
    accept = below + (k + 1) * prob[:, k + 1] / length
    return np.stack([accept, (total * below + gain[:, k + 1]) / length])


def _stats(p_tot: float, f_tot: float) -> ExactStats:
    """(p_k, f_k, F_k) from the acceptance probability and fidelity numerator."""
    F = f_tot / p_tot if p_tot > 0.0 else None
    return ExactStats(p_k=min(p_tot, 1.0), f_k=min(f_tot, 1.0), F_k=F)


def _mixture_stats(weights: np.ndarray, accept: np.ndarray, numer: np.ndarray) -> ExactStats:
    """(p_k, f_k, F_k) of one mixture from its rows of ``_row_stats``."""
    return _stats(float(weights @ accept), float(weights @ numer))


def exact_stats(
    m: ProductSequenceMixture, k: int, strat: HomogeneousStrategy
) -> ExactStats:
    """Exact (p_k, f_k, F_k) in O(B L k) time and O(B k) memory beyond the
    (B, L) fidelity table: B branches, L = N + 1."""
    if k < 0 or k > m.num_systems - 2:
        raise ValueError(f"k = {k} outside [0, N - 1] for N = {m.num_systems - 1}")
    fid = m.tabulate(partial(overlap, strat.target))[m.index]
    return _mixture_stats(m.weights, *_row_stats(fid, k, strat.lam))


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
    return _stats(p_tot, f_tot)


def sqsv_worst_case_scan(
    n: int, k: int, delta: float, lam: float, grid_size: int = 2000
) -> float:
    """Brute-force worst-case infidelity admitted by the SQSV acceptance rule.

    Scans epsilon over a uniform grid in [0, 1], builds the extremal state of
    that infidelity (supported on the top two eigenspaces of Omega), and keeps
    the largest epsilon whose IID acceptance probability still reaches delta.
    The result should agree with 1 - F_S to within one grid step.
    """
    if grid_size < SCAN_MIN_GRID:
        raise ValueError(f"grid_size {grid_size} below the minimum of {SCAN_MIN_GRID}")
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
) -> tuple[np.ndarray, np.ndarray, Callable[[], list[str]]]:
    """A random mixture of 1 to 8 Werner and rotated-singlet product sequences.

    Returns the branch weights, the (B, n + 1) table of singlet fidelities and
    a function that formats one label per branch.  A copy depolarized to
    own-state fidelity f has Werner parameter v = (4f - 1)/3 and singlet
    fidelity v cos^2(phi/2) + (1 - v)/4, phi being its rotation (0 for a
    Werner state).

    Copy by copy the stream holds u < 0.5 for a Werner state, then, unless
    Werner, phi = 2 pi u', then f = 0.25 + 0.75 u''.  A copy takes 2 or 3
    doubles, so 3 per copy always suffice: the walk reads them from one
    request, and the generator is then reset to its saved state and asked
    for exactly the doubles read.  As ``Generator.uniform(lo, hi)`` is
    lo + (hi - lo) u on the same double, the stream and every value equal
    those of one scalar draw per number.
    """
    n_branches = int(rng.integers(1, 9))
    weights = rng.dirichlet(np.ones(n_branches))
    copies = n_branches * (n + 1)
    state = rng.bit_generator.state
    u = rng.random(3 * copies).tolist()
    starts: list[int] = []  # the first double of each copy
    fid: list[float] = []
    pos = 0
    for _ in range(copies):
        starts.append(pos)
        if u[pos] < 0.5:
            v = (4.0 * (0.25 + 0.75 * u[pos + 1]) - 1.0) / 3.0
            fid.append(v + (1.0 - v) / 4.0)  # cos(0) = 1
            pos += 2
        else:
            v = (4.0 * (0.25 + 0.75 * u[pos + 2]) - 1.0) / 3.0
            phi = 2.0 * math.pi * u[pos + 1]
            fid.append(v * math.cos(phi / 2.0) ** 2 + (1.0 - v) / 4.0)
            pos += 3
    rng.bit_generator.state = state
    rng.random(pos)

    def labels() -> list[str]:
        desc = [
            f"werner({0.25 + 0.75 * u[s + 1]:.4f})" if u[s] < 0.5
            else f"phi({2.0 * math.pi * u[s + 1]:.4f},F={0.25 + 0.75 * u[s + 2]:.4f})"
            for s in starts
        ]
        return ["|".join(desc[b:b + n + 1]) for b in range(0, copies, n + 1)]

    return weights, np.array(fid).reshape(n_branches, n + 1), labels


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

    Trials run in blocks of SWEEP_BLOCK_TRIALS: a block draws its mixtures in
    trial order, stacks their fidelity tables into one forward pass, and
    then reduces and certifies each mixture on its own rows.  Labels are
    formatted only for the records kept.  The report and the generator's
    final state are those of drawing and checking one trial at a time, also
    where the tail rounds to 1 and the trials are only drawn, not evaluated.
    N above MAX_SWEEP_TESTS, k outside [0, N - 1] or lambda outside (0, 1)
    raises ValueError before anything is drawn.
    """
    if n > MAX_SWEEP_TESTS:
        raise ValueError(f"N = {n} exceeds the sweep limit of {MAX_SWEEP_TESTS}")
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
    for first in range(0, trials, SWEEP_BLOCK_TRIALS):
        block = [
            _random_fidelities(n, rng)
            for _ in range(min(SWEEP_BLOCK_TRIALS, trials - first))
        ]
        if tail >= 1.0:  # p_k <= 1 <= tail: every trial is skipped
            skipped += len(block)
            continue
        stacked = _row_stats(np.concatenate([fid for _, fid, _ in block]), k, lam)
        row = 0
        for trial, (weights, _, labels) in enumerate(block, first):
            stats = _mixture_stats(weights, *stacked[:, row:row + len(weights)])
            row += len(weights)
            if stats.p_k <= tail or stats.F_k is None:
                skipped += 1
                continue
            q = CertificateQuery(PROTOCOL_DQSV, n, k, stats.p_k, lam)
            bound = dqsv_certificate(q).fidelity_bound
            slack = stats.F_k - bound
            checked += 1
            if not (slack < min_slack or slack < -SWEEP_SLACK_TOL):
                continue
            record = {
                "trial": trial,
                "p_k": stats.p_k,
                "F_k": stats.F_k,
                "bound": bound,
                "slack": slack,
                "branches": [
                    {"weight": float(w), "states": label}
                    for w, label in zip(weights, labels())
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
