"""The soundness sweep as it ran one trial at a time, kept verbatim.

``_random_fidelities`` and ``dqsv_soundness_sweep`` below are the per-trial
draw and loop that ``qsverify.exact`` replaced with blocks of trials.  Tests
run both on the same seed and require equal reports and an equal final
generator state.
"""

import math

import numpy as np

from qsverify.certificates import (
    CertificateQuery,
    PROTOCOL_DQSV,
    binom_tail,
    dqsv_certificate,
)
from qsverify.exact import (
    MAX_ENUM_TESTS,
    SWEEP_SLACK_TOL,
    _mixture_stats,
    _row_stats,
)


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
        stats = _mixture_stats(weights, *_row_stats(fid, k, lam))
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
