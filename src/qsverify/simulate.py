"""Monte Carlo simulation of the SQSV and DQSV verification protocols.

One round draws a branch from the source mixture, picks the tested systems,
draws a measurement setting per test according to the strategy weights, and
samples each outcome from the per-setting pass probability of the tested
copy.  DQSV rounds additionally leave one uniformly chosen system untested
and record its ground-truth target fidelity (known only to the simulator)
plus one probe test on it, which drives the measurement-faithful
conditional-fidelity estimator.

A run returns a ``RoundTable``, one array per column with row i being round
i; ``summarize`` reduces its arrays and ``write_rounds_csv`` renders it,
computing each row's settings digest only there.

Reproducibility: the stream for round ``i`` is derived as
``PCG64(SeedSequence([master_seed, experiment_id, i]))``, so results are
bit-identical for a fixed master seed, and round ``i`` is the same whether a
run stops after a fixed count or at a target number of acceptances.  Within a
round the draw order is: branch, leftover (DQSV), settings, outcomes, probe
(DQSV: one setting, one outcome).  The source is tabulated once per run, one
evaluation per distinct state, and each round draws its stream once.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import zlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .certificates import CertificateQuery, dqsv_certificate, solve_J, sqsv_certificate
from .linalg import overlap
from .sources import NoiseSpec, ProductSequenceMixture, honest_iid
from .strategy import HomogeneousStrategy, fidelity_from_pass_rate, test_pass_probabilities

PROTOCOLS = ("sqsv", "dqsv")
ROUNDS_CSV_SCHEMA = "qsverify.rounds/1"
SUMMARY_SCHEMA = "qsverify.summary/2"


class RandomPlan:
    """Deterministic per-round random streams.

    ``round_rng(i)`` is a pure function of (master_seed, experiment_id, i);
    see the module docstring.  experiment_id defaults to 0 and is usually the
    CRC32 of an experiment name.
    """

    def __init__(self, master_seed: int, experiment_id: int = 0):
        self.master_seed = int(master_seed)
        self.experiment_id = int(experiment_id)

    @classmethod
    def for_experiment(cls, master_seed: int, name: str) -> "RandomPlan":
        return cls(master_seed, zlib.crc32(name.encode("utf-8")))

    def round_rng(self, round_index: int) -> np.random.Generator:
        seq = np.random.SeedSequence(
            [self.master_seed, self.experiment_id, int(round_index)]
        )
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True, eq=False)
class RoundTable:
    """Simulated rounds, one array per column; row i is round i.

    ``settings`` (shape (rounds, n), int8) holds indices into
    ``strategy.tests``, one per test in test order.  ``tested_fidelity`` is the
    ground-truth mean target fidelity of the tested copies, used for
    unconditional benchmarks.  The DQSV-only columns ``leftover``,
    ``leftover_fidelity`` and ``probe_passed`` hold -1, NaN and False for SQSV
    rounds.
    """

    branch: np.ndarray
    failures: np.ndarray
    tested_fidelity: np.ndarray
    leftover: np.ndarray
    leftover_fidelity: np.ndarray
    probe_passed: np.ndarray
    settings: np.ndarray

    @classmethod
    def from_rows(cls, rows: list[tuple], n: int) -> "RoundTable":
        """Build the table from per-round tuples given in column order."""
        branch, failures, tested, leftover, left_fid, probe, settings = (
            list(zip(*rows)) or [()] * 7
        )
        return cls(
            branch=np.array(branch, dtype=np.intp),
            failures=np.array(failures, dtype=np.intp),
            tested_fidelity=np.array(tested, dtype=float),
            leftover=np.array(leftover, dtype=np.intp),
            leftover_fidelity=np.array(left_fid, dtype=float),
            probe_passed=np.array(probe, dtype=bool),
            settings=np.array(settings, dtype=np.int8).reshape(len(rows), n),
        )

    def __len__(self) -> int:
        return len(self.failures)


@dataclass(frozen=True)
class ExperimentSummary:
    protocol: str
    n: int
    k: int
    rounds: int
    accepted: int
    p_hat: float
    p_hat_ci: tuple[float, float]
    per_k_histogram: dict[int, int]
    conditional_fidelity_truth: float | None = None
    conditional_truth_std: float | None = None
    conditional_truth_stderr: float | None = None
    conditional_fidelity_measured: float | None = None
    conditional_measured_stderr: float | None = None
    unconditional_fidelity_truth: float | None = None
    unconditional_fidelity_measured: float | None = None
    unconditional_measured_stderr: float | None = None
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": SUMMARY_SCHEMA,
            "protocol": self.protocol,
            "n": self.n,
            "k": self.k,
            "rounds": self.rounds,
            "accepted": self.accepted,
            "p_hat": self.p_hat,
            "p_hat_ci95": list(self.p_hat_ci),
            "per_k_histogram": {str(f): c for f, c in sorted(self.per_k_histogram.items())},
            "conditional_fidelity_truth": self.conditional_fidelity_truth,
            "conditional_truth_std": self.conditional_truth_std,
            "conditional_truth_stderr": self.conditional_truth_stderr,
            "conditional_fidelity_measured": self.conditional_fidelity_measured,
            "conditional_measured_stderr": self.conditional_measured_stderr,
            "unconditional_fidelity_truth": self.unconditional_fidelity_truth,
            "unconditional_fidelity_measured": self.unconditional_fidelity_measured,
            "unconditional_measured_stderr": self.unconditional_measured_stderr,
            "meta": self.meta,
        }


def clopper_pearson(successes: int, trials: int, confidence: float = 0.95):
    """Exact two-sided binomial confidence interval for a proportion.

    The bounds are the binomial-tail roots of Clopper & Pearson (Biometrika,
    1934): P[X >= s] = alpha/2 at the lower bound and P[X <= s] = alpha/2 at
    the upper one, for X ~ Binomial(trials, x), each found by ``solve_J``.
    """
    try:
        successes = operator.index(successes)
        trials = operator.index(trials)
    except TypeError as exc:
        raise ValueError(
            f"successes = {successes!r} and trials = {trials!r} must be integers"
        ) from exc
    if trials < 1:
        raise ValueError(f"trials = {trials} must be at least 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes = {successes} outside [0, trials = {trials}]")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence = {confidence} outside (0, 1)")
    if 2 * successes > trials:
        # Near x = 1 the float grid is too coarse for solve_J's residual
        # check once trials reach ~10^5; X -> trials - X mirrors both roots
        # to the end near 0, where the grid is fine.
        lo, hi = clopper_pearson(trials - successes, trials, confidence)
        return 1.0 - hi, 1.0 - lo
    alpha = 1.0 - confidence
    lo = solve_J(trials, successes - 1, 1.0 - alpha / 2.0) if successes > 0 else 0.0
    hi = solve_J(trials, successes, alpha / 2.0) if successes < trials else 1.0
    return lo, hi


def _sample_branch(cum_weights: np.ndarray, rng: np.random.Generator) -> int:
    idx = int(np.searchsorted(cum_weights, rng.random(), side="right"))
    return min(idx, len(cum_weights) - 1)


def _run_round(
    probs,
    fids,
    cum_weights,
    cum_setting_weights,
    n: int,
    dqsv: bool,
    rng: np.random.Generator,
) -> tuple:
    """One round as a row of ``RoundTable`` columns."""
    branch = _sample_branch(cum_weights, rng)
    table = probs[branch]
    fid = fids[branch]
    last = len(cum_setting_weights) - 1
    if dqsv:
        leftover = int(rng.integers(0, n + 1))
        tested = np.concatenate([np.arange(leftover), np.arange(leftover + 1, n + 1)])
    else:
        tested = np.arange(n)
    settings = np.searchsorted(cum_setting_weights, rng.random(n), side="right")
    np.minimum(settings, last, out=settings)
    passes = rng.random(n) < table[tested, settings]
    failures = int(n - passes.sum())
    tested_fidelity = float(fid[tested].mean())
    if not dqsv:
        return branch, failures, tested_fidelity, -1, math.nan, False, settings
    # One probe test on the leftover drives the measured conditional fidelity.
    probe = min(int(np.searchsorted(cum_setting_weights, rng.random(), side="right")), last)
    probe_passed = bool(rng.random() < table[leftover, probe])
    return (
        branch, failures, tested_fidelity, leftover, float(fid[leftover]), probe_passed, settings
    )


def _round_runner(
    m: ProductSequenceMixture,
    n: int,
    strat: HomogeneousStrategy,
    protocol: str,
):
    """Check the protocol's preconditions, tabulate the source once, and
    return a function that simulates one round from its random stream."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if protocol == "dqsv" and m.num_systems != n + 1:
        raise ValueError(f"mixture has {m.num_systems} systems, need exactly {n + 1}")
    if protocol == "sqsv" and m.num_systems < n:
        raise ValueError(f"mixture has {m.num_systems} systems, need at least {n}")
    probs = m.tabulate(partial(test_pass_probabilities, strat))
    fids = m.tabulate(partial(overlap, strat.target))
    cw = np.cumsum(m.weights)
    csw = np.cumsum(strat.weights)
    dqsv = protocol == "dqsv"

    def one(rng: np.random.Generator) -> tuple:
        return _run_round(probs, fids, cw, csw, n, dqsv, rng)

    return one


def run_rounds(
    m: ProductSequenceMixture,
    n: int,
    strat: HomogeneousStrategy,
    rounds: int,
    protocol: str,
    plan: RandomPlan,
) -> RoundTable:
    """Rounds 0 .. rounds-1, round i drawn from ``plan.round_rng(i)``.

    SQSV tests the first n systems of each drawn sequence and needs at least
    n; DQSV leaves one uniformly chosen system of exactly n + 1 untested.
    """
    one = _round_runner(m, n, strat, protocol)
    return RoundTable.from_rows([one(plan.round_rng(i)) for i in range(rounds)], n)


def rounds_until_accepted(
    m: ProductSequenceMixture,
    n: int,
    k: int,
    strat: HomogeneousStrategy,
    target_acceptances: int,
    protocol: str,
    plan: RandomPlan,
    max_rounds: int | None = None,
) -> RoundTable:
    """Rounds 0, 1, ... up to the one that brings the number accepted at
    threshold k to ``target_acceptances``, or ``max_rounds`` rounds (default
    1000 * target) if that comes first.  Round i is the same as in
    ``run_rounds``."""
    one = _round_runner(m, n, strat, protocol)
    cap = max_rounds if max_rounds is not None else 1000 * target_acceptances
    rows = []
    accepted = 0
    while accepted < target_acceptances and len(rows) < cap:
        row = one(plan.round_rng(len(rows)))
        rows.append(row)
        accepted += row[1] <= k
    return RoundTable.from_rows(rows, n)


def summarize(
    table: RoundTable,
    k: int,
    strat: HomogeneousStrategy,
    protocol: str,
    meta: dict | None = None,
) -> ExperimentSummary:
    """Aggregate rounds into acceptance and fidelity estimates at threshold k."""
    rounds = len(table)
    if rounds == 0:
        raise ValueError("no rounds to summarize")
    failures = table.failures
    accepted_mask = failures <= k
    accepted = int(accepted_mask.sum())
    values, counts = np.unique(failures, return_counts=True)
    n = table.settings.shape[1]
    lam = strat.lam

    summary = {
        "protocol": protocol,
        "n": n,
        "k": k,
        "rounds": rounds,
        "accepted": accepted,
        "p_hat": accepted / rounds,
        "p_hat_ci": clopper_pearson(accepted, rounds),
        "per_k_histogram": dict(zip(values.tolist(), counts.tolist())),
        "meta": meta or {},
    }

    if protocol == "dqsv":
        if accepted > 0:
            truth = table.leftover_fidelity[accepted_mask]
            std = float(truth.std(ddof=1)) if accepted > 1 else 0.0
            summary["conditional_fidelity_truth"] = float(truth.mean())
            summary["conditional_truth_std"] = std
            summary["conditional_truth_stderr"] = std / math.sqrt(accepted)
            rate = float(table.probe_passed[accepted_mask].mean())
            summary["conditional_fidelity_measured"] = fidelity_from_pass_rate(rate, lam)
            summary["conditional_measured_stderr"] = math.sqrt(
                max(rate * (1.0 - rate), 0.0) / accepted
            ) / (1.0 - lam)
    else:
        summary["unconditional_fidelity_truth"] = float(table.tested_fidelity.mean())
        total_tests = rounds * n
        rate = (total_tests - int(failures.sum())) / total_tests
        summary["unconditional_fidelity_measured"] = fidelity_from_pass_rate(rate, lam)
        summary["unconditional_measured_stderr"] = math.sqrt(
            max(rate * (1.0 - rate), 0.0) / total_tests
        ) / (1.0 - lam)
    return ExperimentSummary(**summary)


def scaling_experiment(
    noise: NoiseSpec,
    delta: float,
    n_grid: list[int],
    strat: HomogeneousStrategy,
    plan: RandomPlan,
    rounds: int = 1,
) -> dict:
    """Certificate scaling on a growing honest run.

    Each round performs max(n_grid) tests on IID noisy singlet copies; at
    every grid point N the number k of failures observed so far is plugged
    into both certificates at significance delta.  Returns per-round arrays
    so callers can report single-round or round-averaged scalings.
    """
    n_grid = [int(x) for x in n_grid]
    if n_grid != sorted(n_grid) or n_grid[0] < 1:
        raise ValueError("n_grid must be ascending positive integers")
    max_n = n_grid[-1]
    source = honest_iid(max(max_n, 2), noise)
    table = source.tabulate(partial(test_pass_probabilities, strat))[0]
    csw = np.cumsum(strat.weights)

    ks = np.zeros((rounds, len(n_grid)), dtype=int)
    eps_s = np.zeros((rounds, len(n_grid)))
    eps_d = np.zeros((rounds, len(n_grid)))
    for r in range(rounds):
        rng_r = plan.round_rng(r)
        settings = np.searchsorted(csw, rng_r.random(max_n), side="right")
        np.minimum(settings, len(csw) - 1, out=settings)
        passes = rng_r.random(max_n) < table[np.arange(max_n), settings]
        cum_failures = np.cumsum(~passes)
        for j, n in enumerate(n_grid):
            k = int(cum_failures[n - 1])
            if k > n - 1:
                # Every test failed; no certificate is defined at k = n.
                eps_s[r, j] = 1.0
                eps_d[r, j] = 1.0
                ks[r, j] = k
                continue
            ks[r, j] = k
            eps_s[r, j] = sqsv_certificate(
                CertificateQuery("sqsv", n, k, delta, strat.lam)
            ).infidelity_bound
            eps_d[r, j] = dqsv_certificate(
                CertificateQuery("dqsv", n, k, delta, strat.lam)
            ).infidelity_bound
    return {
        "n_grid": n_grid,
        "delta": delta,
        "fidelity": noise.fidelity,
        "rounds": rounds,
        "k": ks,
        "eps_sqsv": eps_s,
        "eps_dqsv": eps_d,
    }


def summary_to_json(summary: ExperimentSummary) -> str:
    """Stable-key-order JSON rendering of a summary."""
    return json.dumps(summary.to_dict(), indent=2, sort_keys=True)


def write_rounds_csv(path, table: RoundTable, k: int, strat: HomogeneousStrategy):
    """Per-round records with the frozen column set (see README)."""
    labels = [t.label for t in strat.tests]
    rows = zip(
        table.branch.tolist(), table.failures.tolist(), table.leftover.tolist(),
        table.leftover_fidelity.tolist(), table.settings.tolist(),
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema={ROUNDS_CSV_SCHEMA}\n")
        fh.write(
            "round,branch,failures,accepted,leftover_index,"
            "leftover_truth_fidelity,settings_digest\n"
        )
        for i, (branch, failures, left, fid, settings) in enumerate(rows):
            leftover = f"{left},{fid:.12g}" if left >= 0 else ","
            digest = hashlib.sha1(",".join(map(labels.__getitem__, settings)).encode("ascii"))
            fh.write(
                f"{i},{branch},{failures},{int(failures <= k)},{leftover},"
                f"{digest.hexdigest()[:12]}\n"
            )
