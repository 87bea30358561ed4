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

Reproducibility (round stream v2): rounds come in chunks of ``CHUNK_ROUNDS``.
Chunk c holds rounds c*C .. c*C + C - 1 and draws one block of uniforms from
``PCG64(SeedSequence([master_seed, experiment_id, c]))``, one row per round.
The columns of a row are, in order: branch, leftover (DQSV only), n
settings, n outcomes, probe setting and probe outcome (DQSV only).  Every
round of every caller (fixed count, acceptance stopping, certificate
scaling) is computed from that block by ``_chunks`` with array
operations; the source is tabulated once per run, one evaluation per
palette state, and read through its (branch, system) index.  The block is
drawn in consecutive row slices of about ``SLICE_VALUES`` numbers, which
bounds memory for large n; consecutive draws continue one stream, so the
slice size changes no number.  A run that stops
at a target number of acceptances stops inside a chunk, so round i is the
same under both stopping rules.
"""

from __future__ import annotations

import json
import math
import operator
import zlib
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .certificates import PROTOCOLS, CertificateQuery, dqsv_certificate, solve_J, sqsv_certificate
from .linalg import overlap
from .sources import NoiseSpec, ProductSequenceMixture, honest_iid
from .strategy import HomogeneousStrategy, fidelity_from_pass_rate, test_pass_probabilities

ROUNDS_CSV_SCHEMA = "qsverify.rounds/2"
SUMMARY_SCHEMA = "qsverify.summary/2"
CHUNK_ROUNDS = 256       # C: rounds per chunk, one random stream each
SLICE_VALUES = 1 << 20   # uniforms per slice of a chunk's block (memory only)


class RandomPlan:
    """Deterministic per-chunk random streams.

    ``chunk_rng(c)`` is a pure function of (master_seed, experiment_id, c);
    see the module docstring.  experiment_id defaults to 0 and is usually the
    CRC32 of an experiment name.
    """

    def __init__(self, master_seed: int, experiment_id: int = 0):
        self.master_seed = int(master_seed)
        self.experiment_id = int(experiment_id)

    @classmethod
    def for_experiment(cls, master_seed: int, name: str) -> "RandomPlan":
        return cls(master_seed, zlib.crc32(name.encode("utf-8")))

    def chunk_rng(self, chunk: int) -> np.random.Generator:
        seq = np.random.SeedSequence([self.master_seed, self.experiment_id, int(chunk)])
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
        d = asdict(self)
        d["schema"] = SUMMARY_SCHEMA
        d["p_hat_ci95"] = list(d.pop("p_hat_ci"))
        # str keys: sort_keys orders them as summary/2 files always had them
        d["per_k_histogram"] = {str(f): c for f, c in sorted(self.per_k_histogram.items())}
        return d


def clopper_pearson(successes: int, trials: int):
    """Exact two-sided 95% binomial confidence interval for a proportion.

    The bounds are the binomial-tail roots of Clopper & Pearson (Biometrika,
    1934): P[X >= s] = 0.025 at the lower bound and P[X <= s] = 0.025 at the
    upper one, for X ~ Binomial(trials, x), each found by ``solve_J``.
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
    if 2 * successes > trials:
        # Near x = 1 the float grid is too coarse for solve_J's residual
        # check once trials reach ~10^5; X -> trials - X mirrors both roots
        # to the end near 0, where the grid is fine.
        lo, hi = clopper_pearson(trials - successes, trials)
        return 1.0 - hi, 1.0 - lo
    alpha = 1.0 - 0.95
    lo = solve_J(trials, successes - 1, 1.0 - alpha / 2.0) if successes > 0 else 0.0
    hi = solve_J(trials, successes, alpha / 2.0) if successes < trials else 1.0
    return lo, hi


def _check_counts(**counts: int | None) -> None:
    """Raise ValueError naming the first negative count; None is unset."""
    for name, value in counts.items():
        if value is not None and value < 0:
            raise ValueError(f"{name} = {value} must be non-negative")


def check_system_count(num_systems: int, n: int, protocol: str) -> None:
    """Raise ValueError unless ``protocol`` can run n tests on sequences of
    ``num_systems`` systems: DQSV draws exactly n + 1, SQSV at least n."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if (num_systems != n + 1) if protocol == "dqsv" else (num_systems < n):
        need = f"exactly {n + 1}" if protocol == "dqsv" else f"at least {n}"
        raise ValueError(f"sequences have {num_systems} systems, need {need}")


def _chunks(
    m: ProductSequenceMixture, n: int, strat: HomogeneousStrategy, protocol: str,
    plan: RandomPlan, rounds: int,
):
    """Check the protocol's preconditions, tabulate the source once, and yield
    each chunk that holds rounds 0 .. rounds-1, lazily: an acceptance run's
    cap may be far beyond the rounds it runs.  A chunk is (columns, passes):
    the seven ``RoundTable`` columns in field order and the (rows, n) per-test
    pass flags.  No rounds yields chunk 0 with no rows, so every column keeps
    its shape.

    ``probs`` (P, S) and ``fids`` (P,) are read through the (B, L) index.
    Each uniform picks its branch, setting or leftover by inverse CDF, and an
    outcome passes when its uniform lies below the pass probability.
    """
    check_system_count(m.num_systems, n, protocol)
    probs = m.tabulate(partial(test_pass_probabilities, strat))
    fids = m.tabulate(partial(overlap, strat.target))
    cum_weights, cum_setting_weights = np.cumsum(m.weights), np.cumsum(strat.weights)
    last = len(cum_setting_weights) - 1
    dqsv = protocol == "dqsv"
    lead = 2 if dqsv else 1  # branch, then the leftover for DQSV
    width = lead + 2 * n + (2 if dqsv else 0)
    step = max(1, SLICE_VALUES // width)
    for c in range(max(1, -(-rounds // CHUNK_ROUNDS))):
        rng = plan.chunk_rng(c)
        rows = min(CHUNK_ROUNDS, rounds - c * CHUNK_ROUNDS)
        slices = []
        for start in range(0, max(rows, 1), step):
            u = rng.random((min(step, rows - start), width))
            branch = np.searchsorted(cum_weights, u[:, 0], side="right")
            np.minimum(branch, len(cum_weights) - 1, out=branch)
            settings = np.searchsorted(cum_setting_weights, u[:, lead:lead + n], side="right")
            np.minimum(settings, last, out=settings)
            systems = np.broadcast_to(np.arange(n), settings.shape)
            if dqsv:
                leftover = np.minimum((u[:, 1] * (n + 1)).astype(np.intp), n)
                systems = systems + (systems >= leftover[:, None])
                probe = np.searchsorted(cum_setting_weights, u[:, -2], side="right")
                spared = m.index[branch, leftover]
                probe_passed = u[:, -1] < probs[spared, np.minimum(probe, last)]
                leftover_fidelity = fids[spared]
            else:
                leftover = np.full(len(u), -1, dtype=np.intp)
                probe_passed = np.zeros(len(u), dtype=bool)
                leftover_fidelity = np.full(len(u), math.nan)
            tested = m.index[branch[:, None], systems]
            passes = u[:, lead + n:lead + 2 * n] < probs[tested, settings]
            slices.append((
                branch, n - passes.sum(axis=1), fids[tested].mean(axis=1), leftover,
                leftover_fidelity, probe_passed, settings.astype(np.int8), passes,
            ))
        *columns, passes = (np.concatenate(col) for col in zip(*slices))
        yield columns, passes


def _table(parts) -> RoundTable:
    """The chunks' ``RoundTable`` columns joined in round order."""
    return RoundTable(*(np.concatenate(col) for col in zip(*parts)))


def run_rounds(
    m: ProductSequenceMixture,
    n: int,
    strat: HomogeneousStrategy,
    rounds: int,
    protocol: str,
    plan: RandomPlan,
) -> RoundTable:
    """Rounds 0 .. rounds-1 of the plan's stream (see the module docstring).

    SQSV tests the first n systems of each drawn sequence and needs at least
    n; DQSV leaves one uniformly chosen system of exactly n + 1 untested.
    """
    _check_counts(rounds=rounds)
    return _table(columns for columns, _ in _chunks(m, n, strat, protocol, plan, rounds))


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
    _check_counts(target_acceptances=target_acceptances, max_rounds=max_rounds)
    cap = max_rounds if max_rounds is not None else 1000 * target_acceptances
    parts, accepted = [], 0
    for columns, _ in _chunks(m, n, strat, protocol, plan, cap):
        _, failures, *_ = columns
        passed = failures <= k
        hits = accepted + np.cumsum(passed)
        # Up to the round that reaches the target; none if it is met already.
        stop = int(np.searchsorted(hits, target_acceptances)) + (accepted < target_acceptances)
        parts.append([col[:stop] for col in columns])
        accepted += int(passed[:stop].sum())
        if accepted >= target_acceptances:
            break
    return _table(parts)


def _fidelity_estimate(passed: int, tests: int, lam: float) -> tuple[float, float]:
    """Fidelity estimate from ``passed`` of ``tests`` passing tests, and its
    binomial standard error."""
    rate = passed / tests
    stderr = math.sqrt(max(rate * (1.0 - rate), 0.0) / tests) / (1.0 - lam)
    return fidelity_from_pass_rate(rate, lam), stderr


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
            passed = int(table.probe_passed[accepted_mask].sum())
            measured, stderr = _fidelity_estimate(passed, accepted, strat.lam)
            summary["conditional_fidelity_measured"] = measured
            summary["conditional_measured_stderr"] = stderr
    else:
        tests = rounds * n
        measured, stderr = _fidelity_estimate(tests - int(failures.sum()), tests, strat.lam)
        summary["unconditional_fidelity_truth"] = float(table.tested_fidelity.mean())
        summary["unconditional_fidelity_measured"] = measured
        summary["unconditional_measured_stderr"] = stderr
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

    Each round is an SQSV round of max(n_grid) tests on IID noisy singlet
    copies; at every grid point N the number k of failures among its first N
    tests is plugged into both certificates at significance delta.  Returns
    per-round arrays so callers can report single-round or round-averaged
    scalings.
    """
    _check_counts(rounds=rounds)
    refusal = "n_grid must be ascending positive integers"
    try:
        n_grid = [operator.index(x) for x in n_grid]
    except TypeError as exc:
        raise ValueError(refusal) from exc
    if not n_grid or n_grid != sorted(n_grid) or n_grid[0] < 1:
        raise ValueError(refusal)
    max_n = n_grid[-1]
    at = np.array(n_grid) - 1
    ks = np.concatenate([
        np.cumsum(~passes, axis=1)[:, at]
        for _, passes in _chunks(honest_iid(max_n + 1, noise), max_n, strat, "sqsv", plan, rounds)
    ])
    # Each distinct (n, k) pair is certified once, coded as k (max_n + 1) + n.
    # At k = n every test failed and no certificate is defined: eps stays 1.
    codes, inverse = np.unique(ks * (max_n + 1) + np.array(n_grid), return_inverse=True)
    pair_k, pair_n = np.divmod(codes, max_n + 1)
    eps_s, eps_d = np.ones((2, len(codes)))
    for i, (k, n) in enumerate(zip(pair_k.tolist(), pair_n.tolist())):
        if k < n:
            eps_s[i] = sqsv_certificate(
                CertificateQuery("sqsv", n, k, delta, strat.lam)
            ).infidelity_bound
            eps_d[i] = dqsv_certificate(
                CertificateQuery("dqsv", n, k, delta, strat.lam)
            ).infidelity_bound
    cells = inverse.reshape(ks.shape)
    return {
        "n_grid": n_grid,
        "delta": delta,
        "fidelity": noise.fidelity,
        "rounds": rounds,
        "k": ks,
        "eps_sqsv": eps_s[cells],
        "eps_dqsv": eps_d[cells],
    }


def summary_to_json(summary: ExperimentSummary) -> str:
    """Stable-key-order JSON rendering of a summary."""
    return json.dumps(summary.to_dict(), indent=2, sort_keys=True)


def write_rounds_csv(path, table: RoundTable, k: int, strat: HomogeneousStrategy):
    """Per-round records with the frozen column set (see README).

    Each distinct settings row is hashed once: a row is its n setting indices
    as n bytes, which key the digests already made.
    """
    import hashlib

    labels = strat.labels
    n = table.settings.shape[1]
    settings = table.settings.astype(np.uint8).tobytes()
    digests = {}
    rows = zip(
        table.branch.tolist(), table.failures.tolist(), table.leftover.tolist(),
        table.leftover_fidelity.tolist(),
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema={ROUNDS_CSV_SCHEMA}\n")
        fh.write(
            "round,branch,failures,accepted,leftover_index,"
            "leftover_truth_fidelity,settings_digest\n"
        )
        for i, (branch, failures, left, fid) in enumerate(rows):
            leftover = f"{left},{fid:.12g}" if left >= 0 else ","
            row = settings[i * n:(i + 1) * n]
            digest = digests.get(row)
            if digest is None:
                text = ",".join(map(labels.__getitem__, row))
                digest = digests[row] = hashlib.sha1(text.encode("ascii")).hexdigest()[:12]
            fh.write(f"{i},{branch},{failures},{int(failures <= k)},{leftover},{digest}\n")
