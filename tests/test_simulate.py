import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import stats as sps

from qsverify.certificates import (
    CertificateQuery,
    dqsv_certificate,
    solve_J,
    sqsv_certificate,
)
from qsverify.exact import exact_stats
from qsverify import simulate
from qsverify.simulate import (
    CHUNK_ROUNDS,
    RandomPlan,
    RoundTable,
    clopper_pearson,
    rounds_until_accepted,
    run_rounds,
    scaling_experiment,
    summarize,
    write_rounds_csv,
)
from qsverify.reproduce import default_fig5_grid
from qsverify.sources import NoiseSpec, honest_iid, rho1, rho2, unconditional_fidelity
from qsverify.strategy import build_singlet_strategy, fidelity_from_pass_rate
from rational_oracle import binom_tail_highprec


COLUMNS = [f.name for f in dataclasses.fields(RoundTable)]


@pytest.fixture(scope="module")
def strat():
    return build_singlet_strategy()


def test_honest_ideal_sqsv_never_fails(strat):
    m = honest_iid(10, NoiseSpec(1.0))
    table = run_rounds(m, 10, strat, 30, "sqsv", RandomPlan(0))
    assert len(table) == 30
    assert np.all(table.failures == 0)
    assert np.all(table.leftover == -1)
    assert np.all(np.isnan(table.leftover_fidelity))
    assert not np.any(table.probe_passed)
    assert table.settings.shape == (30, 10) and table.settings.dtype == np.int8


def test_honest_ideal_dqsv_perfect_leftover(strat):
    m = honest_iid(11, NoiseSpec(1.0))
    table = run_rounds(m, 10, strat, 30, "dqsv", RandomPlan(1))
    assert len(table) == 30
    assert np.all(table.failures == 0)
    assert np.all((0 <= table.leftover) & (table.leftover <= 10))
    assert np.allclose(table.leftover_fidelity, 1.0, rtol=0, atol=1e-12)


def test_rho2_tabulates_two_distinct_states(strat, monkeypatch):
    """rho2(100) has 101 x 101 system slots but only two distinct states."""
    from qsverify import simulate

    calls = []
    original = simulate.test_pass_probabilities

    def counting(strat_, s):
        calls.append(s)
        return original(strat_, s)

    monkeypatch.setattr(simulate, "test_pass_probabilities", counting)
    run_rounds(rho2(100, 3 * math.pi / 4), 100, strat, 1, "dqsv", RandomPlan(0))
    assert len(calls) == 2


def test_rho2_large_n_runs_in_linear_memory(strat, monkeypatch):
    """rho2(2000) has 2001^2 system slots: one byte each, and two evaluations."""
    import tracemalloc

    from qsverify import simulate

    calls = []
    original = simulate.overlap

    def counting(target, s):
        calls.append(s)
        return original(target, s)

    monkeypatch.setattr(simulate, "overlap", counting)
    tracemalloc.start()
    try:
        m = rho2(2000, math.pi)
        table = run_rounds(m, 2000, strat, 256, "dqsv", RandomPlan(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.index.dtype == np.uint8 and m.index.shape == (2001, 2001)
    assert len(calls) == 2
    assert len(table) == 256
    assert peak < 50e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_branch_index_single_branch(strat):
    table = run_rounds(honest_iid(4), 4, strat, 10, "sqsv", RandomPlan(18))
    assert np.all(table.branch == 0)


def test_branch_index_rho1_frequency(strat):
    # rho1 draws its all-singlet branch with weight 2/3
    rounds = 50_000
    table = run_rounds(rho1(2), 2, strat, rounds, "sqsv", RandomPlan(19))
    hits = int(np.sum(table.branch == 0))
    p = 2 / 3
    sigma = math.sqrt(p * (1 - p) / rounds)
    assert abs(hits / rounds - p) < 4 * sigma


def test_branch_index_rho2_uniform(strat):
    rounds = 50_000
    table = run_rounds(rho2(5, math.pi), 5, strat, rounds, "sqsv", RandomPlan(20))
    counts = np.bincount(table.branch, minlength=6)
    assert len(counts) == 6
    p = 1 / 6
    sigma = math.sqrt(p * (1 - p) / rounds)
    assert np.max(np.abs(counts / rounds - p)) < 4 * sigma


def test_maximally_mixed_failure_counts_binomial(strat):
    m = honest_iid(20, NoiseSpec(0.25))
    failures = run_rounds(m, 20, strat, 10_000, "sqsv", RandomPlan(2)).failures
    mean = failures.mean()
    sigma = math.sqrt(20 * 0.25 / 10_000) * 2  # std of the mean of Bin(20, .5)
    assert abs(mean - 10.0) < 4 * sigma


def test_rho1_failure_histogram_bimodal(strat):
    m = rho1(100)
    table = run_rounds(m, 100, strat, 10_000, "sqsv", RandomPlan(3))
    failures = table.failures
    branches = table.branch
    assert np.all(failures[branches == 0] == 0)
    mixed = failures[branches == 1]
    assert abs(mixed.mean() - 50.0) < 4 * 5.0 / math.sqrt(len(mixed))
    # nothing in between the spike at 0 and the binomial bump
    assert not np.any((failures > 0) & (failures < 20))


def test_leftover_index_uniform_chi2(strat):
    n = 9
    m = honest_iid(n + 1, NoiseSpec(0.9))
    table = run_rounds(m, n, strat, 100_000, "dqsv", RandomPlan(4))
    counts = np.bincount(table.leftover, minlength=n + 1)
    _, pvalue = sps.chisquare(counts)
    assert pvalue > 0.01


def test_leftover_is_excluded_from_testing(strat):
    # rho2 branch b places the orthogonal copy at slot b; whenever that slot
    # is the leftover, every tested system is a perfect singlet, so the round
    # cannot record a failure and the leftover truth fidelity is 0.
    m = rho2(6, math.pi)
    table = run_rounds(m, 6, strat, 4000, "dqsv", RandomPlan(77))
    spared = table.leftover == table.branch
    assert spared.any(), "expected some rounds to spare the rotated copy"
    assert np.all(table.failures[spared] == 0)
    assert np.allclose(table.leftover_fidelity[spared], 0.0, rtol=0, atol=1e-10)
    assert np.all(table.failures[~spared] <= 1)
    assert np.allclose(table.leftover_fidelity[~spared], 1.0, rtol=0, atol=1e-10)


def test_acceptance_probability_matches_exact(strat):
    # simulated p_hat agrees with the exact reference within 4 binomial sigma
    rounds = 100_000
    cases = [
        (rho1(4), 4, 1),
        (rho2(5, math.pi), 5, 1),
        (rho2(4, math.pi / 2), 4, 0),
        (honest_iid(7, NoiseSpec(0.8)), 6, 2),
    ]
    for seed, (m, n, k) in enumerate(cases):
        exact = exact_stats(m, k, strat)
        table = run_rounds(m, n, strat, rounds, "dqsv", RandomPlan(100 + seed))
        p_hat = np.mean(table.failures <= k)
        sigma = math.sqrt(max(exact.p_k * (1 - exact.p_k), 1e-12) / rounds)
        assert abs(p_hat - exact.p_k) < 4 * sigma + 1e-9, (n, k)


def test_conditional_fidelity_truth_matches_exact(strat):
    m = rho2(5, math.pi)
    exact = exact_stats(m, 1, strat)
    summary = summarize(
        run_rounds(m, 5, strat, 50_000, "dqsv", RandomPlan(5)), 1, strat, "dqsv"
    )
    se = summary.conditional_truth_stderr
    assert abs(summary.conditional_fidelity_truth - exact.F_k) < 4 * max(se, 1e-4)


def test_rho2_smallest_grid_dual_computation(strat):
    # N = 2, phi = pi, k = 0: exact f_k / p_k versus a large simulated
    # conditional-truth estimate
    m = rho2(2, math.pi)
    exact = exact_stats(m, 0, strat)
    table = run_rounds(m, 2, strat, 1_000_000, "dqsv", RandomPlan(42))
    summary = summarize(table, 0, strat, "dqsv")
    assert abs(summary.p_hat - exact.p_k) < 4 * math.sqrt(
        exact.p_k * (1 - exact.p_k) / summary.rounds
    )
    assert abs(summary.conditional_fidelity_truth - exact.F_k) < 4 * max(
        summary.conditional_truth_stderr, 1e-6
    )


def test_truth_and_measured_estimators_agree(strat):
    for seed, (m, n, k) in enumerate(
        [(rho1(6, NoiseSpec(0.95)), 6, 1), (rho2(5, 2.0, NoiseSpec(0.9)), 5, 1)]
    ):
        summary = summarize(
            run_rounds(m, n, strat, 40_000, "dqsv", RandomPlan(200 + seed)),
            k,
            strat,
            "dqsv",
        )
        combined = math.hypot(
            summary.conditional_truth_stderr, summary.conditional_measured_stderr
        )
        diff = abs(
            summary.conditional_fidelity_truth - summary.conditional_fidelity_measured
        )
        assert diff < 4 * combined


def test_dqsv_soundness_on_simulated_sources(strat):
    # conditional truth must sit at or above the certificate at delta = lower CI
    for seed, (m, n, k) in enumerate(
        [(rho1(8, NoiseSpec(0.98)), 8, 1), (rho2(6, math.pi), 6, 1)]
    ):
        summary = summarize(
            run_rounds(m, n, strat, 30_000, "dqsv", RandomPlan(300 + seed)),
            k,
            strat,
            "dqsv",
        )
        bound = dqsv_certificate(
            CertificateQuery("dqsv", n, k, max(summary.p_hat_ci[0], 1e-9), strat.lam)
        ).fidelity_bound
        slack = summary.conditional_fidelity_truth - bound
        assert slack > -4 * max(summary.conditional_truth_stderr, 1e-4)


def test_sqsv_violation_reproduction(strat):
    # the IID certificate overshoots the true unconditional fidelity on
    # correlated sources
    m = rho1(100)
    table = run_rounds(m, 100, strat, 3000, "sqsv", RandomPlan(6))
    truth = unconditional_fidelity(m, strat.target)
    violated = []
    for k in range(0, 11):
        summary = summarize(table, k, strat, "sqsv")
        bound = sqsv_certificate(
            CertificateQuery("sqsv", 100, k, summary.p_hat, strat.lam)
        ).fidelity_bound
        violated.append(bound > truth)
    assert all(violated)

    st = exact_stats(rho2(5, math.pi), 1, strat)
    bound = sqsv_certificate(
        CertificateQuery("sqsv", 5, 1, min(1.0, st.p_k), strat.lam)
    ).fidelity_bound
    assert bound > unconditional_fidelity(rho2(5, math.pi), strat.target)


def test_determinism_bit_identical(strat):
    m = rho1(20, NoiseSpec(0.97))
    a = summarize(run_rounds(m, 20, strat, 500, "dqsv", RandomPlan(7)), 1, strat, "dqsv")
    b = summarize(run_rounds(m, 20, strat, 500, "dqsv", RandomPlan(7)), 1, strat, "dqsv")
    assert a == b


def test_stopping_rule_acceptances(strat):
    m = rho1(10)
    table = rounds_until_accepted(m, 10, 0, strat, 500, "dqsv", RandomPlan(9), max_rounds=50_000)
    summary = summarize(table, 0, strat, "dqsv")
    assert summary.accepted == 500
    assert summary.rounds >= 500
    # cap honored when acceptances are impossible to reach
    capped = rounds_until_accepted(
        honest_iid(3, NoiseSpec(0.25)), 2, 0, strat, 10_000_000, "dqsv", RandomPlan(10),
        max_rounds=200,
    )
    assert summarize(capped, 0, strat, "dqsv").rounds == 200


def test_rounds_until_accepted_stops_at_target(strat):
    # Round i is the same under both stopping rules, and the run ends on the
    # round that reaches the target: inside a later chunk than the first, so
    # both runs cross a chunk boundary.
    m = rho2(6, math.pi, NoiseSpec(0.95))
    plan = RandomPlan(21)
    until = rounds_until_accepted(m, 6, 0, strat, 150, "dqsv", plan)
    assert np.sum(until.failures <= 0) == 150
    assert until.failures[-1] <= 0
    assert len(until) > CHUNK_ROUNDS and len(until) % CHUNK_ROUNDS != 0
    fixed = run_rounds(m, 6, strat, len(until) + 5, "dqsv", plan)
    for name in COLUMNS:
        a, b = getattr(until, name), getattr(fixed, name)[: len(until)]
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for cap in (7, CHUNK_ROUNDS + 7):
        capped = rounds_until_accepted(m, 6, 0, strat, 10_000, "dqsv", plan, max_rounds=cap)
        assert len(capped) == cap
        assert np.array_equal(capped.failures, fixed.failures[:cap])


def test_no_rounds_give_empty_columns(strat):
    # A target already met, or a cap of 0, runs no round, and an empty run
    # keeps every column's dtype and width.
    m = rho2(6, math.pi, NoiseSpec(0.95))
    want = run_rounds(m, 6, strat, 1, "dqsv", RandomPlan(24))
    runs = [
        run_rounds(m, 6, strat, 0, "dqsv", RandomPlan(24)),
        rounds_until_accepted(m, 6, 0, strat, 0, "dqsv", RandomPlan(24)),
        rounds_until_accepted(m, 6, 0, strat, 0, "dqsv", RandomPlan(24), max_rounds=500),
        rounds_until_accepted(m, 6, 0, strat, 5, "dqsv", RandomPlan(24), max_rounds=0),
    ]
    for table in runs:
        assert len(table) == 0
        for name in COLUMNS:
            a, b = getattr(table, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape[1:] == b.shape[1:], name


@pytest.mark.parametrize(
    "name, run",
    [
        ("rounds", lambda m, s, p: run_rounds(m, 6, s, -3, "dqsv", p)),
        ("target_acceptances", lambda m, s, p: rounds_until_accepted(m, 6, 0, s, -1, "dqsv", p)),
        ("max_rounds", lambda m, s, p: rounds_until_accepted(m, 6, 0, s, 5, "dqsv", p, -2)),
        ("rounds", lambda m, s, p: scaling_experiment(NoiseSpec(0.99), 0.05, [2, 6], s, p, -1)),
    ],
    ids=["run_rounds", "target_acceptances", "max_rounds", "scaling_experiment"],
)
def test_negative_counts_raise_naming_the_argument(strat, name, run):
    with pytest.raises(ValueError, match=f"^{name} = -"):
        run(rho2(6, 3 * math.pi / 4), strat, RandomPlan(7))


def test_slice_size_does_not_change_rounds(strat, monkeypatch):
    # A chunk's uniforms are drawn in row slices of about SLICE_VALUES numbers;
    # consecutive draws continue one stream, so any slice size gives the same
    # table.  At n = 40 a DQSV row holds 84 uniforms: 100 values make one-row
    # slices, 1000 values eleven-row slices with a short last one.
    m = rho1(40, NoiseSpec(0.9))
    plan = RandomPlan(23)
    rounds = CHUNK_ROUNDS + 30
    want = run_rounds(m, 40, strat, rounds, "dqsv", plan)
    for values in (100, 1000):
        monkeypatch.setattr(simulate, "SLICE_VALUES", values)
        got = run_rounds(m, 40, strat, rounds, "dqsv", plan)
        for name in COLUMNS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_zero_accepted_reports_absent_estimators(strat):
    m = honest_iid(3, NoiseSpec(0.25))
    rejected = RoundTable(
        branch=np.zeros(3, dtype=np.intp),
        failures=np.array([1, 2, 1]),
        tested_fidelity=np.full(3, 0.25),
        leftover=np.array([0, 2, 1]),
        leftover_fidelity=np.full(3, 0.25),
        probe_passed=np.array([True, False, True]),
        settings=np.zeros((3, 2), dtype=np.int8),
    )
    summary = summarize(rejected, 0, strat, "dqsv")
    assert summary.rounds == 3
    assert summary.accepted == 0
    assert summary.conditional_fidelity_truth is None
    assert summary.conditional_fidelity_measured is None


def test_summary_p_hat_equals_ratio(strat):
    m = rho1(5)
    table = run_rounds(m, 5, strat, 1000, "dqsv", RandomPlan(12))
    summary = summarize(table, 1, strat, "dqsv")
    assert summary.p_hat == summary.accepted / summary.rounds
    assert sum(summary.per_k_histogram.values()) == summary.rounds
    lo, hi = summary.p_hat_ci
    assert lo <= summary.p_hat <= hi


def test_summarize_matches_per_round_reduction(strat):
    # Reference: reduce the table row by row with Python numbers.  summarize
    # reduces whole columns and must agree exactly, since the sums are the same.
    m, n = rho1(8, NoiseSpec(0.9)), 8
    for protocol in ("sqsv", "dqsv"):
        table = run_rounds(m, n, strat, 400, protocol, RandomPlan(22))
        rows = list(zip(*(getattr(table, name).tolist() for name in COLUMNS)))
        for k in range(4):
            summary = summarize(table, k, strat, protocol)
            accepted = [r for r in rows if r[1] <= k]
            hist = {}
            for r in rows:
                hist[r[1]] = hist.get(r[1], 0) + 1
            assert summary.accepted == len(accepted)
            assert summary.per_k_histogram == hist
            if protocol == "dqsv":
                truth = np.array([r[4] for r in accepted])
                assert summary.conditional_fidelity_truth == float(truth.mean())
                assert summary.conditional_truth_std == float(truth.std(ddof=1))
                rate = sum(r[5] for r in accepted) / len(accepted)
                assert summary.conditional_fidelity_measured == (
                    fidelity_from_pass_rate(rate, strat.lam)
                )
            else:
                assert summary.unconditional_fidelity_truth == float(
                    np.array([r[2] for r in rows]).mean()
                )
                passes = sum(n - r[1] for r in rows)
                assert summary.unconditional_fidelity_measured == (
                    fidelity_from_pass_rate(passes / (len(rows) * n), strat.lam)
                )


def test_clopper_pearson_edges():
    lo, hi = clopper_pearson(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = clopper_pearson(100, 100)
    assert hi == 1.0 and 0.95 < lo < 1
    lo, hi = clopper_pearson(50, 100)
    assert lo < 0.5 < hi


def test_clopper_pearson_matches_beta_quantiles():
    alpha = 1.0 - 0.95
    for n in (1, 2, 10, 200, 800, 2000):
        s = np.arange(n + 1)
        want_lo = sps.beta.ppf(alpha / 2.0, s[1:], n - s[1:] + 1)
        want_hi = sps.beta.ppf(1.0 - alpha / 2.0, s[:-1] + 1, n - s[:-1])
        got = np.array([clopper_pearson(int(j), n) for j in s])
        np.testing.assert_allclose(got[1:, 0], want_lo, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got[:-1, 1], want_hi, rtol=1e-12, atol=0)
        assert got[0, 0] == 0.0 and got[-1, 1] == 1.0
        assert np.all(got[:, 0] <= s / n) and np.all(s / n <= got[:, 1])
        # closed forms at the edges: (1 - hi)^n = alpha/2 = lo^n
        edge = (alpha / 2.0) ** (1.0 / n)
        assert got[0, 1] == pytest.approx(1.0 - edge, rel=1e-12)
        assert got[-1, 0] == pytest.approx(edge, rel=1e-12)


def test_clopper_pearson_large_trials_bracket_the_true_roots():
    # scipy.stats.beta.ppf drifts at these sizes (its root at n = 10^7, s = 1
    # misses the tail equation by 7.8e-12), so the 50-digit tail is the
    # reference: the true root lies within 1e-13 of the distance to the
    # nearer end of [0, 1], plus two ulps.  Success counts near the number
    # of trials take the mirrored roots.
    alpha = 1.0 - 0.95

    def brackets(k, target, x):
        w = 1e-13 * min(x, 1.0 - x) + 2.0 * math.ulp(x)
        return binom_tail_highprec(n, k, x - w) >= target >= binom_tail_highprec(n, k, x + w)

    for n in (10**5, 10**6, 10**7):
        for s in (0, 1, 2, n // 3, n // 2, n - 2, n - 1, n):
            lo, hi = clopper_pearson(s, n)
            assert 0.0 <= lo <= s / n <= hi <= 1.0
            assert lo == 0.0 if s == 0 else brackets(s - 1, 1.0 - alpha / 2.0, lo), (n, s)
            assert hi == 1.0 if s == n else brackets(s, alpha / 2.0, hi), (n, s)


@pytest.mark.parametrize(
    "args, field",
    [
        ((11, 10), "successes"),
        ((-1, 10), "successes"),
        ((2.5, 10), "successes"),
        ((0, 0), "trials"),
    ],
)
def test_clopper_pearson_rejects_bad_input(args, field):
    with pytest.raises(ValueError, match=field):
        clopper_pearson(*args)


def test_scaling_experiment_ideal_closed_form(strat):
    res = scaling_experiment(
        NoiseSpec(1.0), 0.05, [10, 50, 100], strat, RandomPlan(13), rounds=2
    )
    assert np.all(res["k"] == 0)
    for j, n in enumerate(res["n_grid"]):
        expected = 1.5 * (1 - 0.05 ** (1.0 / n))
        assert res["eps_sqsv"][0, j] == pytest.approx(expected, abs=1e-12)
    # defensive certificate is never tighter than the IID one
    assert np.all(res["eps_dqsv"] >= res["eps_sqsv"] - 1e-12)


def test_scaling_experiment_noisy_runs(strat):
    res = scaling_experiment(
        NoiseSpec(0.99), 0.05, [100, 1000], strat, RandomPlan(14), rounds=5
    )
    assert res["k"].shape == (5, 2)
    assert np.all(res["eps_dqsv"] <= 1.0)
    assert np.all(res["eps_dqsv"] > 0.0)
    # The rounds are SQSV rounds of the engine: at N = max(n_grid), k is the
    # failure count of the same round from run_rounds.
    table = run_rounds(honest_iid(1000, NoiseSpec(0.99)), 1000, strat, 5, "sqsv", RandomPlan(14))
    assert np.array_equal(res["k"][:, -1], table.failures)


def test_rounds_csv_format(tmp_path, strat):
    m = rho2(4, math.pi)
    table = run_rounds(m, 4, strat, 20, "dqsv", RandomPlan(15))
    path = tmp_path / "rounds.csv"
    write_rounds_csv(path, table, 1, strat)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema=qsverify.rounds/")
    assert lines[1] == (
        "round,branch,failures,accepted,leftover_index,"
        "leftover_truth_fidelity,settings_digest"
    )
    assert len(lines) == 22
    first = lines[2].split(",")
    assert first[0] == "0"
    assert first[3] in ("0", "1")
    assert len(first[6]) == 12


@pytest.mark.parametrize("n", [1, 2, 5])
def test_sqsv_ignores_systems_beyond_the_first_n(strat, n):
    # SQSV tests the first n systems of each sequence, so an honest source of
    # n + 1 systems gives the rounds of one of max(n, 2), the smallest that
    # honest_iid builds.
    plan = RandomPlan(31)
    want = run_rounds(honest_iid(max(n, 2), NoiseSpec(0.8)), n, strat, 600, "sqsv", plan)
    got = run_rounds(honest_iid(n + 1, NoiseSpec(0.8)), n, strat, 600, "sqsv", plan)
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_protocol_preconditions(strat):
    m = honest_iid(5)
    plan = RandomPlan(16)
    with pytest.raises(ValueError):
        run_rounds(m, 5, strat, 1, "dqsv", plan)  # needs exactly n+1 = 6 systems
    with pytest.raises(ValueError):
        run_rounds(m, 6, strat, 1, "sqsv", plan)  # needs at least 6 systems
    with pytest.raises(ValueError):
        run_rounds(m, 4, strat, 10, "other", RandomPlan(17))
    with pytest.raises(ValueError):
        rounds_until_accepted(m, 5, 0, strat, 1, "dqsv", plan)


def test_scaling_experiment_solves_each_pair_once(strat, monkeypatch):
    # fig5's grid and noise: each distinct (n, k) pair is certified once by
    # each protocol and its infidelities copied to every cell that holds it
    calls = {"sqsv": [], "dqsv": []}
    for name in ("sqsv", "dqsv"):
        cert = getattr(simulate, f"{name}_certificate")
        monkeypatch.setattr(
            simulate, f"{name}_certificate",
            lambda q, cert=cert, seen=calls[name]: seen.append((q.n, q.k)) or cert(q),
        )
    result = scaling_experiment(
        NoiseSpec(0.99), 0.05, default_fig5_grid(), strat,
        RandomPlan.for_experiment(42, "fig5"), rounds=20,
    )
    cells = [(r, j, result["n_grid"][j], int(k)) for (r, j), k in np.ndenumerate(result["k"])]
    pairs = {(n, k) for _, _, n, k in cells if k < n}
    assert len(pairs) < len(cells) / 5
    assert sorted(calls["sqsv"]) == sorted(calls["dqsv"]) == sorted(pairs)
    assert solve_J.cache_info().hits == 0
    certify = {"sqsv": sqsv_certificate, "dqsv": dqsv_certificate}
    for r, j, n, k in cells:
        for name, cert in certify.items():
            expected = 1.0 if k == n else cert(
                CertificateQuery(name, n, k, 0.05, strat.lam)
            ).infidelity_bound
            assert result[f"eps_{name}"][r, j] == expected


def test_default_fig5_grid_is_pinned():
    # 28 rounded log-spaced points deduplicated, plus the anchors 10 and 100.
    grid = default_fig5_grid()
    assert grid == [
        1, 2, 3, 4, 5, 6, 8, 10, 13, 17, 22, 28, 36, 46, 60, 77, 100,
        129, 167, 215, 278, 359, 464, 599, 774, 1000,
    ]
    assert all(type(n) is int for n in grid)


EMPTY_TABLE = RoundTable(*(np.empty(0) for _ in COLUMNS))


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda s, p: summarize(EMPTY_TABLE, 0, s, "dqsv"), "no rounds to summarize"),
        (lambda s, p: scaling_experiment(NoiseSpec(0.99), 0.05, [6, 2], s, p),
         "n_grid must be ascending positive integers"),
        (lambda s, p: scaling_experiment(NoiseSpec(0.99), 0.05, [0, 2], s, p),
         "n_grid must be ascending positive integers"),
        (lambda s, p: scaling_experiment(NoiseSpec(0.99), 0.05, [], s, p),
         "n_grid must be ascending positive integers"),
        (lambda s, p: scaling_experiment(NoiseSpec(0.99), 0.05, [3.7, 5], s, p),
         "n_grid must be ascending positive integers"),
    ],
    ids=["empty-table", "unsorted-grid", "zero-in-grid", "empty-grid", "non-integer-grid"],
)
def test_refusals_state_their_reason(strat, run, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run(strat, RandomPlan(8))
