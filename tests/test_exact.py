import copy
import json
import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

import leftover_oracle
from matrix_mixtures import random_mixture, random_mixture_and_labels
from qsverify.certificates import (
    Certificate,
    CertificateQuery,
    NumericalConsistencyError,
    binom_tail,
    dqsv_certificate,
    solve_J,
)
from qsverify.exact import (
    MAX_SWEEP_TESTS,
    SWEEP_SLACK_TOL,
    ExactStats,
    _random_fidelities,
    _row_stats,
    dqsv_soundness_sweep,
    exact_stats,
    exact_stats_bruteforce,
    sqsv_worst_case_scan,
)
from qsverify.linalg import overlap, phased_singlet
from qsverify.sources import (
    NoiseSpec,
    ProductSequenceMixture,
    honest_iid,
    maximally_mixed,
    rho1,
    rho2,
    werner_state,
)
from qsverify.strategy import build_singlet_strategy, pass_probability


@pytest.fixture(scope="module")
def strat():
    return build_singlet_strategy()


def test_honest_ideal_accepts_surely(strat):
    m = honest_iid(5, NoiseSpec(1.0))
    for k in (0, 1, 3):
        st = exact_stats(m, k, strat)
        assert st.p_k == pytest.approx(1.0, abs=1e-10)
        assert st.f_k == pytest.approx(1.0, abs=1e-10)
        assert st.F_k == pytest.approx(1.0, abs=1e-10)


def test_maximally_mixed_reduces_to_binomial_half(strat):
    m = honest_iid(7, NoiseSpec(0.25))
    for k in (0, 2, 5):
        assert exact_stats(m, k, strat).p_k == pytest.approx(binom_tail(6, k, 0.5), abs=1e-12)


def test_iid_reduction_general(strat):
    # single-branch IID mixture: p_k = B_{N,k}(1 - tr(Omega sigma))
    for fid in (0.3, 0.7, 0.95):
        m = honest_iid(9, NoiseSpec(fid))
        q = 1.0 - pass_probability(strat, werner_state(fid))
        for k in (0, 1, 4, 7):
            assert exact_stats(m, k, strat).p_k == pytest.approx(
                binom_tail(8, k, q), abs=1e-12
            )


def test_rho1_examples(strat):
    m = rho1(4)
    assert exact_stats(m, 0, strat).p_k == pytest.approx(
        (2 / 3) + (1 / 3) * 0.5**4, abs=1e-10
    )
    # conditional fidelity: singlet branch dominates acceptance
    expected_f = (2 / 3) * 1.0 + (1 / 3) * 0.5**4 * 0.25
    assert exact_stats(m, 0, strat).f_k == pytest.approx(expected_f, abs=1e-10)
    st = exact_stats(m, 0, strat)
    assert st.p_k == exact_stats(m, 0, strat).p_k
    assert st.f_k == exact_stats(m, 0, strat).f_k
    assert st.F_k == pytest.approx(st.f_k / st.p_k, abs=1e-15)


def test_rho2_pi_k1_is_tight(strat):
    for n in (2, 5, 8):
        st = exact_stats(rho2(n, math.pi), 1, strat)
        assert st.p_k == pytest.approx(1.0, abs=1e-10)
        assert st.F_k == pytest.approx(n / (n + 1), abs=1e-10)


def test_rho2_pi_k0(strat):
    # k = 0: accepted iff the odd copy is the leftover or passes its test
    n = 4
    st = exact_stats(rho2(n, math.pi), 0, strat)
    expected_p = (1 / (n + 1)) * 1.0 + (n / (n + 1)) * (1 / 3)
    assert st.p_k == pytest.approx(expected_p, abs=1e-10)
    expected_f = (n / (n + 1)) * (1 / 3)  # leftover is a singlet in those branches
    assert st.F_k == pytest.approx(expected_f / expected_p, abs=1e-10)


def test_f_never_exceeds_p(strat):
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = random_mixture(int(rng.integers(2, 7)), rng)
        k = int(rng.integers(0, m.num_systems - 1))
        st = exact_stats(m, k, strat)
        assert st.f_k <= st.p_k + 1e-12


def test_factorized_matches_bruteforce(strat):
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        sources = [
            honest_iid(n + 1, NoiseSpec(0.85)),
            rho1(n, NoiseSpec(0.9)),
            rho2(n, 2.0, NoiseSpec(0.95)),
            random_mixture(n, rng),
        ]
        for m in sources:
            for k in sorted({0, 1, n - 1}):
                if not 0 <= k <= n - 1:
                    continue
                fast = exact_stats(m, k, strat)
                slow = exact_stats_bruteforce(m, k, strat)
                assert abs(fast.p_k - slow.p_k) < 1e-12
                assert abs(fast.f_k - slow.f_k) < 1e-12


def test_permutation_invariance(strat):
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = random_mixture(n, rng)
        k = int(rng.integers(0, n))
        perm = rng.permutation(n + 1)
        permuted = ProductSequenceMixture(m.weights, m.palette, m.index[:, perm])
        a = exact_stats(m, k, strat)
        b = exact_stats(permuted, k, strat)
        assert a.p_k == pytest.approx(b.p_k, abs=1e-12)
        assert a.f_k == pytest.approx(b.f_k, abs=1e-12)


def test_random_fidelities_match_matrix_overlaps():
    # Same seed, same draws: the closed-form fidelities equal <S|s|S> of the
    # density matrices the helper builds, with the same weights and labels.
    picks = np.random.default_rng(12)
    target = phased_singlet(0.0)
    for seed in range(200):
        n = int(picks.integers(1, 13))
        weights, fid, labels = _random_fidelities(n, np.random.default_rng(seed))
        m, matrix_labels = random_mixture_and_labels(n, np.random.default_rng(seed))
        assert np.array_equal(weights, m.weights)
        assert np.max(np.abs(fid - m.tabulate(partial(overlap, target))[m.index])) <= 1e-15
        assert labels() == matrix_labels


def test_bruteforce_checks_homogeneity_identity(strat):
    # A strategy whose lambda disagrees with its Omega breaks
    # tr(Omega s) = lambda + nu F, which the factorized path relies on.
    broken = copy.copy(strat)
    object.__setattr__(broken, "lam", 0.3)
    object.__setattr__(broken, "nu", 0.7)
    with pytest.raises(NumericalConsistencyError, match="lambda \\+ nu F"):
        exact_stats_bruteforce(rho1(3), 1, broken)


def test_budget_enforced(strat):
    # Only the 2^N enumeration has a budget; the DP takes any N.
    with pytest.raises(ValueError, match="enumeration budget"):
        exact_stats_bruteforce(honest_iid(15), 0, strat)


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("phi", [math.pi, 2.0])
def test_rho2_k0_closed_form_at_paper_scale(strat, n, phi):
    # k = 0 accepts iff the rotated copy is the leftover or passes its test,
    # which it does with q = lambda + (1 - lambda) c, c = cos^2(phi / 2).
    c = math.cos(phi / 2.0) ** 2
    q = strat.lam + (1.0 - strat.lam) * c
    st = exact_stats(rho2(n, phi), 0, strat)
    assert st.p_k == pytest.approx((1.0 + n * q) / (n + 1), rel=0, abs=1e-12)
    assert st.F_k == pytest.approx(1.0 - (1.0 - c) / (1.0 + n * q), rel=0, abs=1e-14)


@pytest.mark.parametrize("lam", [0.1, 1 / 3, 0.9])
def test_row_stats_match_a_dp_per_leftover(lam):
    # Random tables with exact 0 and 1 entries mixed in, against a plain DP
    # over the other L - 1 systems for every leftover.
    rng = np.random.default_rng(int(lam * 1000))
    for _ in range(40):
        rows, length = int(rng.integers(1, 9)), int(rng.integers(2, 61))
        k = int(rng.integers(0, min(5, length - 2) + 1))
        fid = rng.random((rows, length))
        fid[rng.random((rows, length)) < 0.2] = 0.0
        fid[rng.random((rows, length)) < 0.2] = 1.0
        got = _row_stats(fid, k, lam)
        want = leftover_oracle.row_stats(fid, k, lam)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=0)


def test_exact_stats_memory_is_linear_in_the_table(strat):
    # The (B, L) fidelity table is 8 MB at N = 1000; the forward pass adds
    # O(B k) on top of it.
    m = rho2(1000, math.pi)
    tracemalloc.start()
    try:
        exact_stats(m, 5, strat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_exact_stats_two_system_mixed_source(strat):
    # smallest admissible sequence: one test on a maximally mixed copy
    m = ProductSequenceMixture([1.0], (maximally_mixed(),), np.zeros((1, 2), dtype=int))
    st = exact_stats(m, 0, strat)
    assert st.p_k == pytest.approx(0.5, abs=1e-12)
    assert st.F_k == pytest.approx(0.25, abs=1e-12)  # leftover stays I/4


def test_worst_case_scan_matches_analytic():
    step = 1.0 / (2000 - 1)
    for n, k, delta, lam in ((10, 0, 0.05, 1 / 3), (30, 2, 0.1, 1 / 3), (8, 1, 0.4, 0.25)):
        scan = sqsv_worst_case_scan(n, k, delta, lam, 2000)
        analytic = min(1.0, solve_J(n, k, delta) / (1.0 - lam))
        assert abs(scan - analytic) <= step + 1e-9


def test_oracle_check_sqsv_checks_the_shipped_certificate(monkeypatch, capsys):
    # A certificate loosened by 1% still obeys a restated formula; the scan
    # must be compared with what sqsv_certificate returns.
    from qsverify import cli

    assert cli.main(["oracle-check", "sqsv"]) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []
    certify = cli.sqsv_certificate

    def loosened(q):
        return Certificate(q, 0.99 * certify(q).fidelity_bound)

    monkeypatch.setattr(cli, "sqsv_certificate", loosened)
    assert cli.main(["oracle-check", "sqsv"]) == cli.EXIT_ORACLE_VIOLATION
    assert len(json.loads(capsys.readouterr().out)["violations"]) == 4


def test_worst_case_scan_example_value():
    scan = sqsv_worst_case_scan(10, 0, 0.05, 1 / 3, 4001)
    assert scan == pytest.approx(0.388299, abs=1.0 / 4000 + 1e-9)


def test_worst_case_scan_delta_one_is_zero():
    assert sqsv_worst_case_scan(10, 0, 1.0, 1 / 3, 1500) == 0.0


def test_worst_case_scan_rejects_small_grid():
    with pytest.raises(ValueError):
        sqsv_worst_case_scan(10, 0, 0.05, 1 / 3, 100)


def test_soundness_sweep_clean_and_structured(strat):
    rng = np.random.default_rng(10)
    report = dqsv_soundness_sweep(5, 1, 1 / 3, 300, rng)
    assert report["violations"] == []
    assert report["checked"] + report["skipped_degenerate"] == 300
    assert report["min_slack"] >= -1e-9
    assert "branches" in report["argmin"]


def test_soundness_known_sources(strat):
    # honest ideal: slack = 1 - bound >= 0 by construction
    m = honest_iid(6, NoiseSpec(1.0))
    st = exact_stats(m, 0, strat)
    bound = dqsv_certificate(
        CertificateQuery("dqsv", 5, 0, min(1.0, st.p_k), 1 / 3)
    ).fidelity_bound
    assert st.F_k >= bound - 1e-9
    # rotated-copy source at phi = pi is exactly tight at k = 1
    st = exact_stats(rho2(5, math.pi), 1, strat)
    bound = dqsv_certificate(
        CertificateQuery("dqsv", 5, 1, min(1.0, st.p_k), 1 / 3)
    ).fidelity_bound
    assert st.F_k == pytest.approx(bound, abs=1e-9)
    assert st.F_k >= bound - 1e-9


def test_soundness_sweep_is_pinned():
    # checked, skipped_degenerate, the argmin trial and min_slack of this
    # fixed-seed sweep as computed from 4x4 density matrices; the fidelity
    # draws must reproduce them.
    report = dqsv_soundness_sweep(8, 1, 1 / 3, 200, np.random.default_rng(2024))
    assert report["checked"] == 200
    assert report["skipped_degenerate"] == 0
    assert report["violations"] == []
    assert report["argmin"]["trial"] == 163
    assert report["min_slack"] == pytest.approx(0.06990814052444422, abs=1e-12)
    assert report["argmin"]["branches"][0] == {
        "weight": pytest.approx(0.6189704890195372, abs=1e-15),
        "states": "phi(3.0545,F=0.6955)|phi(1.0411,F=0.3086)|phi(6.0372,F=0.8460)|"
        "werner(0.6496)|werner(0.5469)|phi(3.9194,F=0.2641)|werner(0.9351)|"
        "phi(1.8999,F=0.2591)|phi(2.8476,F=0.8371)",
    }


def test_soundness_sweep_skips_sources_at_the_tail(monkeypatch):
    # One branch with every F = 0 passes each test with probability lambda, so
    # p_k is the IID tail B_{n,k}(1 - lambda) itself.  At (8, 1) the DP gives
    # that tail exactly and the trial is skipped as degenerate; at (6, 1) it
    # lands one ulp above the tail, so the trial is checked and the bound at
    # delta = p_k must not exceed F_k = 0.
    from qsverify import exact

    def all_orthogonal(n, rng):
        return np.ones(1), np.zeros((1, n + 1)), lambda: ["zeros"]

    monkeypatch.setattr(exact, "_random_fidelities", all_orthogonal)
    rng = np.random.default_rng(0)
    report = dqsv_soundness_sweep(8, 1, 1 / 3, 3, rng)
    assert report["skipped_degenerate"] == report["trials"] == 3
    assert report["checked"] == 0 and report["argmin"] is None
    tail = binom_tail(8, 1, 1.0 - 1 / 3)
    rows = exact._row_stats(np.zeros((1, 9)), 1, 1 / 3)
    assert exact._mixture_stats(np.ones(1), *rows).p_k == tail
    report = dqsv_soundness_sweep(6, 1, 1 / 3, 2, rng)
    assert report["checked"] == 2 and report["skipped_degenerate"] == 0
    assert report["argmin"]["p_k"] > binom_tail(6, 1, 1.0 - 1 / 3)
    assert report["argmin"]["F_k"] == 0.0
    assert report["min_slack"] >= -SWEEP_SLACK_TOL
    assert report["violations"] == []


def test_degenerate_sweep_draws_but_runs_no_forward_pass(monkeypatch):
    # At (100, 99) the tail B_{100,99}(1 - lambda) rounds to 1, so no p_k can
    # exceed it: every trial is skipped.  The sweep still draws each mixture,
    # leaving the generator where checking them would, but runs no DP.  At
    # (60, 59) the tail reads 1 - 2.7e-11 and the trials are evaluated.
    from qsverify import exact

    assert binom_tail(100, 99, 1.0 - 1 / 3) == 1.0
    assert binom_tail(60, 59, 1.0 - 1 / 3) < 1.0
    calls = []
    row_stats = exact._row_stats
    monkeypatch.setattr(exact, "_row_stats", lambda *a: calls.append(a) or row_stats(*a))
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    report = dqsv_soundness_sweep(100, 99, 1 / 3, 300, rng)
    assert calls == []
    assert report["checked"] == 0 and report["skipped_degenerate"] == 300
    for _ in range(300):
        _random_fidelities(100, twin)
    assert rng.bit_generator.state == twin.bit_generator.state
    dqsv_soundness_sweep(60, 59, 1 / 3, 5, rng)
    assert len(calls) == 1


@pytest.mark.parametrize("lam", [0.0, 1.0, 1.5, float("nan")])
def test_sweep_rejects_lambda_before_drawing(lam):
    rng = np.random.default_rng(13)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="lambda"):
        dqsv_soundness_sweep(4, 1, lam, 5, rng)
    assert rng.bit_generator.state == state


def test_sweep_budget():
    # The sweep enumerates nothing; k, lambda and its own limit on N bound it,
    # each checked before anything is drawn.
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError, match="k = 4"):
        dqsv_soundness_sweep(4, 4, 1 / 3, 1, rng)
    state = rng.bit_generator.state
    n = MAX_SWEEP_TESTS + 1
    with pytest.raises(ValueError, match=f"N = {n} exceeds the sweep limit of {MAX_SWEEP_TESTS}"):
        dqsv_soundness_sweep(n, 1, 1 / 3, 1, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n, k, trials", [(30, 2, 300), (100, 5, 200)])
def test_soundness_sweep_at_paper_scale(n, k, trials):
    report = dqsv_soundness_sweep(n, k, 1 / 3, trials, np.random.default_rng(n))
    assert report["checked"] + report["skipped_degenerate"] == trials
    assert report["checked"] > 0
    assert report["violations"] == []
    assert report["min_slack"] >= -SWEEP_SLACK_TOL


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda s: exact_stats(rho1(3), 3, s), "k = 3 outside [0, N - 1] for N = 3"),
        (lambda s: exact_stats(rho1(3), -1, s), "k = -1 outside [0, N - 1] for N = 3"),
        (lambda s: exact_stats_bruteforce(rho1(3), 3, s), "k = 3 outside [0, N - 1]"),
        (lambda s: exact_stats_bruteforce(rho1(3), -1, s), "k = -1 outside [0, N - 1]"),
        (lambda s: ExactStats(p_k=0.1, f_k=0.5, F_k=None),
         "need 0 <= f_k <= p_k, got f_k=0.5, p_k=0.1"),
    ],
    ids=["exact-k-above", "exact-k-below", "bruteforce-k-above", "bruteforce-k-below",
         "f-above-p"],
)
def test_refusals_state_their_reason(strat, build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(strat)
