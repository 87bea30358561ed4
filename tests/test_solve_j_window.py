"""solve_J skips the bisection comparisons its decided window settles, and
still returns the plain bisection's bits.

``reference_bisection`` is the bisection solve_J ran before the window
existed, kept verbatim.  The cases are every (n, k, delta) that ``fig5_rows``
solves at its defaults, the SQSV rows of the benchmark's query tables (read
only), both Clopper-Pearson roots for every success count at the trial
counts of ``CP_TRIALS`` and a few at the ``LARGE_TRIALS`` up to the end of
the tail contract.
"""

import csv
import statistics
from pathlib import Path

import pytest

from qsverify import certificates
from qsverify.certificates import (
    SOLVE_J_MAX_ITER,
    SOLVE_J_RESIDUAL_TOL,
    NumericalConsistencyError,
    binom_tail,
    solve_J,
)
from qsverify.reproduce import default_fig5_grid, fig5_rows
from rational_oracle import binom_tail_highprec
from tail_contract import contract_error

QUERY_TABLES = sorted(
    (Path(__file__).resolve().parents[1] / "bench" / "data").glob("queries-*.csv")
)
CP_TRIALS = (1, 2, 10, 200, 800, 2000)
CP_ALPHA = 1.0 - 0.95
LARGE_TRIALS = {10**5: (1, 2500, 33_333), 10**6: (1, 2500, 333_333), 10**7: (3_333_333,)}


def reference_bisection(n: int, k: int, delta: float) -> float:
    if k < 0 or n < k + 1:
        raise ValueError(f"need n >= k + 1 >= 1, got n = {n}, k = {k}")
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta = {delta} outside (0, 1]")
    if delta == 1.0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(SOLVE_J_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if binom_tail(n, k, mid) > delta:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    residual = abs(binom_tail(n, k, x) - delta)
    if residual > SOLVE_J_RESIDUAL_TOL:
        raise NumericalConsistencyError(
            f"bisection residual {residual} for B_{{{n},{k}}}(x) = {delta}"
        )
    return x


def fig5_cases() -> set:
    seen = set()

    def record(n, k, delta):
        seen.add((n, k, delta))
        return solve_J(n, k, delta)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(certificates, "solve_J", record)
        fig5_rows()
    return seen


def query_table_cases() -> set:
    cases = set()
    for path in QUERY_TABLES:
        with path.open(newline="") as fh:
            for row in csv.DictReader(fh):
                if row["protocol"] == "sqsv":
                    cases.add((int(row["n"]), int(row["k"]), float(row["delta"])))
    return cases


def clopper_pearson_roots(n: int, s: int) -> set:
    roots = set()
    if s > 0:
        roots.add((n, s - 1, 1.0 - CP_ALPHA / 2.0))
    if s < n:
        roots.add((n, s, CP_ALPHA / 2.0))
    return roots


def clopper_pearson_cases() -> set:
    return {root for n in CP_TRIALS for s in range(n + 1) for root in clopper_pearson_roots(n, s)}


def large_trial_cases() -> set:
    return {root for n, ss in LARGE_TRIALS.items() for s in ss for root in clopper_pearson_roots(n, s)}


@pytest.fixture(scope="module")
def solved():
    """{(n, k, delta): (solve_J miss, its binom_tail calls, reference)}.

    A case's solve_J miss and its reference bisection share one memo of the
    pure binom_tail on (z, k, p).  Every call solve_J makes is counted, hit
    or miss, and the reference runs after it, so the count is solve_J's own.
    """
    cases = sorted(
        fig5_cases() | query_table_cases() | clopper_pearson_cases() | large_trial_cases()
    )
    tail = binom_tail
    memo = {}
    calls = 0

    def memoized(z, k, p):
        if (z, k, p) not in memo:
            memo[z, k, p] = tail(z, k, p)
        return memo[z, k, p]

    def counted(z, k, p):
        nonlocal calls
        calls += 1
        return memoized(z, k, p)

    out = {}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(certificates, "binom_tail", counted)
        m.setitem(globals(), "binom_tail", memoized)
        for case in cases:
            memo.clear()
            calls = 0
            x = solve_J.__wrapped__(*case)
            out[case] = (x, calls, reference_bisection(*case))
    return out


def test_case_sets_are_populated():
    # fig5 solves at every grid point from N = 3 on.  Below that, every k gives
    # B_{N,k}(nu) > delta = 0.05 and the zero certificate, which skips solve_J.
    assert {n for n, _, _ in fig5_cases()} == {n for n in default_fig5_grid() if n >= 3}
    assert len(query_table_cases()) > 500
    assert len(clopper_pearson_cases()) == sum(2 * n for n in CP_TRIALS)
    assert max(n for n, _, _ in large_trial_cases()) == certificates.TAIL_ERROR_Z_MAX


def test_solve_j_equals_reference_bisection(solved):
    mismatches = [(case, x, ref) for case, (x, _, ref) in solved.items() if x != ref]
    assert mismatches == []


def test_solve_j_binom_tail_calls_per_miss(solved):
    # The plain bisection takes 55-59 calls per solve on this set; with the
    # relative tail contract the median solve takes 13.
    assert statistics.median(used for _, used, _ in solved.values()) <= 15


def test_window_edges_are_certified(solved):
    # Three contract errors at delta: one for each edge's own tail, one for
    # the skipped midpoint's, and one for the second-order terms.
    for n, k, delta in list(solved)[::37]:
        margin = certificates._window_margin(delta)
        a, b = certificates._decided_window(n, k, delta)
        x = solved[n, k, delta][0]
        assert 0.0 <= a < b <= 1.0
        assert a == 0.0 or binom_tail(n, k, a) > delta + margin
        assert b == 1.0 or binom_tail(n, k, b) < delta - margin
        assert a <= x <= b


def test_window_edges_meet_the_tail_contract(solved):
    # The skipped comparisons are decided only if binom_tail is within the
    # relative contract of the true tail at the window edges themselves.
    sample = list(solved)[::53] + sorted(large_trial_cases())
    for n, k, delta in sample:
        for edge in certificates._decided_window(n, k, delta):
            if 0.0 < edge < 1.0:
                tail = binom_tail(n, k, edge)
                exact = binom_tail_highprec(n, k, edge)
                assert abs(tail - exact) <= contract_error(tail, exact), (n, k, delta, edge)


def test_no_window_beyond_the_tail_contract():
    n = certificates.TAIL_ERROR_Z_MAX + 1
    assert certificates._decided_window(n, 3, 0.05) == (0.0, 1.0)
    assert solve_J(n, 3, 0.05) == reference_bisection(n, 3, 0.05)


def test_solve_j_at_subnormal_delta():
    # Below TAIL_ERROR_FLOOR the contract and the residual check are absolute.
    # (2000, 0, 1e-318) once failed a residual check relative to delta,
    # (20, 0, 1e-310) one that took the slope at the root's end of its float
    # step rather than the steeper end, and at (100, 3, 1e-310) the window's
    # tangent left [0, 1].
    for n, k in [(2000, 0), (1000, 10), (100, 3), (50, 0), (20, 0)]:
        for delta in (1e-310, 1e-318, 5e-324):
            assert solve_J(n, k, delta) == reference_bisection(n, k, delta), (n, k, delta)


def test_solve_j_evaluates_each_point_once(monkeypatch):
    # On interval exhaustion the root is an endpoint; when the bisection
    # evaluated it, the residual check reuses that tail.  (The Newton phase
    # of the window may land on the root too, so only the points after it
    # are compared.)
    points, start = [], []
    window = certificates._decided_window
    monkeypatch.setattr(
        certificates, "binom_tail", lambda z, k, p: points.append(p) or binom_tail(z, k, p)
    )

    def recorded(*args):
        edges = window(*args)
        start.append(len(points))
        return edges

    monkeypatch.setattr(certificates, "_decided_window", recorded)
    for case in sorted(query_table_cases() | clopper_pearson_roots(200, 37)):
        points.clear()
        start.clear()
        solve_J.__wrapped__(*case)
        after = points[start[0]:] if start else points
        assert len(after) == len(set(after)), case
