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
import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from qsverify import certificates
from qsverify.certificates import (
    SOLVE_J_MAX_ITER,
    SOLVE_J_RESIDUAL_TOL,
    TAIL_REL_ERROR,
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
    # measured relative contract the median solve took 13, with the derived
    # per-window error bounds 12, and with the shape bound at the tangent's
    # edges 8.  Most cases here have k above _MODEL_K_MAX (Clopper-Pearson
    # roots at 2000 trials); on the rest the float model's Newton start cut
    # the median from 13 to 10, and the shape bound to 7.  The
    # Clopper-Pearson roots at 2000 trials took a mean of 11.86 calls before
    # the shape bound and take 7.57 with it.
    assert statistics.median(used for _, used, _ in solved.values()) <= 8
    modelled = [
        used for (_, k, _), (_, used, _) in solved.items() if k <= certificates._MODEL_K_MAX
    ]
    assert len(modelled) > 2000
    assert statistics.median(modelled) <= 7
    trials = [solved[root][1] for root in clopper_pearson_cases() if root[0] == 2000]
    assert len(trials) == 4000
    assert statistics.mean(trials) <= 7.6


def _window_with_its_edge_error(n: int, k: int, delta: float):
    """(a, b, edge_error, keep_lo, keep_hi): the window, and what
    ``_edge_error`` gave for the edges placed at the tangent's root: their
    error bound and the open range in which they may be kept (the Newton
    phase's error and (0, 1) where the window did not ask)."""
    recorded = []
    edge_error = certificates._edge_error

    def record(*args):
        recorded.append(edge_error(*args))
        return recorded[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(certificates, "_edge_error", record)
        a, b = certificates._decided_window(n, k, delta)
    error, keep_lo, keep_hi = recorded[0] if recorded else (
        certificates._window_error(delta, n, k), 0.0, 1.0)
    return a, b, error, keep_lo, keep_hi


def test_window_edges_are_certified(solved):
    # Three tail errors at delta: one for each edge's own tail, one for the
    # skipped midpoint's, and one for the second-order terms.  The Newton
    # phase's edges take the error of the side summed near delta; the
    # tangent's edges may take the smaller shape bound at x_s, and are then
    # kept only beyond it.
    for n, k, delta in list(solved)[::37]:
        newton = certificates._window_margin(delta, certificates._window_error(delta, n, k))
        a, b, error, keep_lo, keep_hi = _window_with_its_edge_error(n, k, delta)
        shaped = certificates._window_margin(delta, error)
        assert shaped <= newton
        x = solved[n, k, delta][0]
        assert 0.0 <= a < b <= 1.0
        if a > 0.0:
            tail = binom_tail(n, k, a)
            assert tail > delta + newton or (tail > delta + shaped and keep_lo < a < keep_hi), (n, k, delta)
        if b < 1.0:
            tail = binom_tail(n, k, b)
            assert tail < delta - newton or (tail < delta - shaped and keep_lo < b < keep_hi), (n, k, delta)
        assert a <= x <= b


def test_window_edges_meet_the_tail_contract(solved):
    # The skipped comparisons are decided only if binom_tail is within the
    # error the margin assumed of the true tail at the window edges
    # themselves: the derived bound of the side it returns there, where that
    # is below TAIL_REL_ERROR, and the measured contract elsewhere; and at an
    # edge beyond x_s, the shape bound there, where the window took it.
    sample = list(solved)[::53] + sorted(large_trial_cases())
    for n, k, delta in sample:
        a, b, shaped, keep_lo, keep_hi = _window_with_its_edge_error(n, k, delta)
        for edge in (a, b):
            if 0.0 < edge < 1.0:
                tail = binom_tail(n, k, edge)
                exact = binom_tail_highprec(n, k, edge)
                side = (0, k) if tail <= 0.5 else (k + 1, n)
                error = min(TAIL_REL_ERROR, certificates._window_sum_error(n, *side))
                if keep_lo < edge < keep_hi:
                    error = min(error, shaped)
                allowed = contract_error(tail, exact, error)
                assert abs(tail - exact) <= allowed, (n, k, delta, edge)


def _behavioural_cases() -> list:
    """About 300 solves: n log-uniform in (100, 10^5] with delta log-uniform
    in [1e-300, 1/2) and uniform in (1/2, 0.99], and both Clopper-Pearson
    roots at every 40th success count of 2000 trials."""
    rng = np.random.default_rng(28)
    cases = []
    for i in range(200):
        n = int(10 ** rng.uniform(2.0, 5.0)) + 1
        k = int(rng.integers(0, n))
        if i % 2:
            delta = float(rng.uniform(0.5, 0.99))
        else:
            delta = float(10 ** rng.uniform(-300.0, math.log10(0.5)))
        cases.append((n, k, delta))
    return cases + sorted(
        root for s in range(0, 2001, 40) for root in clopper_pearson_roots(2000, s)
    )


def test_window_holds_the_root_and_decides_what_lies_outside():
    # The window must hold the 50-digit root, and the bisection's comparison
    # computed B(x) > delta must read true at the 16 floats up to a and false
    # at the 16 floats from b, as the margin argument claims.  This checks
    # the margin by its effect rather than by its formula.
    cases = _behavioural_cases()
    assert len(cases) == 300
    shaped = 0
    for n, k, delta in cases:
        a, b, error, *_ = _window_with_its_edge_error(n, k, delta)
        shaped += error < certificates._window_error(delta, n, k)
        if a > 0.0:
            assert binom_tail_highprec(n, k, a, dps=30) > delta, (n, k, delta)
        if b < 1.0:
            assert binom_tail_highprec(n, k, b, dps=30) < delta, (n, k, delta)
        x = a
        for _ in range(16):
            if x <= 0.0:
                break
            assert binom_tail(n, k, x) > delta, (n, k, delta, x)
            x = math.nextafter(x, 0.0)
        x = b
        for _ in range(16):
            if x >= 1.0:
                break
            assert not binom_tail(n, k, x) > delta, (n, k, delta, x)
            x = math.nextafter(x, 1.0)
    assert shaped > 200


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


def test_window_next_to_a_steep_root(monkeypatch):
    # Next to the root 0x1.fff01fa1eb7a0p-1 one float step moves the tail by
    # more than the margin, so the tangent's edges round onto the root; each
    # edge is placed at least one float beyond it, and the window is the two
    # floats around the root.
    points = []
    monkeypatch.setattr(
        certificates, "binom_tail", lambda z, k, p: points.append(p) or binom_tail(z, k, p)
    )
    x = solve_J.__wrapped__(2000, 1998, 0.025)
    assert x == float.fromhex("0x1.fff01fa1eb7a0p-1")
    assert len(points) == 8
    assert x == reference_bisection(2000, 1998, 0.025)
    a, b = certificates._decided_window(2000, 1998, 0.025)
    assert (a, b) == (math.nextafter(x, 0.0), math.nextafter(x, 1.0))


@pytest.mark.parametrize(
    "case, root",
    [
        ((31, 2, 3.6e-175), float.fromhex("0x1.ffffe5ca36266p-1")),
        ((26, 8, 1.44e-291), 1.0),
    ],
)
def test_roots_next_to_one_at_tiny_delta(monkeypatch, case, root):
    # From the normal approximation, Newton on log B overshot past 1 and the
    # safeguard halved 1 - x once per call: 24 and 49 calls.  The float
    # model's Newton runs in log(1 - x), where log B is nearly linear; the
    # second root lies beyond the largest float below 1, where the model
    # starts instead.
    points = []
    monkeypatch.setattr(
        certificates, "binom_tail", lambda z, k, p: points.append(p) or binom_tail(z, k, p)
    )
    x = solve_J.__wrapped__(*case)
    assert x == root
    assert len(points) <= 4
    assert x == reference_bisection(*case)


@pytest.mark.parametrize(
    "case",
    [
        (3, 2, 3.9748763691200386e-07),
        (5, 0, 8.845007366153016e-11),
        (19, 11, 2.7717184586937406e-06),
    ],
)
def test_window_at_float_resolution(case):
    # Roots near 1 where one float step moves the tail by about the margin or
    # more.  At (3, 2) the Newton phase stops once its step rounds to
    # nothing; at (19, 11) the left edge, rounded too near the root to
    # certify, is tried once more twice as far out.  Each window is then a
    # few floats wide.
    x = solve_J.__wrapped__(*case)
    assert x == reference_bisection(*case)
    a, b = certificates._decided_window(*case)
    assert a <= x <= b
    assert (b - a) / math.ulp(x) <= 4


@pytest.mark.parametrize(
    "case",
    [(50, 2, 0.05), (200, 10, 0.3), (1000, 3, 1e-6), (2000, 100, 0.9), (31, 2, 3.6e-175)],
)
def test_solve_j_where_the_float_model_gives_up(monkeypatch, case):
    # Allowed one Newton step, the float model stops short of its root and
    # returns its start; the window's Newton phase then starts from the
    # normal approximation, and the root keeps the plain bisection's bits.
    starts = []
    model = certificates._model_root

    def recorded(n, k, delta, x):
        starts.append(x)
        return model(n, k, delta, x)

    monkeypatch.setattr(certificates, "_MODEL_MAX_STEPS", 1)
    monkeypatch.setattr(certificates, "_model_root", recorded)
    assert solve_J.__wrapped__(*case) == reference_bisection(*case)
    assert len(starts) == 1
    assert model(*case, starts[0]) == starts[0]
