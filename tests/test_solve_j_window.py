"""solve_J skips the bisection comparisons its decided window settles, or at
k = 0 reads the crossing of the one-term tail, and still returns the plain
bisection's bits.

``reference_bisection`` is the bisection solve_J ran before the window
existed, kept verbatim.  The cases are every (n, k, delta) that ``fig5_rows``
solves at its defaults, the SQSV rows of the benchmark's query tables (read
only), both Clopper-Pearson roots for every success count at the trial
counts of ``CP_TRIALS``, a few at the ``LARGE_TRIALS`` up to the end of
the tail contract, and k = 0 roots at the edges of the crossing's band and
drawn at random (``k0_cases``).
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
    NumericalConsistencyError,
    binom_tail,
    solve_J,
)
from qsverify.reproduce import default_fig5_grid, fig5_rows
from rational_oracle import binom_tail_highprec
from tail_contract import contract_error, kernel_sum_error, window_with_its_edge_error

QUERY_TABLES = sorted(
    (Path(__file__).resolve().parents[1] / "bench" / "data").glob("queries-*.csv")
)
CP_TRIALS = (1, 2, 10, 200, 800, 2000)
CP_ALPHA = 1.0 - 0.95
LARGE_TRIALS = {10**5: (1, 2500, 33_333), 10**6: (1, 2500, 333_333), 10**7: (3_333_333,)}
# k = 0 roots on both sides of each edge of _k0_crossing's band: n < 5 and
# n > _DIRECT_Z_MAX, delta at 2 _DIRECT_SUM_MIN and at _K0_DELTA_MAX.
K0_N = (4, 5, 12, 100, 101, 10**4, certificates.TAIL_ERROR_Z_MAX)
K0_DELTAS = (2.0 * certificates._DIRECT_SUM_MIN, certificates._K0_DELTA_MAX, 1e-250, 0.05, 0.3)


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


def k0_cases() -> set:
    """K0_N x K0_DELTAS with each delta's float neighbours, and 400 roots
    drawn with n log-uniform in [1, 10^7] and delta log-uniform in
    [1e-300, 1/2] or uniform in (0, 1)."""
    cases = {
        (n, 0, d)
        for n in K0_N
        for delta in K0_DELTAS
        for d in (math.nextafter(delta, 0.0), delta, math.nextafter(delta, 1.0))
    }
    rng = np.random.default_rng(31)
    for i in range(400):
        n = int(10 ** rng.uniform(0.0, 7.0))
        if i % 2:
            delta = float(rng.uniform(0.0, 1.0))
        else:
            delta = float(10 ** rng.uniform(-300.0, math.log10(0.5)))
        cases.add((n, 0, delta))
    return cases


def in_k0_band(n: int, k: int, delta: float) -> bool:
    """Where solve_J reads a root as the crossing of the one-term tail: k = 0,
    delta <= _K0_DELTA_MAX and n within the tail contract, with n >= 5 and
    delta >= 2 _DIRECT_SUM_MIN for the direct kernel."""
    if k != 0 or delta > certificates._K0_DELTA_MAX or n > certificates.TAIL_ERROR_Z_MAX:
        return False
    least = 2.0 * certificates._DIRECT_SUM_MIN
    return n > certificates._DIRECT_Z_MAX or (n >= 5 and delta >= least)


@pytest.fixture(scope="module")
def window_cases() -> list:
    """Every case but ``k0_cases``: the ones the window tests sample."""
    return sorted(
        fig5_cases() | query_table_cases() | clopper_pearson_cases() | large_trial_cases()
    )


@pytest.fixture(scope="module")
def solved(window_cases):
    """{(n, k, delta): (solve_J miss, its binom_tail calls, reference)}.

    A case's solve_J miss and its reference bisection share one memo of the
    pure binom_tail on (z, k, p).  Every call solve_J makes is counted, hit
    or miss, and the reference runs after it, so the count is solve_J's own.
    """
    cases = sorted(set(window_cases) | k0_cases())
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
    assert sum(in_k0_band(*case) for case in k0_cases()) > 250


def test_solve_j_equals_reference_bisection(solved):
    mismatches = [(case, x, ref) for case, (x, _, ref) in solved.items() if x != ref]
    assert mismatches == []


def test_solve_j_binom_tail_calls_per_miss(solved):
    # The plain bisection takes 55-59 calls per solve on this set; with the
    # measured relative contract the median solve took 13, with the derived
    # per-window error bounds 12, with the shape bound at the tangent's
    # edges 8, and with the k = 0 crossing 7.  Most cases here have k above
    # _MODEL_K_MAX (Clopper-Pearson roots at 2000 trials); on the rest the
    # float model's Newton start cut the median from 13 to 10, the shape
    # bound to 7 and the k = 0 crossing to 6.  The Clopper-Pearson roots at
    # 2000 trials took a mean of 11.86 calls before the shape bound and take
    # 7.57 with it.
    assert statistics.median(used for _, used, _ in solved.values()) <= 7
    modelled = [
        used for (_, k, _), (_, used, _) in solved.items() if k <= certificates._MODEL_K_MAX
    ]
    assert len(modelled) > 2000
    assert statistics.median(modelled) <= 6
    trials = [solved[root][1] for root in clopper_pearson_cases() if root[0] == 2000]
    assert len(trials) == 4000
    assert statistics.mean(trials) <= 7.6
    # At k = 0 in the band the crossing of the one-term tail takes two tail
    # sums where the start lies next to it, three where it starts one float
    # (direct sums: one run of equal 1 - x) off; the window and bisection
    # took 6-13, a median of 8.  Of these 821 roots 69 take 3 and one takes
    # 4: at (10^4, 0, 0.3) the tail reads exactly 0.3 at the two floats right
    # of the crossing, and the start lies one float beyond them.
    crossings = [used for case, (_, used, _) in solved.items() if in_k0_band(*case)]
    assert len(crossings) > 800
    assert statistics.median(crossings) <= 2
    assert statistics.mean(crossings) <= 2.1
    assert max(crossings) <= 4
    # One error bound per kernel, the direct one on either side, narrowed the
    # windows of direct roots: the SQSV rows of the query tables took a mean
    # of 4.519 (cert-scaling), 8.193 (exact-adversarial) and 9.227
    # (mc-correlated) fresh tail sums per root before it, and the 469 direct
    # roots outside the crossing's band 9.672.  Each bound is the count
    # measured with it, so a wider window shows here.
    most = {"cert-scaling": 4.513, "exact-adversarial": 8.178, "mc-correlated": 9.182}
    for path in QUERY_TABLES:
        with path.open(newline="") as fh:
            rows = {(int(row["n"]), int(row["k"]), float(row["delta"]))
                    for row in csv.DictReader(fh) if row["protocol"] == "sqsv"}
        mean = statistics.mean(solved[case][1] for case in rows)
        assert mean <= most[path.stem.removeprefix("queries-")], (path.name, mean)
    direct = [used for case, (_, used, _) in solved.items()
              if case[0] <= certificates._DIRECT_Z_MAX and not in_k0_band(*case)]
    assert len(direct) == 469
    assert statistics.mean(direct) <= 9.602


def test_window_edges_are_certified(solved, window_cases):
    # Three tail errors at delta: one for each edge's own tail, one for the
    # skipped midpoint's, and one for the second-order terms.  The Newton
    # phase's edges take the error of the side summed near delta; the
    # tangent's edges may take the smaller shape bound at x_s, and are then
    # kept only beyond it.
    for n, k, delta in window_cases[::37]:
        newton = certificates._window_margin(delta, certificates._window_error(n, delta))
        a, b, _, (error, keep_lo, keep_hi) = window_with_its_edge_error(n, k, delta)
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


def test_window_edges_meet_the_tail_contract(window_cases):
    # The skipped comparisons are decided only if binom_tail is within the
    # error the margin assumed of the true tail at the window edges
    # themselves: the direct kernel's derived bound on either side for
    # direct windows in its band, and the measured contract elsewhere; and
    # at an edge beyond x_s, the shape bound there, where the window took it.
    # Each kernel also meets its own derived bound on the side it sums.
    sample = window_cases[::53] + sorted(large_trial_cases())
    for n, k, delta in sample:
        a, b, _, (shaped, keep_lo, keep_hi) = window_with_its_edge_error(n, k, delta)
        for edge in (a, b):
            if 0.0 < edge < 1.0:
                tail = binom_tail(n, k, edge)
                exact = binom_tail_highprec(n, k, edge)
                side = (0, k) if tail <= 0.5 else (k + 1, n)
                error = min(certificates._window_error(n, delta), kernel_sum_error(n, *side))
                if keep_lo < edge < keep_hi:
                    error = min(error, shaped)
                allowed = contract_error(tail, exact, error)
                assert abs(tail - exact) <= allowed, (n, k, delta, edge)


def _behavioural_cases() -> list:
    """About 600 solves: n log-uniform in (100, 10^5] with delta log-uniform
    in [1e-300, 1/2) and uniform in (1/2, 0.99], both Clopper-Pearson roots
    at every 40th success count of 2000 trials, and direct windows, n
    uniform in [1, 100], where ``_window_error`` takes (n + 8) u: delta
    just above 2 _DIRECT_SUM_MIN, within 2^-20 of 1/2, and in (1/2, 1)."""
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
    cases += sorted(root for s in range(0, 2001, 40) for root in clopper_pearson_roots(2000, s))
    least = 2.0 * certificates._DIRECT_SUM_MIN
    rng = np.random.default_rng(32)
    for i in range(300):
        n = int(rng.integers(1, 101))
        k = int(rng.integers(0, n))
        if i % 3 == 0:
            delta = least * (1.0 + float(10 ** rng.uniform(-16.0, 0.0)))
        elif i % 3 == 1:
            delta = 0.5 + float(rng.uniform(-1.0, 1.0)) * 2.0**-20
        else:
            delta = float(rng.uniform(0.5, 1.0))
        cases.append((n, k, delta))
    return cases


def test_window_holds_the_root_and_decides_what_lies_outside():
    # The window must hold the 30-digit root, and the bisection's comparison
    # computed B(x) > delta must read true at the 16 floats up to a and false
    # at the 16 floats from b, as the margin argument claims.  This checks
    # the margin by its effect rather than by its formula.
    cases = _behavioural_cases()
    assert len(cases) == 600
    shaped = 0
    for n, k, delta in cases:
        a, b, _, (error, _, _) = window_with_its_edge_error(n, k, delta)
        shaped += error < certificates._window_error(n, delta)
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
    # are compared.)  A k = 0 crossing reads each float once, and the
    # residual check reads the tails of its pair.
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
    for case in sorted(query_table_cases() | clopper_pearson_roots(200, 37) | k0_cases()):
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


@pytest.mark.parametrize("n, edge", [(101, 2.0**-7), (1000, 2.0**-10), (10**7, 2.0**-23),
                                     (5, 0.5 + 2.0**-53)])
def test_k0_crossing_next_to_a_power_of_two(n, edge):
    # delta = B(edge) puts the crossing's hi at edge.  For anchored sums its
    # lo is the last float of the binade below, half an ulp of edge away;
    # for the direct sum at n = 5 it is 1/2, where the run of equal 1 - x
    # ends and the floats above 1/2 each have their own 1 - x.
    delta = binom_tail(n, 0, edge)
    lo, hi, tail_lo, tail_hi = certificates._k0_crossing(n, delta)
    assert (lo, hi) == (math.nextafter(edge, 0.0), edge)
    assert (tail_lo, tail_hi) == (binom_tail(n, 0, lo), delta)
    for d in (math.nextafter(delta, 0.0), delta, math.nextafter(delta, 1.0)):
        assert solve_J.__wrapped__(n, 0, d) == reference_bisection(n, 0, d), d


def test_k0_crossing_gives_way_to_the_window(monkeypatch):
    # Allowed no tail sum, the crossing search returns None, and every root
    # comes from the decided window and the bisection with the same bits.
    monkeypatch.setattr(certificates, "_K0_MAX_STEPS", 0)
    windows = []
    window = certificates._decided_window
    monkeypatch.setattr(
        certificates, "_decided_window", lambda *a: windows.append(a) or window(*a)
    )
    cases = sorted(case for case in k0_cases() if in_k0_band(*case))[::7]
    assert len(cases) > 40
    for n, k, delta in cases:
        assert certificates._k0_crossing(n, delta) is None
        assert solve_J.__wrapped__(n, k, delta) == reference_bisection(n, k, delta)
    assert len(windows) == len(cases)


def test_k0_crossing_band(monkeypatch):
    # The crossing is read where the window binom_tail sums near the root is
    # the one term (1 - x)^n, computed non-increasing in x, and every other
    # tail left of the root reads above 1/2 > delta.  Below _K0_DELTA_MAX
    # the median estimate (n + 0.4) x < 0.7 fails at and right of the
    # crossing, so the lower window is the one summed there; the search
    # still checks it at hi, and declines a crossing where it does not hold.
    top = certificates._K0_DELTA_MAX
    assert top < 0.5 and -math.log(top) > 0.7
    for n in (5, 100, 101, 10**4, certificates.TAIL_ERROR_Z_MAX):
        assert certificates._k0_crossing(n, top) is not None, n
        assert certificates._k0_crossing(n, math.nextafter(top, 1.0)) is None, n
    least = 2.0 * certificates._DIRECT_SUM_MIN
    assert certificates._k0_crossing(100, least) is not None
    assert certificates._k0_crossing(100, math.nextafter(least, 0.0)) is None
    assert certificates._k0_crossing(101, 1e-300) is not None
    assert certificates._k0_crossing(4, 0.05) is None
    assert certificates._k0_crossing(certificates.TAIL_ERROR_Z_MAX + 1, 0.05) is None
    monkeypatch.setattr(certificates, "_K0_DELTA_MAX", 0.99)
    for n, delta in [(5, 0.6), (12, 0.9), (101, 0.7), (10**4, 0.55), (10**7, 0.9)]:
        assert certificates._k0_crossing(n, delta) is None, (n, delta)
