"""The derived error bounds of the two window-sum kernels hold.

``_decided_window`` sizes its margin from ``_window_error``: the direct
kernel's (z + 8) u, u = 2^-53, derived in advance from the operations it
performs (see its docstring), for z <= _DIRECT_Z_MAX and delta >=
2 _DIRECT_SUM_MIN, and the measured TAIL_REL_ERROR elsewhere.  Its last two
edges may take ``_edge_error``, the anchored kernel's error bound on a
window pinned at its end, from the log-concave shape of the terms.  Here
every sum is compared with a 50-digit window oracle: the direct kernel
(with its anchored redo of tiny sums) against (z + 8) u, the anchored
kernel at every z against its own derived bound, on which the measured
contract rests (``tail_contract.anchored_sum_error``), and next to the
solver's roots against ``_edge_error``.  The bounds are relative, and
absolute, times TAIL_ERROR_FLOOR, below the floor.
"""

import csv
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from qsverify import certificates
from qsverify.certificates import (
    TAIL_ERROR_FLOOR,
    TAIL_REL_ERROR,
    _DIRECT_SUM_MIN,
    _DIRECT_Z_MAX,
    _SHAPE_OFFSET,
    solve_J,
)
from rational_oracle import window_sum_highprec
from tail_contract import (
    anchored_sum_error,
    contract_grid,
    kernel_sum_error,
    window_with_its_edge_error,
)

CERT_SCALING_QUERIES = (
    Path(__file__).resolve().parents[1] / "bench" / "data" / "queries-cert-scaling.csv"
)
CP_ALPHA = 1.0 - 0.95
U = 2.0**-53


def _direct_bound(z: int, lo: int, hi: int, want) -> float:
    """``_window_error``'s direct bound, (z + 8) u, for a window that sums
    to at least 2 _DIRECT_SUM_MIN, whose direct total is never redone;
    below that a total under _DIRECT_SUM_MIN is redone the anchored way,
    and the larger of the two kernels' bounds holds."""
    if want >= 2 * _DIRECT_SUM_MIN:
        return certificates._window_error(z, float(want))
    return kernel_sum_error(z, lo, hi)


def _random_p(rng) -> float:
    """p = u^e or 1 - u^e, so tails span many orders of magnitude."""
    u = float(rng.uniform()) ** int(rng.integers(1, 40))
    return u if rng.uniform() < 0.5 else 1.0 - u


def _random_windows(seed: int, count: int, z_max: int):
    """(z, lo, hi, p): lower tails, complements and random windows in turn."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        z = int(10 ** rng.uniform(0, math.log10(z_max)))
        p = _random_p(rng)
        if p in (0.0, 1.0):
            continue
        k = int(rng.integers(0, z))
        if i % 3 == 0:
            yield z, 0, k, p
        elif i % 3 == 1:
            yield z, k + 1, z, p
        else:
            lo, hi = sorted(int(v) for v in rng.integers(0, z + 1, size=2))
            yield z, lo, hi, p


def _grid_windows():
    """Both windows at every contract-grid point up to z = 10^4, which holds
    every point with a tail of 1e-30, 1e-100 or 1e-300, where the anchored
    bound is below TAIL_REL_ERROR (every direct window)."""
    for z, k, p in contract_grid():
        for lo, hi in ((0, k), (k + 1, z)):
            if z <= 10**4 and anchored_sum_error(z, lo, hi) < TAIL_REL_ERROR:
                yield z, lo, hi, p


def _pinned_solves():
    """(n, k, delta) of the solves whose last two edges may take the shape
    bound: the SQSV roots below 1/2 with n > _DIRECT_Z_MAX of the
    benchmark's cert-scaling query table (read only), which sum the lower
    window [0, k] there, and the lower Clopper-Pearson roots,
    B_{n,s-1}(x) = 1 - alpha/2, at every tenth s of 2000 trials and every
    5000th of 10^5, which sum the complement [s, n]; on the larger windows
    of 10^5 trials the mean term lies far from the anchor."""
    with CERT_SCALING_QUERIES.open(newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["protocol"] == "sqsv"]
    for row in rows:
        n, k, delta = int(row["n"]), int(row["k"]), float(row["delta"])
        if n > _DIRECT_Z_MAX and delta < 0.5:
            yield n, k, delta
    for n, step in ((2000, 10), (10**5, 5000)):
        for s in range(1, n + 1, step):
            yield n, s - 1, 1.0 - CP_ALPHA / 2.0


def _summed_window(n: int, k: int, delta: float) -> tuple[int, int]:
    """The window binom_tail sums next to the root: [0, k] below 1/2, else [k + 1, n]."""
    return (0, k) if delta < 0.5 else (k + 1, n)


def _distance(delta: float):
    """x's distance from the end x_s lies towards: 0 below 1/2, 1 above."""
    return (lambda x: x) if delta < 0.5 else (lambda x: 1.0 - x)


def _x_s(delta: float, root: float) -> float:
    """_SHAPE_OFFSET of the root's distance from 0 (from 1 above 1/2) inside it."""
    dist = _distance(delta)
    return dist(dist(root) - _SHAPE_OFFSET * dist(root))


def _ratio(got: float, want, bound: float) -> float:
    """|got - want| over the derived bound, relative above the floor."""
    return float(abs(mp.mpf(got) - want)) / (bound * max(float(want), TAIL_ERROR_FLOOR))


def _worst(windows, kernel, bound) -> float:
    """The largest ratio of a window's error to bound(z, lo, hi, exact sum)."""
    worst = 0.0
    for z, lo, hi, p in windows:
        want = window_sum_highprec(z, lo, hi, p)
        ratio = _ratio(kernel(z, lo, hi, p), want, bound(z, lo, hi, want))
        assert ratio <= 1.0, (z, lo, hi, p, ratio)
        worst = max(worst, ratio)
    return worst


def _direct(windows):
    return [w for w in windows if w[0] <= _DIRECT_Z_MAX]


@pytest.mark.parametrize(
    "windows",
    [
        pytest.param(lambda: _random_windows(31, 3000, _DIRECT_Z_MAX + 1), id="random"),
        pytest.param(lambda: _direct(_grid_windows()), id="contract-grid"),
    ],
)
def test_direct_window_sums_meet_their_derived_bound(windows):
    worst = _worst(windows(), certificates._direct_window_sum, _direct_bound)
    # The rounding of 1 - p makes the bound nearly tight at z = 100.
    assert worst > 0.25


@pytest.mark.parametrize(
    "windows",
    [
        pytest.param(lambda: _random_windows(32, 600, _DIRECT_Z_MAX + 1), id="random-small"),
        pytest.param(lambda: _random_windows(33, 600, 10**5), id="random-large"),
        pytest.param(_grid_windows, id="contract-grid"),
    ],
)
def test_anchored_window_sums_meet_their_derived_bound(windows):
    _worst(windows(), certificates._anchored_window_sum,
           lambda z, lo, hi, want: anchored_sum_error(z, lo, hi))


def test_anchored_sums_next_to_the_roots_meet_their_edge_error():
    # The summed window at x_s, at the tangent's root and at each edge the
    # window kept are within the e_s _edge_error returned, which is the
    # shape bound wherever it is below the Newton phase's error.
    shaped = 0
    for n, k, delta in _pinned_solves():
        a, b, root, (error, keep_lo, keep_hi) = window_with_its_edge_error(n, k, delta)
        shaped += error < certificates._window_error(n, delta)
        points = [_x_s(delta, root), root]
        points += [edge for edge in (a, b) if keep_lo < edge < keep_hi and 0.0 < edge < 1.0]
        lo, hi = _summed_window(n, k, delta)
        for p in points:
            got = certificates._anchored_window_sum(n, lo, hi, p)
            want = window_sum_highprec(n, lo, hi, p)
            assert _ratio(got, want, error) <= 1.0, (n, k, delta, p)
    assert shaped > 400


def test_shape_bound_is_tighter_next_to_the_roots():
    # The anchor is pinned at the window's end and its one ratio is below 1,
    # so the bound is below the kernel's on every window of three terms or
    # more (for one term it is u above it, and the kernel's is kept).
    solves = list(_pinned_solves())
    assert len(solves) > 500
    for n, k, delta in solves:
        lo, hi = _summed_window(n, k, delta)
        kernel = anchored_sum_error(n, lo, hi)
        shape, *_ = certificates._edge_error(n, k, delta, solve_J(n, k, delta), kernel)
        assert shape <= kernel
        if hi - lo >= 2:
            assert shape < kernel, (n, k, delta)


def test_window_error_is_one_bound_per_kernel():
    # (n + 8) u for a direct window at delta >= 2 _DIRECT_SUM_MIN, on either
    # side binom_tail returns: below 1/2, within 2^-20 of it and above it.
    # Below that delta a tail sum may be redone anchored, and above
    # _DIRECT_Z_MAX every sum is: the measured TAIL_REL_ERROR there.
    least = 2.0 * _DIRECT_SUM_MIN
    for n in (1, 12, 80, 100):
        for delta in (least, 0.05, 0.5 - 2.0**-21, 0.5, 0.5 + 2.0**-21, 0.9, 1.0):
            assert certificates._window_error(n, delta) == (n + 8) * U, (n, delta)
        for delta in (math.nextafter(least, 0.0), 1e-300, 5e-324):
            assert certificates._window_error(n, delta) == TAIL_REL_ERROR, (n, delta)
    for n in (101, 5000, 10**7):
        for delta in (5e-324, 1e-300, least, 0.05, 0.5, 0.9):
            assert certificates._window_error(n, delta) == TAIL_REL_ERROR, (n, delta)


def test_window_margin_takes_the_side_binom_tail_returns():
    # Three errors at delta: relative to delta (to TAIL_ERROR_FLOOR below it)
    # where the lower window is returned, and to 1 - delta plus the u of one
    # minus the complement above 1/2.
    margin = certificates._window_margin
    for error in ((80 + 8) * U, TAIL_REL_ERROR):
        assert margin(0.05, error) == 3.0 * error * 0.05
        assert margin(0.5, error) == 3.0 * error * 0.5
        assert margin(0.9, error) == 3.0 * (error * (1.0 - 0.9) + U)
        assert margin(1e-310, error) == 3.0 * error * TAIL_ERROR_FLOOR


def _edge_error(n: int, k: int, delta: float, root: float):
    """(e_s, keep_lo, keep_hi): ``_edge_error`` at the Newton phase's error."""
    newton = certificates._window_error(n, delta)
    return certificates._edge_error(n, k, delta, root, newton)


def test_edge_error_takes_the_shape_of_the_side_binom_tail_returns():
    # The edges at the tangent's root r: the shape bound of the summed window
    # at x_s = r (1 - 2^-20), pinned at its end j with first ratio rho < 1,
    # (2 rho / (1 - rho) + 4) u + (n + 1) 1e-22; above 1/2 the complement is
    # the lower window of B_{n,n-k-1}(1 - x).  An edge is kept only 2^-21 of
    # its distance beyond x_s.
    n, k = 5000, 30
    for delta, j in ((0.05, k), (0.975, n - k - 1)):
        root = solve_J(n, k, delta)
        dist = _distance(delta)
        x_s = _x_s(delta, root)
        x = Fraction(x_s) if delta < 0.5 else 1 - Fraction(x_s)  # in lower-window terms
        rho = math.nextafter(float(j * (1 - x) / ((n - j + 1) * x)), math.inf)
        shape = (2.0 * rho / (1.0 - rho) + 4.0) * 2.0**-53 + (n + 1) * 1e-22
        newton = certificates._window_error(n, delta)
        error, keep_lo, keep_hi = _edge_error(n, k, delta, root)
        kept = lambda x: keep_lo < x < keep_hi
        assert rho < 1.0 and error == shape < newton
        assert kept(root) and not kept(x_s)
        assert kept(dist(dist(root) - 0.4 * _SHAPE_OFFSET * dist(root)))
        assert not kept(dist(dist(root) - 0.6 * _SHAPE_OFFSET * dist(root)))


def test_shape_bound_falls_back_to_the_kernel_bound():
    # z = 199 at x_s = 1/2: (z + 1) x_s = 100, so term 100 ties with term 99
    # and the window [0, 100] has rho = 1, while [0, 99] is pinned below it.
    n, k = 5000, 30
    tie = 0.5 / (1.0 - _SHAPE_OFFSET)
    assert _x_s(0.05, tie) == 0.5
    assert _edge_error(199, 99, 0.05, tie)[0] < certificates._window_error(199, 0.05)
    # Elsewhere the Newton phase's error, and (0, 1) keeps every edge: direct sums,
    # delta below 2^-900, within _SIDE_GUARD of 1/2 or of 1, an anchor that
    # would move (a root whose mode lies below k), a tie at the mode, and
    # windows of one term, whose shape bound is never the smaller.
    cases = [
        (100, 3, 0.05, solve_J(100, 3, 0.05)),
        (n, 0, 0.05, solve_J(n, 0, 0.05)),
        (n, n - 1, 0.975, solve_J(n, n - 1, 0.975)),
        (n, k, 2.0**-901, solve_J(n, k, 2.0**-901)),
        (n, k, 0.5 - 2.0**-21, solve_J(n, k, 0.5 - 2.0**-21)),
        (n, k, 0.5 + 2.0**-21, solve_J(n, k, 0.5 + 2.0**-21)),
        (n, k, 1.0 - 2.0**-21, solve_J(n, k, 1.0 - 2.0**-21)),
        (n, k, 0.05, 0.5 * k / (n + 1)),
        (n, k, 0.975, 2.0 * (k + 2) / (n + 1)),
        (199, 100, 0.05, tie),
    ]
    for n, k, delta, root in cases:
        newton = certificates._window_error(n, delta)
        assert _edge_error(n, k, delta, root) == (newton, 0.0, 1.0), (n, k, delta)
