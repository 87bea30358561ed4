"""The derived error bounds of the two window-sum kernels hold.

``_decided_window`` sizes its margin from ``_window_sum_error``, the error
of the window sums ``binom_tail`` makes, derived in advance from the
operations each kernel performs (see its docstring), wherever that is below
the measured TAIL_REL_ERROR, and its last two edges from ``_shape_error``,
the anchored kernel's error bound from the log-concave shape of the terms.
Here every sum is compared with a 50-digit window oracle: the direct kernel
(z <= _DIRECT_Z_MAX, with its anchored redo of tiny sums) against
``_window_sum_error``, the anchored kernel at every z against
``_anchored_sum_error`` and ``_shape_error``.  The bounds are relative, and
absolute, times TAIL_ERROR_FLOOR, below the floor.
"""

import csv
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from qsverify import certificates
from qsverify.certificates import (
    TAIL_ERROR_FLOOR,
    TAIL_REL_ERROR,
    _DIRECT_Z_MAX,
    _SHAPE_OFFSET,
    solve_J,
)
from rational_oracle import window_sum_highprec
from tail_contract import contract_grid

CERT_SCALING_QUERIES = (
    Path(__file__).resolve().parents[1] / "bench" / "data" / "queries-cert-scaling.csv"
)
CP_ALPHA = 1.0 - 0.95


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
    every point with a tail of 1e-30, 1e-100 or 1e-300, where the window's
    bound is one the margin can use: below TAIL_REL_ERROR."""
    for z, k, p in contract_grid():
        for lo, hi in ((0, k), (k + 1, z)):
            if z <= 10**4 and certificates._window_sum_error(z, lo, hi) < TAIL_REL_ERROR:
                yield z, lo, hi, p


def _mode(z: int, p: float) -> int:
    p_num, p_den = p.as_integer_ratio()
    return (z + 1) * p_num // p_den


def _pinned_windows():
    """The windows the solver sums next to its roots where ``_decided_window``
    takes the shape bound, each at the root and at x_s, where the anchor is
    pinned at the window's end: the lower window [0, k] at the SQSV roots
    below 1/2 of the benchmark's cert-scaling query table (read only), and
    the complement [k + 1, n] at the lower Clopper-Pearson roots of 2000
    trials, B_{2000,s-1}(x) = 1 - alpha/2, at every tenth s."""
    with CERT_SCALING_QUERIES.open(newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["protocol"] == "sqsv"]
    for row in rows:
        n, k, delta = int(row["n"]), int(row["k"]), float(row["delta"])
        if n > _DIRECT_Z_MAX and delta < 0.5:
            x = solve_J(n, k, delta)
            for p in (x, x - _SHAPE_OFFSET * x):
                if 0.0 < p < 1.0 and _mode(n, p) >= k:
                    yield n, 0, k, p
    for s in range(1, 2001, 10):
        x = solve_J(2000, s - 1, 1.0 - CP_ALPHA / 2.0)
        for p in (x, 1.0 - (1.0 - x) * (1.0 - _SHAPE_OFFSET)):
            if 0.0 < p < 1.0 and _mode(2000, p) <= s:
                yield 2000, s, 2000, p


def _ratio(got: float, z: int, lo: int, hi: int, p: float, bound: float) -> float:
    """|got - exact| over the derived bound, relative above the floor."""
    want = window_sum_highprec(z, lo, hi, p)
    return float(abs(mp.mpf(got) - want)) / (bound * max(float(want), TAIL_ERROR_FLOOR))


def _worst(windows, kernel, bound) -> float:
    """The largest ratio of a window's error to bound(z, lo, hi, p)."""
    worst = 0.0
    for z, lo, hi, p in windows:
        ratio = _ratio(kernel(z, lo, hi, p), z, lo, hi, p, bound(z, lo, hi, p))
        assert ratio <= 1.0, (z, lo, hi, p, ratio)
        worst = max(worst, ratio)
    return worst


def _of_window(bound):
    """A bound of (z, lo, hi) read as one of (z, lo, hi, p)."""
    return lambda z, lo, hi, p: bound(z, lo, hi)


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
    worst = _worst(
        windows(), certificates._direct_window_sum, _of_window(certificates._window_sum_error)
    )
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
    _worst(
        windows(), certificates._anchored_window_sum, _of_window(certificates._anchored_sum_error)
    )


@pytest.mark.parametrize(
    "windows",
    [
        pytest.param(lambda: _random_windows(32, 600, _DIRECT_Z_MAX + 1), id="random-small"),
        pytest.param(lambda: _random_windows(33, 600, 10**5), id="random-large"),
        pytest.param(_grid_windows, id="contract-grid"),
        pytest.param(_pinned_windows, id="pinned-next-to-roots"),
    ],
)
def test_anchored_window_sums_meet_their_shape_bound(windows):
    _worst(windows(), certificates._anchored_window_sum, certificates._shape_error)


def test_shape_bound_is_tighter_next_to_the_roots():
    # The anchor is pinned at the window's end and its one ratio is below 1,
    # so the bound is below the kernel's on every window of three terms or
    # more (for one term it is u above it, and capped).
    windows = list(_pinned_windows())
    assert len(windows) > 1000
    for z, lo, hi, p in windows:
        shape, kernel = certificates._shape_error(z, lo, hi, p), certificates._window_sum_error(z, lo, hi)
        assert shape <= kernel
        if hi - lo >= 2:
            assert shape < kernel, (z, lo, hi, p)


def test_shape_bound_falls_back_to_the_kernel_bound():
    # Direct sums, and a tie at the mode, where the first ratio below the
    # anchor is 1 and the geometric bound says nothing.
    for z, lo, hi, p in ((100, 0, 50, 0.3), (100, 60, 100, 0.3), (50, 0, 0, 1e-9)):
        assert certificates._shape_error(z, lo, hi, p) == certificates._window_sum_error(z, lo, hi)
    z = 199  # (z + 1) p = 100, so the anchor 100 is tied with term 99
    assert certificates._shape_error(z, 0, 150, 0.5) == certificates._window_sum_error(z, 0, 150)
    assert certificates._shape_error(z, 0, 100, 0.5) == certificates._window_sum_error(z, 0, 100)
    assert certificates._shape_error(z, 0, 99, 0.5) < certificates._window_sum_error(z, 0, 99)


def test_window_sum_error_is_the_bound_of_the_kernel_in_use():
    u = 2.0**-53
    assert certificates._window_sum_error(100, 0, 0) == 108 * u
    for z, lo, hi in ((100, 0, 99), (101, 0, 0)):
        assert certificates._window_sum_error(z, lo, hi) == certificates._anchored_sum_error(z, lo, hi)
    assert certificates._anchored_sum_error(10**5, 0, 3) == 9 * u + (10**5 + 1) * 1e-22


def test_window_margin_takes_the_side_binom_tail_returns():
    # The Newton phase: below 1/2 the lower window's bound, above it the
    # complement's, and near 1/2 the larger of both; TAIL_REL_ERROR caps each
    # where it is tighter.  The margin is three of those errors at delta.
    n, k = 5000, 3
    lower = certificates._window_sum_error(n, 0, k)
    upper = min(TAIL_REL_ERROR, certificates._window_sum_error(n, k + 1, n))
    assert lower < upper == TAIL_REL_ERROR
    assert certificates._window_error(0.05, n, k) == lower
    assert certificates._window_error(0.5, n, k) == upper
    assert certificates._window_error(0.9, n, k) == upper
    assert certificates._window_error(1e-310, n, k) == lower
    margin = certificates._window_margin
    assert margin(0.05, lower) == 3.0 * lower * 0.05
    assert margin(0.5, upper) == 3.0 * upper * 0.5
    assert margin(0.9, upper) == 3.0 * (upper * (1.0 - 0.9) + 2.0**-53)
    assert margin(1e-310, lower) == 3.0 * lower * TAIL_ERROR_FLOOR
    n, k = 80, 75  # direct sums; the complement's bound is the smaller one here
    assert certificates._window_error(0.9, n, k) == 88 * 2.0**-53
    assert margin(0.9, 88 * 2.0**-53) == 3.0 * (88 * 2.0**-53 * (1.0 - 0.9) + 2.0**-53)


def _edge_error(n: int, k: int, delta: float, root: float):
    """(e_s, keep_lo, keep_hi): ``_edge_error`` at the Newton phase's error."""
    newton = certificates._window_error(delta, n, k)
    return certificates._edge_error(n, k, delta, root, newton)


def test_edge_error_takes_the_shape_of_the_side_binom_tail_returns():
    # The edges at the tangent's root r: the shape bound of the summed window
    # at x_s = r (1 - 2^-20), mirrored in 1 - x above 1/2, where its anchor
    # stays pinned; an edge is kept only 2^-21 of its distance beyond x_s.
    n, k = 5000, 30
    for delta, side in ((0.05, (0, k)), (0.975, (k + 1, n))):
        root = solve_J(n, k, delta)
        dist = (lambda x: x) if delta < 0.5 else (lambda x: 1.0 - x)
        x_s = dist(dist(root) - _SHAPE_OFFSET * dist(root))
        newton = certificates._window_error(delta, n, k)
        error, keep_lo, keep_hi = _edge_error(n, k, delta, root)
        kept = lambda x: keep_lo < x < keep_hi
        assert error == min(newton, certificates._shape_error(n, *side, x_s)) < newton
        assert kept(root) and not kept(x_s)
        assert kept(dist(dist(root) - 0.4 * _SHAPE_OFFSET * dist(root)))
        assert not kept(dist(dist(root) - 0.6 * _SHAPE_OFFSET * dist(root)))
    # Elsewhere the Newton phase's error, and (0, 1) keeps every edge: direct sums,
    # delta below 2^-900, within _SIDE_GUARD of 1/2 or of 1, an anchor that
    # would move (a root whose mode lies below k), and windows of one term,
    # whose shape bound is never the smaller.
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
    ]
    for n, k, delta, root in cases:
        newton = certificates._window_error(delta, n, k)
        assert _edge_error(n, k, delta, root) == (newton, 0.0, 1.0), (n, k, delta)
