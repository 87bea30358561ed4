"""The derived error bounds of the two window-sum kernels hold.

``_decided_window`` sizes its margin from ``_window_sum_error``, the error
of the window sums ``binom_tail`` makes, derived in advance from the
operations each kernel performs (see its docstring), wherever that is below
the measured TAIL_REL_ERROR.  Here every sum is compared with a 50-digit
window oracle: the direct kernel (z <= _DIRECT_Z_MAX, with its anchored redo
of tiny sums) against ``_window_sum_error``, the anchored kernel at every z
against ``_anchored_sum_error``.  Both bounds are relative, and absolute,
times TAIL_ERROR_FLOOR, below the floor.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from qsverify import certificates
from qsverify.certificates import TAIL_ERROR_FLOOR, TAIL_REL_ERROR, _DIRECT_Z_MAX
from rational_oracle import window_sum_highprec
from tail_contract import contract_grid


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


def _ratio(got: float, z: int, lo: int, hi: int, p: float, bound: float) -> float:
    """|got - exact| over the derived bound, relative above the floor."""
    want = window_sum_highprec(z, lo, hi, p)
    return float(abs(mp.mpf(got) - want)) / (bound * max(float(want), TAIL_ERROR_FLOOR))


def _worst(windows, kernel, bound) -> float:
    worst = 0.0
    for z, lo, hi, p in windows:
        ratio = _ratio(kernel(z, lo, hi, p), z, lo, hi, p, bound(z, lo, hi))
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
    worst = _worst(
        windows(), certificates._direct_window_sum, certificates._window_sum_error
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
    _worst(windows(), certificates._anchored_window_sum, certificates._anchored_sum_error)


def test_window_sum_error_is_the_bound_of_the_kernel_in_use():
    u = 2.0**-53
    assert certificates._window_sum_error(100, 0, 0) == 108 * u
    for z, lo, hi in ((100, 0, 99), (101, 0, 0)):
        assert certificates._window_sum_error(z, lo, hi) == certificates._anchored_sum_error(z, lo, hi)
    assert certificates._anchored_sum_error(10**5, 0, 3) == 9 * u + (10**5 + 1) * 1e-22


def test_window_margin_takes_the_side_binom_tail_returns():
    # Below 1/2 the lower window's bound, above it the complement's, and near
    # 1/2 the larger of both; TAIL_REL_ERROR caps each where it is tighter.
    n, k = 5000, 3
    lower = certificates._window_sum_error(n, 0, k)
    upper = min(certificates.TAIL_REL_ERROR, certificates._window_sum_error(n, k + 1, n))
    assert lower < upper == certificates.TAIL_REL_ERROR
    assert certificates._window_margin(0.05, n, k) == 3.0 * lower * 0.05
    assert certificates._window_margin(0.5, n, k) == 3.0 * upper * 0.5
    assert certificates._window_margin(0.9, n, k) == 3.0 * (upper * (1.0 - 0.9) + 2.0**-53)
    assert certificates._window_margin(1e-310, n, k) == 3.0 * lower * TAIL_ERROR_FLOOR
    n, k = 80, 75  # direct sums; the complement's bound is the smaller one here
    assert certificates._window_margin(0.9, n, k) == 3.0 * (88 * 2.0**-53 * (1.0 - 0.9) + 2.0**-53)
