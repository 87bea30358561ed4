"""Which window ``binom_tail`` sums first, and why that changes no bit.

``tail_reference.binom_tail`` always sums the lower window first.  The
package sums first the window that a median estimate says is the smaller,
and returns a complement summed first only when it is below
1/2 - ``_SIDE_GUARD``; that step needs both window sums to meet the relative
contract, which ``test_both_window_sums_meet_the_relative_contract`` measures.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import betaincinv

from qsverify import certificates
from qsverify.certificates import (
    TAIL_ERROR_FLOOR,
    TAIL_REL_ERROR,
    CertificateQuery,
    _DIRECT_Z_MAX,
    _SIDE_GUARD,
    binom_tail,
    sqsv_certificate,
)
from qsverify.simulate import clopper_pearson
from rational_oracle import binom_tail_highprec
from tail_contract import contract_grid
import tail_reference


def _window_sum(z):
    return certificates._direct_window_sum if z <= _DIRECT_Z_MAX else certificates._anchored_window_sum


def test_binom_tail_matches_the_lower_window_first_rule():
    # z on both sides of the direct-sum limit up to 10^4; a quarter of the
    # points have a tail within 1e-3 of 1/2, half of those within the guard.
    rng = np.random.default_rng(20)
    in_guard = 0
    for i in range(20_000):
        if i % 2:
            z = int(rng.integers(1, _DIRECT_Z_MAX + 1))
        else:
            z = int(10 ** rng.uniform(math.log10(_DIRECT_Z_MAX + 1), 4))
        k = int(rng.integers(0, z))
        if i % 4 == 3:
            offset = 10 ** rng.uniform(-9, -3) * (1 if rng.uniform() < 0.5 else -1)
            # B_{z,k}(p) = 1 - I_p(k + 1, z - k)
            p = float(betaincinv(k + 1, z - k, 0.5 - offset))
        else:
            u = float(rng.uniform()) ** int(rng.integers(1, 40))
            p = u if rng.uniform() < 0.5 else 1.0 - u
        want = tail_reference.binom_tail(z, k, p)
        assert binom_tail(z, k, p) == want, (z, k, p)
        if i % 4 == 3:
            assert abs(want - 0.5) <= 1e-3 + 1e-12, (z, k, p)
            in_guard += abs(want - 0.5) < _SIDE_GUARD
    assert in_guard > 1000


def test_binom_tail_matches_the_lower_window_first_rule_next_to_one_half():
    # The floats around the root of B = 1/2, where the two windows can both
    # read below 1/2; there only the guard keeps the lower window's bits.
    rng = np.random.default_rng(21)
    both_below = 0
    for _ in range(60):
        direct = rng.uniform() < 0.5
        z = int(rng.integers(1, _DIRECT_Z_MAX + 1) if direct else rng.integers(_DIRECT_Z_MAX + 1, 2000))
        k = int(rng.integers(0, z))
        x = certificates.solve_J(z, k, 0.5)
        for step in range(-4, 5):
            p = x + step * math.ulp(x)
            assert binom_tail(z, k, p) == tail_reference.binom_tail(z, k, p), (z, k, p)
            window_sum = _window_sum(z)
            both_below += window_sum(z, 0, k, p) <= 0.5 and window_sum(z, k + 1, z, p) < 0.5
    assert both_below > 0


def test_binom_tail_matches_the_lower_window_first_rule_on_the_contract_grid():
    for z, k, p in contract_grid():
        assert binom_tail(z, k, p) == tail_reference.binom_tail(z, k, p), (z, k, p)


def _upper_window_exact(z, k, p):
    """1 - B_{z,k}(p) from the oracle, with enough digits to stay relative."""
    for dps in (50, 400):
        with mp.workdps(dps):
            high = 1 - binom_tail_highprec(z, k, p, dps)
            if high > mp.mpf(10) ** (30 - dps):
                break
    return high


def test_both_window_sums_meet_the_relative_contract():
    # binom_tail returns one window, but whichever it sums first must meet
    # the contract: a complement below 1/2 - _SIDE_GUARD is returned at once
    # only because the lower window, off by at most TAIL_REL_ERROR relative,
    # would then have read above 1/2.  So both windows are measured on the
    # contract grid, also on the side binom_tail does not return.
    worst = 0.0
    for z, k, p in contract_grid():
        window_sum = _window_sum(z)
        for got, want in (
            (window_sum(z, 0, k, p), binom_tail_highprec(z, k, p)),
            (window_sum(z, k + 1, z, p), _upper_window_exact(z, k, p)),
        ):
            scale = max(float(want), TAIL_ERROR_FLOOR)
            error = float(abs(mp.mpf(got) - want)) / scale
            assert error <= TAIL_REL_ERROR, (z, k, p, got, want)
            worst = max(worst, error)
    assert worst * 2**20 < 1e-6  # the guard is far above the measured error


@pytest.mark.parametrize(
    "run",
    [
        lambda: sqsv_certificate(
            CertificateQuery("sqsv", 106, 10, 0.5336612989685757, 0.18296610368976304)
        ),
        lambda: sqsv_certificate(
            CertificateQuery("sqsv", 118, 9, 0.7515312495901064, 0.19161643273012877)
        ),
        lambda: clopper_pearson(300, 800),
    ],
    ids=["sqsv-106-10", "sqsv-118-9", "clopper-pearson-300-800"],
)
def test_one_window_sum_per_tail(monkeypatch, run):
    # Summing the lower window first took two sums for each tail above 1/2.
    sums = []
    for name in ("_direct_window_sum", "_anchored_window_sum"):
        window_sum = getattr(certificates, name)
        monkeypatch.setattr(
            certificates, name, lambda *a, f=window_sum: sums.append(a) or f(*a)
        )
    per_call = []

    def counted(z, k, p):
        before = len(sums)
        tail = binom_tail(z, k, p)
        per_call.append((tail, len(sums) - before))
        return tail

    monkeypatch.setattr(certificates, "binom_tail", counted)
    run()
    assert sum(tail > 0.5 for tail, _ in per_call) >= 5
    assert [n for _, n in per_call] == [1] * len(per_call)
