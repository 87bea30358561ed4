import functools
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc

from qsverify import certificates
from qsverify.certificates import (
    PROTOCOLS,
    Certificate,
    CertificateQuery,
    INTERMEDIATES_N_MAX,
    TAIL_ERROR_Z_MAX,
    SOLVE_J_RESIDUAL_TOL,
    NumericalConsistencyError,
    _comb,
    _knot_tail,
    binom_tail,
    certificate,
    dqsv_certificate,
    dqsv_intermediates,
    solve_J,
    sqsv_certificate,
)
from rational_oracle import (
    binom_tail_exact,
    binom_tail_highprec,
    dqsv_fidelity_exact,
    h_exact,
)
from tail_contract import contract_error, contract_grid


# ---------------------------------------------------------------------------
# binomial tail
# ---------------------------------------------------------------------------


def test_binom_tail_zero_failure_probability_is_one():
    for z in (0, 1, 5, 100, 5000):
        for k in (0, 1, 7):
            assert binom_tail(z, k, 0.0) == 1.0


def test_binom_tail_certain_failure_is_zero():
    for z, k in ((1, 0), (10, 3), (500, 499)):
        assert binom_tail(z, k, 1.0) == 0.0
    # but k >= z saturates at 1 even at p = 1
    assert binom_tail(4, 4, 1.0) == 1.0


def test_binom_tail_direct_example():
    assert binom_tail(2, 1, 0.5) == pytest.approx(0.75, abs=1e-15)


def test_binom_tail_z_zero_is_one():
    assert binom_tail(0, 0, 0.7) == 1.0
    assert binom_tail(0, 3, 0.7) == 1.0


def test_binom_tail_rejects_bad_arguments():
    with pytest.raises(ValueError):
        binom_tail(-1, 0, 0.5)
    with pytest.raises(ValueError):
        binom_tail(5, -1, 0.5)
    with pytest.raises(ValueError):
        binom_tail(5, 1, 1.5)


def test_binom_tail_matches_exact_rationals_small():
    # dual route: exact Fraction arithmetic on the same float inputs
    for z in (1, 2, 3, 7, 20, 60, 100):
        for k in range(0, z, max(1, z // 5)):
            for p in (0.03, 1 / 3, 0.5, 0.77):
                exact = binom_tail_exact(z, k, Fraction(p))
                assert abs(binom_tail(z, k, p) - float(exact)) < 1e-13


def test_binom_tail_below_underflow_matches_exact_rationals():
    # At p = 1 - 1e-9 the direct terms lose (1-p)**(z-j) to underflow while
    # the tail is still a double: B_{98,62} once read 0.0 below B_{101,62}.
    # The tails from z = 94 (direct sum) to 101 (anchored) follow the exact
    # ones and keep decreasing in z across the z = 100/101 switch.
    p = 1.0 - 1e-9
    for k in (62, 66):
        tails = [binom_tail(z, k, p) for z in range(94, 102)]
        for z, got in zip(range(94, 102), tails):
            exact = float(binom_tail_exact(z, k, Fraction(p)))
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-320), (z, k)
        assert all(a > b > 0.0 for a, b in zip(tails, tails[1:])), k


def test_binom_tail_relative_error_contract():
    # The relative contract of tail_contract.contract_error for z up to
    # TAIL_ERROR_Z_MAX, measured against a 50-digit oracle on
    # tail_contract.contract_grid; solve_J's decided window rests on it.
    cases = contract_grid()
    assert max(z for z, _, _ in cases) == TAIL_ERROR_Z_MAX
    smallest = 1.0
    for z, k, p in cases:
        got = binom_tail(z, k, p)
        want = binom_tail_highprec(z, k, p)
        assert abs(got - want) <= contract_error(got, want), (z, k, p)
        if want > 0:
            smallest = min(smallest, want)
    assert smallest < 1e-299


def test_direct_sum_rows_keep_the_math_comb_bits():
    # The rows hold float(C(z, j)); int * float rounds the int the same way,
    # so each term, and the compensated sum, keeps the bits of the sum over
    # math.comb(z, j) * p**j * (1.0 - p) ** (z - j) it replaces.
    rng = np.random.default_rng(16)
    for _ in range(3000):
        z = int(rng.integers(1, certificates._DIRECT_Z_MAX + 1))
        lo, hi = sorted(int(j) for j in rng.integers(0, z + 1, size=2))
        u = float(rng.uniform()) ** int(rng.integers(1, 40))
        p = u if rng.uniform() < 0.5 else 1.0 - u
        want = math.fsum(math.comb(z, j) * p**j * (1.0 - p) ** (z - j) for j in range(lo, hi + 1))
        if want < certificates._DIRECT_SUM_MIN:
            want = certificates._anchored_window_sum(z, lo, hi, p)
        assert certificates._direct_window_sum(z, lo, hi, p) == want, (z, lo, hi, p)


def test_comb_prime_product_matches_math_comb():
    # Above _COMB_DIRECT_MAX the anchor binomial is a prime-power product
    # truncated to _POW_PREC_BITS bits; below it, math.comb exactly.
    cut = certificates._COMB_DIRECT_MAX
    for z, j in [(2 * cut + 2, cut + 1), (10_000, 3333), (10_000, 6667), (65_537, 30_001), (10**5, 50_000)]:
        want = math.comb(z, j)
        mantissa, shift = _comb.__wrapped__(z, j)
        assert mantissa.bit_length() == certificates._POW_PREC_BITS
        assert abs(Fraction(mantissa * 2**shift, want) - 1) < Fraction(1, 2**300), (z, j)
    for z, j in [(10, 3), (10**6, cut), (10**6, 10**6 - cut), (2 * cut, cut)]:
        assert _comb.__wrapped__(z, j) == (math.comb(z, j), 0), (z, j)


def test_binom_tail_crosschecks_regularized_incomplete_beta():
    rng = np.random.default_rng(3)
    for _ in range(300):
        z = int(rng.integers(1, 2000))
        k = int(rng.integers(0, z))
        p = float(rng.uniform(0.001, 0.999))
        ours = binom_tail(z, k, p)
        ref = float(betainc(z - k, k + 1, 1.0 - p))
        assert abs(ours - ref) < 5e-13


def _pmf(z, k, p):
    return math.comb(z, k) * p**k * (1.0 - p) ** (z - k)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 200),
    st.data(),
    st.floats(0.02, 0.98),
)
def test_binom_tail_monotonicity_relations(z, data, p):
    """Strictly increasing in k, strictly decreasing in z, and strictly
    decreasing in p when k < z.

    The mathematical increments have closed forms; strictness is asserted
    whenever the increment is resolvable in doubles, and never-decreasing
    order (up to summation noise) is asserted everywhere.
    """
    k = data.draw(st.integers(0, z - 1))
    b = binom_tail(z, k, p)
    up_k = binom_tail(z, k + 1, p)
    down_z = binom_tail(z + 1, k, p)
    h = 1e-3
    down_p = binom_tail(z, k, p + h)

    gap_k = _pmf(z, k + 1, p)            # B_{z,k+1} - B_{z,k}
    gap_z = p * _pmf(z, k, p)            # B_{z,k} - B_{z+1,k}
    # |dB/dp| = z * pmf(z-1, k, p); lower-bound the decrement over [p, p+h]
    gap_p = h * z * min(_pmf(z - 1, k, p), _pmf(z - 1, k, p + h))

    noise = 1e-14
    assert up_k >= b - noise
    assert down_z <= b + noise
    assert down_p <= b + noise
    if gap_k > 1e-12:
        assert up_k > b
    if gap_z > 1e-12:
        assert down_z < b
    if gap_p > 1e-12:
        assert down_p < b


# ---------------------------------------------------------------------------
# J inversion and the IID certificate
# ---------------------------------------------------------------------------


def test_solve_j_delta_one_is_zero():
    for n, k in ((1, 0), (50, 10), (10_000, 3)):
        assert solve_J(n, k, 1.0) == 0.0


def test_solve_j_closed_form_k0():
    for n in (1, 10, 100, 1000, 10_000):
        for delta in (0.01, 0.05, 0.5, 0.9):
            assert abs(solve_J(n, 0, delta) - (1.0 - delta ** (1.0 / n))) <= 1e-12


def test_solve_j_examples():
    assert solve_J(10, 0, 0.05) == pytest.approx(0.258866, abs=1e-6)
    assert solve_J(1000, 0, 0.05) == pytest.approx(0.0029912, abs=1e-7)


def test_solve_j_residuals_general_k():
    for n, k, delta in (
        (10, 3, 0.05),
        (100, 17, 0.3),
        (1000, 7, 0.05),
        (5000, 2500, 0.5),
        (237, 1, 0.999),
    ):
        x = solve_J(n, k, delta)
        assert 0.0 <= x <= 1.0
        assert abs(binom_tail(n, k, x) - delta) <= 1e-12


def test_solve_j_roots_next_to_one():
    # Within a few float steps of 1 the tail is so steep that one ulp of x
    # moves it by more than SOLVE_J_RESIDUAL_TOL times delta.  The root must agree with
    # the mirrored root 1 - J_{n, n-1-k}(1 - delta), solved where x is small,
    # and its true residual must stay within the tolerance plus one ulp's
    # worth of slope.
    n = 10**5
    for k, delta in ((99998, 0.025), (99999, 0.025)):
        x = solve_J(n, k, delta)
        assert abs(x - (1.0 - solve_J(n, n - 1 - k, 1.0 - delta))) <= 2.0 * math.ulp(1.0)
        err = abs(float(binom_tail_highprec(n, k, x)) - delta)
        tol = SOLVE_J_RESIDUAL_TOL * delta
        assert tol < err <= tol + certificates._tail_slope(n, k, x) * math.ulp(x)


def test_solve_j_rejects_bad_arguments():
    with pytest.raises(ValueError):
        solve_J(3, 3, 0.5)
    with pytest.raises(ValueError):
        solve_J(3, 0, 0.0)
    with pytest.raises(ValueError):
        solve_J(3, 0, 1.5)


@pytest.mark.parametrize("protocol", ["sqsv", "dqsv"])
def test_query_n_stops_at_the_measured_tail_contract(protocol):
    # Building a query sums no tail, so both sides of the limit are cheap.
    limit = TAIL_ERROR_Z_MAX
    assert CertificateQuery(protocol, limit, limit - 1, 0.05, 1 / 3).n == limit
    with pytest.raises(ValueError, match=rf"^n = {limit + 1} exceeds {limit}"):
        CertificateQuery(protocol, limit + 1, 0, 0.05, 1 / 3)


def test_sqsv_certificate_examples():
    c = sqsv_certificate(CertificateQuery("sqsv", 10, 0, 0.05, 1 / 3))
    assert c.fidelity_bound == pytest.approx(0.611701, abs=2e-6)
    # independent closed form
    assert c.fidelity_bound == pytest.approx(1 - 1.5 * (1 - 0.05**0.1), abs=1e-12)
    c = sqsv_certificate(CertificateQuery("sqsv", 25, 0, 1.0, 1 / 3))
    assert c.fidelity_bound == 1.0
    c = sqsv_certificate(CertificateQuery("sqsv", 1000, 0, 0.05, 1 / 3))
    assert c.infidelity_bound == pytest.approx(0.004487, abs=1e-5)
    assert c.infidelity_bound == pytest.approx(1.5 * (1 - 0.05**0.001), abs=1e-12)


def test_sqsv_certificate_clamps_at_zero():
    # tiny delta at tiny n admits fidelity-zero sources; the bound floors at 0
    c = sqsv_certificate(CertificateQuery("sqsv", 1, 0, 0.2, 1 / 3))
    assert c.fidelity_bound == 0.0
    assert c.infidelity_bound == 1.0


def test_sqsv_allows_lambda_zero():
    c = sqsv_certificate(CertificateQuery("sqsv", 10, 0, 0.05, 0.0))
    assert c.fidelity_bound == pytest.approx(0.05**0.1, abs=1e-12)


def test_sqsv_bound_at_tiny_delta_is_within_an_ulp_of_exact():
    # B_{98,62}(J) = 1e-300 puts J where the direct terms underflowed, which
    # once certified 1.025e-9 against the exact 8.30e-10.  With lambda = 0 the
    # bound is 1 - J, so the exact tail must cross delta within one ulp of J.
    delta = 1e-300
    fidelity = sqsv_certificate(CertificateQuery("sqsv", 98, 62, delta, 0.0)).fidelity_bound
    j = 1.0 - fidelity
    assert binom_tail_exact(98, 62, Fraction(math.nextafter(j, 1.0))) <= Fraction(delta)
    assert binom_tail_exact(98, 62, Fraction(math.nextafter(j, 0.0))) > Fraction(delta)
    assert fidelity == pytest.approx(8.30e-10, rel=1e-3)


def test_solve_j_matches_exact_rational_oracle_tiny_delta():
    # The residual check is relative to delta, so it still means something
    # here; the exact root must lie within a relative 1e-12 of J.  At
    # (10, 0, 1e-300) the root is 1 - 1e-30, and J is the float 1.
    rows = [(n, k) for n in (10, 60, 98, 100) for k in (0, 3, n // 3, n - 2)]
    rows += [(136, 20), (250, 80), (700, 3)]
    for n, k in rows:
        for delta in (1e-30, 1e-100, 1e-300):
            x = solve_J(n, k, delta)
            above, below = x * (1.0 - 1e-12), min(x * (1.0 + 1e-12), 1.0)
            assert binom_tail_exact(n, k, Fraction(above)) > Fraction(delta), (n, k, delta)
            assert binom_tail_exact(n, k, Fraction(below)) < Fraction(delta), (n, k, delta)
    assert solve_J(10, 0, 1e-300) == 1.0


# ---------------------------------------------------------------------------
# DQSV certificate
# ---------------------------------------------------------------------------


def test_dqsv_hand_examples_n1():
    inter = dqsv_intermediates(CertificateQuery("dqsv", 1, 0, 1.0, 1 / 3))
    assert inter.zhat == 0
    assert inter.kappa == pytest.approx(1.0, abs=1e-12)
    assert inter.zeta_tilde == pytest.approx(1.0, abs=1e-12)
    assert inter.h[0] == 1.0
    assert inter.h[1] == pytest.approx(2 / 3, abs=1e-12)
    assert inter.g[0] == pytest.approx(1.0, abs=1e-12)

    inter = dqsv_intermediates(CertificateQuery("dqsv", 1, 0, 2 / 3, 1 / 3))
    assert inter.zhat == 1
    assert inter.kappa == pytest.approx(1.0, abs=1e-9)
    assert inter.zeta_tilde == pytest.approx(1 / 6, abs=1e-9)

    c = dqsv_certificate(CertificateQuery("dqsv", 1, 0, 1.0, 1 / 3))
    assert c.fidelity_bound == pytest.approx(1.0, abs=1e-12)
    c = dqsv_certificate(CertificateQuery("dqsv", 1, 0, 2 / 3, 1 / 3))
    assert c.fidelity_bound == pytest.approx(0.25, abs=1e-9)


def test_dqsv_degenerate_branch():
    # A zero certificate has no interpolation data: None, not an error.
    tail = binom_tail(10, 0, 2 / 3)
    c = dqsv_certificate(CertificateQuery("dqsv", 10, 0, tail / 2, 1 / 3))
    assert c.fidelity_bound == 0.0
    assert dqsv_intermediates(CertificateQuery("dqsv", 10, 0, tail / 2, 1 / 3)) is None


def test_dqsv_intermediates_refuse_n_beyond_their_limit(monkeypatch):
    # One knot tail per knot: the query is refused before any tail is summed.
    def refuse(*args):
        raise AssertionError("a tail was summed")

    monkeypatch.setattr(certificates, "binom_tail", refuse)
    n = INTERMEDIATES_N_MAX + 1
    with pytest.raises(ValueError, match=f"^n = {n} exceeds {INTERMEDIATES_N_MAX}, "):
        dqsv_intermediates(CertificateQuery("dqsv", n, 5, 0.05, 1 / 3))
    with pytest.raises(ValueError, match="^expected a DQSV query, got 'sqsv'$"):
        dqsv_intermediates(CertificateQuery("sqsv", 10, 0, 0.05, 1 / 3))


def test_dqsv_delta_one_regression():
    # At delta = 1 the interpolation lands on z = k with kappa = 1, giving
    # exactly (N - k + 1)/(N + 1).
    for n, k in ((1, 0), (5, 1), (10, 0), (100, 7), (40, 39)):
        c = dqsv_certificate(CertificateQuery("dqsv", n, k, 1.0, 1 / 3))
        assert c.fidelity_bound == pytest.approx((n - k + 1) / (n + 1), abs=1e-12)
        inter = dqsv_intermediates(CertificateQuery("dqsv", n, k, 1.0, 1 / 3))
        assert inter.zhat == k
        assert inter.kappa == pytest.approx(1.0, abs=1e-12)


def test_dqsv_h_terminal_value_matches_tail():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 50:
        n = int(rng.integers(1, 51))
        k = int(rng.integers(0, n))
        lam = float(rng.uniform(0.05, 0.95))
        tail = binom_tail(n, k, 1.0 - lam)
        if tail >= 1.0 - 1e-9:
            # double precision cannot represent the knots there
            continue
        inter = dqsv_intermediates(CertificateQuery("dqsv", n, k, 1.0, lam))
        assert inter.h[n + 1] == pytest.approx(tail, rel=1e-12)
        checked += 1


def test_dqsv_knot_monotonicity():
    # h strictly decreasing on [k, N+1], g strictly decreasing on [0, N+1].
    # Mathematically distinct h values collide in doubles once the underlying
    # tails are within an ulp of 1, so ties are tolerated only at saturation.
    for n in (1, 2, 5, 10, 20, 50, 100, 200):
        for k in sorted({0, 1, 2, n // 2, n - 1}):
            if not 0 <= k <= n - 1:
                continue
            for lam in (0.1, 1 / 3, 0.9):
                tail = binom_tail(n, k, 1.0 - lam)
                if tail >= 1.0 - 1e-9:
                    continue
                inter = dqsv_intermediates(CertificateQuery("dqsv", n, k, 1.0, lam))
                h, g = inter.h, inter.g
                for z in range(n + 1):
                    assert h[z + 1] <= h[z], (n, k, lam, z)
                    if z >= k and h[z + 1] < 1.0 - 1e-12:
                        assert h[z + 1] < h[z], (n, k, lam, z)
                    assert g[z + 1] < g[z], (n, k, lam, z)


def test_dqsv_intermediates_bracket_delta():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 80))
        k = int(rng.integers(0, n))
        lam = float(rng.uniform(0.05, 0.95))
        tail = binom_tail(n, k, 1.0 - lam)
        if tail >= 1.0 - 1e-6:
            continue
        delta = float(rng.uniform(tail + 1e-9, 1.0))
        if not tail < delta <= 1.0:
            continue
        inter = dqsv_intermediates(CertificateQuery("dqsv", n, k, delta, lam))
        assert inter.h[inter.zhat] >= delta - 1e-13
        assert inter.h[inter.zhat + 1] < delta
        assert 0.0 <= inter.kappa <= 1.0
        assert 0.0 <= inter.zeta_tilde <= 1.0
        checked += 1


def test_dqsv_intermediates_are_the_knot_values():
    for n, k, delta, lam in ((1, 0, 1.0, 1 / 3), (40, 3, 0.2, 0.4), (150, 0, 1e-20, 0.6)):
        inter = dqsv_intermediates(CertificateQuery("dqsv", n, k, delta, lam))
        nu = 1.0 - lam
        assert len(inter.h) == len(inter.g) == n + 2
        assert all(inter.h[z] == certificates._h(z, k, n, nu) for z in range(n + 2))
        assert all(inter.g[z] == certificates._g(z, k, n, nu) for z in range(n + 2))


def test_dqsv_intermediates_evaluate_each_knot_once(monkeypatch):
    # With a knot memo smaller than the table, the h and g tables still
    # take one tail per knot.
    n, k, nu = 300, 2, 0.4
    calls = []
    tail = certificates.binom_tail
    monkeypatch.setattr(certificates, "binom_tail", lambda *a: calls.append(a) or tail(*a))
    small = functools.lru_cache(maxsize=32)(lambda *a: certificates.binom_tail(*a))
    monkeypatch.setattr(certificates, "_knot_tail", small)
    q = CertificateQuery("dqsv", n, k, 0.05, 1.0 - nu)
    dqsv_certificate(q)
    calls.clear()
    dqsv_intermediates(q)
    assert len(calls) == len(set(calls)) <= n + 2


def test_dqsv_matches_exact_rational_oracle_small_grid():
    for n in (1, 2, 3, 5, 8, 12):
        for k in range(n):
            for delta in (Fraction(1, 100), Fraction(1, 2), Fraction(1)):
                for lam in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
                    exact = dqsv_fidelity_exact(k, n, delta, lam)
                    got = dqsv_certificate(
                        CertificateQuery("dqsv", n, k, float(delta), float(lam))
                    ).fidelity_bound
                    if exact == 0:
                        assert got == pytest.approx(0.0, abs=1e-12)
                    else:
                        assert got == pytest.approx(float(exact), rel=1e-12)


def test_dqsv_at_delta_one_is_the_closed_form():
    # h_k = 1 > h_z for every z > k, so at delta = 1 zhat = k, kappa = 1 and
    # the bound is g_k = (n - k + 1)/(n + 1).  Some extra rows have knots past
    # k within the zhat tie tolerance of 1, a few of them equal floats.
    # Where B_{n,k}(nu) rounds to 1 the zero test still runs first.
    rows = [(n, k, lam) for n in (1, 2, 4, 9, 20) for k in range(n) for lam in (0.2, 1 / 3, 0.9)]
    rows += [(136, 83, 0.7215780981758697), (3, 0, 1.0 - 2.0**-53), (300, 200, 1 / 3),
             (1, 0, 1.0 - 2.0**-53), (50, 40, 0.2)]
    zeros = 0
    for n, k, lam in rows:
        exact = dqsv_fidelity_exact(k, n, Fraction(1), Fraction(lam))
        assert exact == Fraction(n - k + 1, n + 1), (n, k, lam)
        got = dqsv_certificate(CertificateQuery("dqsv", n, k, 1.0, lam)).fidelity_bound
        if binom_tail(n, k, 1.0 - lam) >= 1.0:
            zeros += 1
            assert got == 0.0, (n, k, lam)
        else:
            assert got == float(exact), (n, k, lam)
    assert 0 < zeros < len(rows) // 4


def test_dqsv_matches_exact_rational_oracle_tiny_delta():
    # The zhat tie tolerance is relative: an absolute 1e-14 admitted every
    # knot once delta fell below it, so these all came out wrong or raised.
    rows = [(136, 20, 2.18e-12, Fraction(1557, 10000))]
    for n in (60, 136, 700):
        for k in (0, 3, 20):
            for lam in (Fraction(1, 3), Fraction(1557, 10000)):
                rows += [(n, k, delta, lam) for delta in (1e-15, 1e-30, 1e-300)]
    nonzero = 0
    for n, k, delta, lam in rows:
        exact = dqsv_fidelity_exact(k, n, Fraction(delta), lam)
        got = dqsv_certificate(CertificateQuery("dqsv", n, k, delta, float(lam))).fidelity_bound
        if exact == 0:
            assert got == 0.0, (n, k, delta, lam)
        else:
            nonzero += 1
            assert got == pytest.approx(float(exact), rel=1e-12), (n, k, delta, lam)
    assert nonzero > 30


def test_dqsv_tiny_delta_at_large_n():
    # The knot tails underflow to 0 far below z = 16000.  The value is
    # rational_oracle.dqsv_fidelity_exact(5, 16000, Fraction(1e-300),
    # Fraction(1 / 3)), which takes about 16 s to recompute.
    got = dqsv_certificate(CertificateQuery("dqsv", 16000, 5, 1e-300, 1 / 3)).fidelity_bound
    assert got == pytest.approx(0.8869207451838683, rel=1e-12)


def test_dqsv_next_to_each_knot_matches_exact_rational_oracle():
    # delta a relative 1e-11 above the knot value h_z puts zhat at z - 1 and
    # kappa about 1e-11 above 0.  A zhat tie tolerance as wide as 1e-10 took
    # zhat = z there and clamped kappa to 1, off by about 1e-11 relative.
    # The last knot, h_{n+1} = B_{n,k}(nu), is left out: next to it F is
    # about 1e-13 and holds only an absolute error of about 1e-17.
    lam = 1 / 3
    queries = 0
    for n, k in ((12, 1), (20, 2), (30, 3), (40, 0), (60, 5)):
        tail = float(h_exact(n + 1, k, n, Fraction(lam)))
        for z in range(k + 1, n + 1):
            delta = float(h_exact(z, k, n, Fraction(lam))) * (1.0 + 1e-11)
            if not tail < delta < 1.0:
                continue
            queries += 1
            exact = dqsv_fidelity_exact(k, n, Fraction(delta), Fraction(lam))
            got = dqsv_certificate(CertificateQuery("dqsv", n, k, delta, lam)).fidelity_bound
            assert got == pytest.approx(float(exact), rel=1e-12, abs=0.0), (n, k, z)
    assert queries == 151


def test_dqsv_monotone_nondecreasing_in_delta():
    for n, k, lam in ((10, 0, 1 / 3), (30, 3, 1 / 3), (15, 1, 0.6)):
        tail = binom_tail(n, k, 1.0 - lam)
        deltas = np.linspace(max(1e-6, tail * 1.0001 + 1e-12), 1.0, 40)
        bounds = [
            dqsv_certificate(CertificateQuery("dqsv", n, k, float(d), lam)).fidelity_bound
            for d in deltas
        ]
        for a, b in zip(bounds, bounds[1:]):
            assert b >= a - 1e-12
        assert all(0.0 <= b <= 1.0 for b in bounds)


def test_sqsv_dominates_dqsv_on_grid():
    # the IID guarantee can never be weaker than the adversarial one
    for n in (1, 3, 7, 20, 60, 150):
        for k in sorted({0, 1, n // 3, n - 1}):
            if not 0 <= k <= n - 1:
                continue
            for delta in (0.01, 0.05, 0.3, 0.7, 1.0):
                for lam in (0.2, 1 / 3, 0.55):
                    s = sqsv_certificate(CertificateQuery("sqsv", n, k, delta, lam))
                    d = dqsv_certificate(CertificateQuery("dqsv", n, k, delta, lam))
                    assert s.fidelity_bound >= d.fidelity_bound - 1e-12


METAMORPHIC = settings(max_examples=400, derandomize=True, deadline=None, database=None)
LAMBDAS = st.floats(0.01, 0.99)


@st.composite
def _queries(draw):
    """(n, k, delta, lam): n up to 300, every k < n, delta in (0, 1], lam in [0.01, 0.99].

    Above lam = 0.99 lie the strategies with nu down to 2^-53.  With nu that
    small every knot h_z lies within rounding of delta = 1, and the DQSV bound
    falls far below its exact value: 0.5 for 1 at (n, k, delta) = (1, 0, 1).
    """
    n = draw(st.integers(1, 300))
    return n, draw(st.integers(0, n - 1)), draw(st.floats(0.0, 1.0, exclude_min=True)), draw(
        LAMBDAS)


def _bound(protocol, n, k, delta, lam):
    return certificate(CertificateQuery(protocol, n, k, delta, lam)).fidelity_bound


# Each relation holds up to 1e-12, the rounding allowance of the grid tests.
@METAMORPHIC
@given(query=_queries(), other_delta=st.floats(0.0, 1.0, exclude_min=True),
       more_tests=st.integers(1, 100))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_certificates_grow_with_delta_and_n_and_shrink_with_k(protocol, query, other_delta,
                                                              more_tests):
    n, k, delta, lam = query
    bound = _bound(protocol, n, k, delta, lam)
    low, high = sorted((delta, other_delta))
    assert _bound(protocol, n, k, low, lam) <= _bound(protocol, n, k, high, lam) + 1e-12
    assert bound <= _bound(protocol, n + more_tests, k, delta, lam) + 1e-12
    if k + 1 < n:
        assert _bound(protocol, n, k + 1, delta, lam) <= bound + 1e-12


@METAMORPHIC
@given(query=_queries(), other_lam=LAMBDAS)
def test_sqsv_shrinks_with_lambda_and_dominates_dqsv(query, other_lam):
    n, k, delta, lam = query
    low, high = sorted((lam, other_lam))
    assert _bound("sqsv", n, k, delta, high) <= _bound("sqsv", n, k, delta, low) + 1e-12
    assert _bound("sqsv", n, k, delta, lam) >= _bound("dqsv", n, k, delta, lam) - 1e-12


def test_dqsv_is_not_monotone_in_lambda():
    # A larger lambda can raise the DQSV bound, so no code may assume that it
    # falls with lambda as SQSV does.  Both values equal the rational oracle.
    n, k, delta = 62, 7, 0.003956
    pinned = {0.0554: 0.4121641338427443, 0.2: 0.5290836414181026}
    for lam, value in pinned.items():
        assert _bound("dqsv", n, k, delta, lam) == value
        exact = dqsv_fidelity_exact(k, n, Fraction(delta), Fraction(lam))
        assert value == pytest.approx(float(exact), rel=1e-12, abs=0.0)
    assert pinned[0.0554] < pinned[0.2]


def test_query_validation():
    with pytest.raises(ValueError):
        CertificateQuery("sqsv", 3, 3, 0.5, 1 / 3)  # n < k + 1
    with pytest.raises(ValueError):
        CertificateQuery("sqsv", 3, -1, 0.5, 1 / 3)
    with pytest.raises(ValueError):
        CertificateQuery("sqsv", 3, 0, 0.0, 1 / 3)
    with pytest.raises(ValueError):
        CertificateQuery("sqsv", 3, 0, 1.0001, 1 / 3)
    with pytest.raises(ValueError):
        CertificateQuery("dqsv", 3, 0, 0.5, 0.0)  # lambda = 0 undefined for DQSV
    with pytest.raises(ValueError):
        CertificateQuery("dqsv", 3, 0, 0.5, 1.0)
    with pytest.raises(ValueError):
        CertificateQuery("spqr", 3, 0, 0.5, 1 / 3)
    # SQSV accepts lambda = 0 and numpy integers are coerced
    q = CertificateQuery("sqsv", np.int64(3), np.int64(0), 0.5, 0.0)
    assert q.n == 3 and isinstance(q.n, int)


@pytest.mark.parametrize("n, k", [(3.5, 0), (3, 0.5), ("3", 0)])
def test_query_refuses_non_integer_counts(n, k):
    with pytest.raises(ValueError, match="n and k must be integers"):
        CertificateQuery("sqsv", n, k, 0.5, 1 / 3)


def test_certificate_complement_invariant():
    q = CertificateQuery("sqsv", 10, 0, 0.05, 1 / 3)
    c = sqsv_certificate(q)
    assert c.fidelity_bound + c.infidelity_bound == 1.0
    assert Certificate(q, 0.6).infidelity_bound == 1.0 - 0.6


def test_protocol_mismatch_rejected():
    q = CertificateQuery("sqsv", 10, 0, 0.05, 1 / 3)
    with pytest.raises(ValueError):
        dqsv_certificate(q)
    q = CertificateQuery("dqsv", 10, 0, 0.05, 1 / 3)
    with pytest.raises(ValueError):
        sqsv_certificate(q)


def test_certificate_dispatch():
    s = CertificateQuery("sqsv", 10, 0, 0.05, 1 / 3)
    d = CertificateQuery("dqsv", 10, 0, 0.05, 1 / 3)
    assert certificate(s) == sqsv_certificate(s)
    assert certificate(d) == dqsv_certificate(d)


# ---------------------------------------------------------------------------
# memoization of solve_J and the DQSV knot tails
# ---------------------------------------------------------------------------


def _memo_queries(count: int = 300) -> list[CertificateQuery]:
    """Seeded queries of both protocols that revisit a few (n, k, lambda)
    with fresh deltas, and sometimes an earlier delta, as a scaling run does."""
    rng = np.random.default_rng(2024)
    keys = []
    for _ in range(40):
        n = int(rng.choice([1, 2, 5, 12, 40, 100, 101, 250, 800]))  # both sides of z = 100
        keys.append((n, int(rng.integers(0, min(n, 6))), float(rng.choice([0.1, 1 / 3, 0.6]))))
    deltas: dict[tuple, list[float]] = {}
    queries = []
    for _ in range(count):
        key = keys[int(rng.integers(len(keys)))]
        seen = deltas.setdefault(key, [])
        if seen and rng.random() < 0.3:
            delta = seen[int(rng.integers(len(seen)))]
        else:
            delta = 1.0 if rng.random() < 0.05 else float(rng.uniform(0.005, 1.0))
            seen.append(delta)
        protocol = "sqsv" if rng.random() < 0.5 else "dqsv"
        queries.append(CertificateQuery(protocol, key[0], key[1], delta, key[2]))
    return queries


def _evaluate(queries: list[CertificateQuery]) -> list[tuple]:
    """Every memoized entry point, called through the module's current globals."""
    out = []
    for q in queries:
        if q.protocol == "sqsv":
            out.append((certificates.solve_J(q.n, q.k, q.delta), sqsv_certificate(q)))
            continue
        inter = None
        if q.n <= 120 and q.delta > binom_tail(q.n, q.k, q.nu):
            inter = dqsv_intermediates(q)
        out.append((dqsv_certificate(q), inter))
    return out


def test_memo_returns_the_uncached_values(monkeypatch):
    queries = _memo_queries()
    with monkeypatch.context() as m:
        m.setattr(certificates, "solve_J", solve_J.__wrapped__)
        m.setattr(certificates, "_knot_tail", binom_tail)
        reference = _evaluate(queries)
    assert solve_J.cache_info().currsize == _knot_tail.cache_info().currsize == 0
    assert _evaluate(queries) == reference
    assert solve_J.cache_info().hits > 0 and _knot_tail.cache_info().hits > 0
    assert _evaluate(queries) == reference  # now served entirely from the memo
    # the set reaches the intermediates and the degenerate branch too
    assert any(q.protocol == "dqsv" and inter is not None for q, (_, inter) in zip(queries, reference))
    assert any(q.protocol == "dqsv" and q.delta <= binom_tail(q.n, q.k, q.nu) for q in queries)


def test_memo_never_caches_errors(monkeypatch):
    too_large = CertificateQuery("dqsv", INTERMEDIATES_N_MAX + 1, 0, 0.05, 1 / 3)
    for _ in range(3):
        with pytest.raises(ValueError):
            solve_J(3, 3, 0.5)
        with pytest.raises(ValueError):
            solve_J(3, 0, 0.0)
        with pytest.raises(ValueError):
            _knot_tail(-1, 0, 0.5)
        with pytest.raises(ValueError):
            _knot_tail(5, 1, 1.5)
        with pytest.raises(ValueError):
            dqsv_intermediates(too_large)
    # keys carry their types: a float n equal to a cached int n still fails
    solve_J(5, 1, 0.5)
    for _ in range(3):
        with pytest.raises(TypeError):
            solve_J(5.0, 1, 0.5)
    # the residual check runs on every miss, and binom_tail is looked up
    # through the module global at call time
    with monkeypatch.context() as m:
        m.setattr(certificates, "binom_tail", lambda z, k, p: 0.5)
        for _ in range(3):
            with pytest.raises(NumericalConsistencyError):
                solve_J(7, 1, 0.3)
        assert _knot_tail(7, 1, 0.4) == 0.5
    _knot_tail.cache_clear()
    assert solve_J(7, 1, 0.3) == solve_J.__wrapped__(7, 1, 0.3)


def test_memo_is_bounded(certificate_memos):
    assert {solve_J, _knot_tail, certificates._tail_ceiling} <= set(certificate_memos)
    for memo in certificate_memos:
        maxsize = memo.cache_info().maxsize
        assert isinstance(maxsize, int) and 0 < maxsize < 10**6, memo


@pytest.mark.parametrize("fidelity, clamped", [(1.0 + 1e-13, 1.0), (-1e-13, 0.0)])
def test_dqsv_bound_within_clamp_tolerance_logs_debug(monkeypatch, caplog, fidelity, clamped):
    # A bound within BOUND_CLAMP_TOL = 1e-12 outside [0, 1] is clamped and
    # logged at DEBUG by the module's logger, which is made only on this branch.
    q = CertificateQuery("dqsv", 50, 2, 0.05, 1 / 3)
    monkeypatch.setattr(certificates, "_dqsv_core", lambda q: (0, 0.0, fidelity * q.delta))
    with caplog.at_level(logging.DEBUG, logger="qsverify.certificates"):
        assert dqsv_certificate(q).fidelity_bound == clamped
    assert [(r.name, r.levelname) for r in caplog.records] == [("qsverify.certificates", "DEBUG")]
    assert "clamped" in caplog.records[0].getMessage()
