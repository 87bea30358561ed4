"""Fidelity certificates for homogeneous verification strategies.

Both protocols reduce to the lower binomial tail

    B_{z,k}(p) = sum_{j=0}^{k} C(z, j) p^j (1-p)^{z-j},

the probability of at most k failures in z independent tests with per-test
failure probability p (with the convention x^0 = 1 even for x = 0).

SQSV (IID sources): observing at most k failures among N tests certifies, at
significance level delta, single-copy fidelity at least

    F_S(k, N, delta) = max(0, 1 - J(N, k, delta) / nu),

where J(N, k, delta) is the unique root of B_{N,k}(x) = delta on [0, 1] and
nu = 1 - lambda is the spectral gap of the strategy.

DQSV (no IID assumption): the source commits an arbitrary joint state on
N + 1 systems, N randomly chosen systems are tested, and at most k failures
certify the fidelity of the untested remaining system.  The bound is built
from two knot sequences indexed by z in [0, N+1],

    h_z = 1                                                  z <= k
        = [(N-z+1) B_{z,k}(nu) + z B_{z-1,k}(nu)] / (N+1)    z >= k+1
    g_z = (N-z+1) / (N+1)                                    z <= k
        = (N-z+1) B_{z,k}(nu) / (N+1)                        z >= k+1,

both strictly decreasing on their stated ranges for 0 < lambda < 1.  With
zhat the largest z such that h_z >= delta, and the interpolation weight
kappa = (delta - h_{zhat+1}) / (h_zhat - h_{zhat+1}), the certified fidelity
is

    F_D(k, N, delta) = 0                                       delta <= B_{N,k}(nu)
                     = [(1-kappa) g_{zhat+1} + kappa g_zhat] / delta   otherwise.

Numerics: B_{z,k} is evaluated on its better-conditioned side (tail or
complement), by compensated direct summation for z <= 100, with the
binomial coefficients read from lazily built rows of floats, and, above
that or where a direct term may have underflowed, by an anchor term
computed in truncated big-integer arithmetic from the exact dyadic
factorization of the float p, scaled by a float ratio recurrence.  The
anchored scheme keeps the relative error within a few machine epsilons even
where a log-gamma formulation would lose ~1e-12 to cancellation; see the
tests for the measured bounds.  The anchor's binomial coefficient is exact from
``math.comb`` for small min(j, z - j) and a truncated prime-power product
above, so its cost stays near 0.1 s even at z = 10^7.

J(N, k, delta) is found by bisection to floating-point interval exhaustion.
The relative-error contract |computed - true B| <= e_r B, with
e_r = TAIL_REL_ERROR = 1e-13 (e_r (1 - B) + 2^-53 where the tail is one
minus its complement), measured by the tests on a grid up to
z = TAIL_ERROR_Z_MAX (worst 1.1e-14), decides in advance every comparison
B(mid) > delta whose midpoint lies outside a window [a, b] with computed
B(a) > delta + m and B(b) < delta - m, m = 3 e_r delta for delta <= 1/2; a
short safeguarded Newton phase finds that window, and the bisection skips
those comparisons.  Given the contract, the result is bitwise the full
bisection's, at a median of 13 binom_tail evaluations per solve against its
55 (see tests/test_solve_j_window.py).

zhat is searched with a tie tolerance relative to delta (ZHAT_TIE_TOL).
The search starts at the normal approximation of the z with
B_{z,k}(nu) = delta, gallops outward to a bracket and bisects inside it, so
its probes evaluate a few knot tails next to zhat instead of spreading over
[k, n]; h is strictly decreasing, so zhat is the full-range binary search's.

Memoization: ``solve_J`` is memoized on (n, k, delta), and the knot tails
B_{z,k}(nu) behind h, g and the degenerate test delta <= B_{N,k}(nu) on
(z, k, nu), so neighbouring zhat probes and repeated queries share them.
Both memos are bounded, thread-safe, per-process ``functools.lru_cache``
tables (sizes SOLVE_J_CACHE_SIZE and KNOT_TAIL_CACHE_SIZE) keyed with their
argument types; errors are never cached, so a hit returns the bit-identical
float of the first evaluation and a bad argument raises on every call.
``solve_J.cache_clear()`` and ``_knot_tail.cache_clear()`` empty them.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

SOLVE_J_MAX_ITER = 200
SOLVE_J_RESIDUAL_TOL = 1e-12  # relative to max(delta, TAIL_ERROR_FLOOR)
ZHAT_TIE_TOL = 1e-14       # h_z >= delta - this * delta counts as h_z >= delta
BOUND_CLAMP_TOL = 1e-12    # certificate outside [0,1] by more than this is a bug

_DIRECT_Z_MAX = 100        # direct summation below, anchored scheme above
_TERM_CUTOFF = 1e-22       # relative cutoff for the ratio recurrences
# A direct term whose p**j or (1-p)**(z-j) underflowed is below C(z, j) 2**-1022,
# so for z <= 100 such terms add up to less than 2**-53 of any sum above this.
_DIRECT_SUM_MIN = (_DIRECT_Z_MAX + 1) * math.comb(_DIRECT_Z_MAX, _DIRECT_Z_MAX // 2) * 2.0**-969
# math.comb while min(j, z - j) is at most this, a prime-power product above.
# Measured crossover under CPython 3.11: min(j, z - j) ~ 1000 at z = 10^4,
# ~1500 at 10^5, ~2600 at 10^6, ~7500 at 10^7.
_COMB_DIRECT_MAX = 2000
_COMB_CACHE_SIZE = 64      # memoized anchor binomials

# For z <= TAIL_ERROR_Z_MAX, |binom_tail(z, k, p) - B| <= TAIL_REL_ERROR *
# max(B, TAIL_ERROR_FLOOR) where the tail is summed, and <= TAIL_REL_ERROR *
# (1 - B) + 2**-53 where it is one minus the summed complement.  Measured by
# test_binom_tail_relative_error_contract: worst 1.1e-14 (direct sums at
# z = 100, from rounding 1 - p), 2.2e-15 for anchored sums; solve_J relies on
# it.  Below the floor the terms reach subnormal doubles.
TAIL_REL_ERROR = 1e-13
TAIL_ERROR_FLOOR = 2.0**-1000
TAIL_ERROR_Z_MAX = 10_000_000
_NEWTON_MAX_STEPS = 40
# The window's Newton phase stops once the computed tail is within this many
# margins of delta; see _decided_window.
_NEWTON_STOP = 2.0**16

SOLVE_J_CACHE_SIZE = 4096      # memoized (n, k, delta) roots
KNOT_TAIL_CACHE_SIZE = 16384   # memoized (z, k, nu) knot tails


class NumericalConsistencyError(RuntimeError):
    """An internal identity that the mathematics guarantees failed numerically."""


PROTOCOL_SQSV = "sqsv"
PROTOCOL_DQSV = "dqsv"
PROTOCOLS = (PROTOCOL_SQSV, PROTOCOL_DQSV)


@dataclass(frozen=True)
class CertificateQuery:
    """Parameters of a certificate request.

    protocol: "sqsv" or "dqsv"
    n:        number of tests performed
    k:        maximum number of failures accepted, 0 <= k <= n - 1
    delta:    significance level in (0, 1]
    lam:      strategy parameter lambda; [0, 1) for SQSV, (0, 1) for DQSV
    """

    protocol: str
    n: int
    k: int
    delta: float
    lam: float

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        try:
            object.__setattr__(self, "n", operator.index(self.n))
            object.__setattr__(self, "k", operator.index(self.k))
        except TypeError as exc:
            raise ValueError("n and k must be integers") from exc
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "lam", float(self.lam))
        if self.k < 0:
            raise ValueError(f"k = {self.k} must be non-negative")
        if self.n < self.k + 1:
            raise ValueError(f"n = {self.n} must be at least k + 1 = {self.k + 1}")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta = {self.delta} outside (0, 1]")
        if self.protocol == PROTOCOL_SQSV:
            if not (0.0 <= self.lam < 1.0):
                raise ValueError(f"lambda = {self.lam} outside [0, 1) for SQSV")
        else:
            # The DQSV bound is stated for 0 < lambda < 1 only; lambda = 0 is
            # rejected rather than extended by a guessed limit.
            if not (0.0 < self.lam < 1.0):
                raise ValueError(f"lambda = {self.lam} outside (0, 1) for DQSV")

    @property
    def nu(self) -> float:
        return 1.0 - self.lam


@dataclass(frozen=True)
class Certificate:
    query: CertificateQuery
    fidelity_bound: float

    @property
    def infidelity_bound(self) -> float:
        return 1.0 - self.fidelity_bound


@dataclass(frozen=True)
class DqsvIntermediates:
    """Full knot tables and interpolation data behind a DQSV certificate."""

    h: tuple[float, ...]   # h[z] for z = 0 .. n + 1
    g: tuple[float, ...]   # g[z] for z = 0 .. n + 1
    zhat: int
    kappa: float
    zeta_tilde: float


def binom_tail(z: int, k: int, p: float) -> float:
    """Lower binomial tail B_{z,k}(p) = P[Binomial(z, p) <= k].

    z, k are non-negative integers; 0 <= p <= 1.  B_{0,k} = 1 and the
    convention x^0 = 1 holds even at x = 0, so B_{z,k}(0) = 1.
    """
    z = operator.index(z)
    k = operator.index(k)
    p = float(p)
    if z < 0 or k < 0:
        raise ValueError(f"z = {z} and k = {k} must be non-negative")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p = {p} outside [0, 1]")
    if k >= z:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    window_sum = _direct_window_sum if z <= _DIRECT_Z_MAX else _anchored_window_sum
    low = window_sum(z, 0, k, p)
    if low <= 0.5:
        return low
    # near 1 the complement is the well-conditioned side
    return 1.0 - window_sum(z, k + 1, z, p)


def _direct_window_sum(z: int, lo: int, hi: int, p: float) -> float:
    """sum_{j=lo}^{hi} C(z,j) p^j (1-p)^(z-j) by compensated direct summation.

    Below _DIRECT_SUM_MIN a term may have underflowed inside its powers while
    itself a normal double; the anchored scheme evaluates such a window.
    """
    row = _comb_row(z)
    q = 1.0 - p
    total = math.fsum([row[j] * p**j * q ** (z - j) for j in range(lo, hi + 1)])
    if total < _DIRECT_SUM_MIN:
        return _anchored_window_sum(z, lo, hi, p)
    return total


@functools.lru_cache(maxsize=_DIRECT_Z_MAX + 1)
def _comb_row(z: int) -> tuple[float, ...]:
    """float(C(z, j)) for j = 0 .. z.

    int * float converts the int with correct rounding, so a term built from
    this row has the bits of one built from ``math.comb`` itself.
    """
    return tuple(float(math.comb(z, j)) for j in range(z + 1))


_POW_PREC_BITS = 320


def _pow_reduced(base: int, exp: int) -> tuple[int, int]:
    """base**exp as (mantissa, shift) with mantissa * 2**shift, truncated.

    Square-and-multiply with the mantissa kept at ~_POW_PREC_BITS bits; each
    truncation loses at most 2**-(_POW_PREC_BITS-1) relative, and there are
    O(log exp) of them, so the result is far more accurate than a double.
    """
    result_m, result_e = 1, 0
    m, e = base, 0
    while exp:
        if exp & 1:
            result_m *= m
            result_e += e
            extra = result_m.bit_length() - _POW_PREC_BITS
            if extra > 0:
                result_m >>= extra
                result_e += extra
        exp >>= 1
        if exp:
            m *= m
            e += e
            extra = m.bit_length() - _POW_PREC_BITS
            if extra > 0:
                m >>= extra
                e += extra
    return result_m, result_e


@functools.lru_cache(maxsize=_COMB_CACHE_SIZE)
def _comb(z: int, j: int) -> tuple[int, int]:
    """C(z, j) as (mantissa, shift), C(z, j) = mantissa * 2**shift.

    Exact, from ``math.comb``, while min(j, z - j) <= _COMB_DIRECT_MAX.
    Above it ``math.comb`` spends its time in big-integer division (5.7 s for
    C(10^6, 333333) under CPython 3.11), so the product over primes p <= z of
    p**e_p is taken instead, with e_p = sum_i floor(z/p^i) - floor(j/p^i) -
    floor((z-j)/p^i) (Legendre), keeping the mantissa at _POW_PREC_BITS bits
    like ``_pow_reduced`` (7 ms for the same C(10^6, 333333), 0.1 s for
    C(10^7, 3333333)).  One solve anchors at the same few (z, j) again and
    again, so the values are memoized.
    """
    r = z - j
    if min(j, r) <= _COMB_DIRECT_MAX:
        return math.comb(z, j), 0
    primes = _primes_upto(z)
    e = z // primes - j // primes - r // primes
    head = primes[: np.searchsorted(primes, math.isqrt(z), side="right")]
    power = head * head
    while len(head):  # p^i <= z only for a prefix of the primes
        e[: len(head)] += z // power - j // power - r // power
        keep = power <= z // head
        head, power = head[keep], power[keep] * head[keep]
    factors = primes[e == 1].tolist()
    factors += [int(p) ** int(n) for p, n in zip(primes[e > 1], e[e > 1])]
    mantissa, shift = 1, 0
    for i in range(0, len(factors), 8):
        mantissa *= math.prod(factors[i:i + 8])
        extra = mantissa.bit_length() - _POW_PREC_BITS
        if extra > 0:
            mantissa >>= extra
            shift += extra
    return mantissa, shift


@functools.lru_cache(maxsize=1)
def _primes_upto(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    return np.flatnonzero(sieve)


def _mantissa_exp_to_float(m: int, e: int) -> float:
    extra = m.bit_length() - 64
    if extra > 0:
        m >>= extra
        e += extra
    return math.ldexp(m, e)


def _anchored_window_sum(z: int, lo: int, hi: int, p: float) -> float:
    """sum_{j=lo}^{hi} C(z,j) p^j (1-p)^(z-j) for the float p, near machine accuracy.

    The in-window maximum term is evaluated from the exact integer
    factorization of the float p (a dyadic rational), with powers taken in
    truncated big-integer arithmetic, so it carries only a couple of ulps of
    error regardless of z; neighbours follow by a float ratio recurrence,
    truncated once negligible.
    """
    p_num, p_den = p.as_integer_ratio()
    q_num = p_den - p_num  # 1 - p, exactly, over the same denominator
    mode = (z + 1) * p_num // p_den
    j0 = min(max(mode, lo), hi)
    den_shift = p_den.bit_length() - 1  # p_den is a power of two for floats
    cm, ce = _comb(z, j0)
    pm, pe = _pow_reduced(p_num, j0)
    qm, qe = _pow_reduced(q_num, z - j0)
    t0 = _mantissa_exp_to_float(cm * pm * qm, ce + pe + qe - den_shift * z)
    if t0 == 0.0:
        # The largest term underflows; the whole window is far below any
        # tolerance of interest.
        return 0.0
    terms = [t0]
    t = t0
    for j in range(j0, lo, -1):
        t *= (j * q_num) / ((z - j + 1) * p_num)
        terms.append(t)
        if t < t0 * _TERM_CUTOFF:
            break
    t = t0
    for j in range(j0, hi):
        t *= ((z - j) * p_num) / ((j + 1) * q_num)
        terms.append(t)
        if t < t0 * _TERM_CUTOFF:
            break
    return math.fsum(terms)


def _tail_slope(n: int, k: int, x: float) -> float:
    """|dB_{n,k}/dx| = n b_{n-1,k}(x) for 0 < x < 1, from a log-gamma pmf."""
    log_coef = math.lgamma(n) - math.lgamma(k + 1) - math.lgamma(n - k)
    return n * math.exp(log_coef + k * math.log(x) + (n - 1 - k) * math.log1p(-x))


def _normal_upper_quantile(delta: float) -> float:
    """u with P[N(0, 1) > u] ~ delta for 0 < delta < 1.

    Abramowitz & Stegun 26.2.23 (absolute error < 4.5e-4); only starting
    points of searches are built from it.
    """
    t = math.sqrt(-2.0 * math.log(min(delta, 1.0 - delta)))
    u = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (
        1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t ** 3)
    return -u if delta > 0.5 else u


def _window_margin(delta: float) -> float:
    """The margin m of ``_decided_window``: three contract errors at delta."""
    if delta <= 0.5:
        return 3.0 * TAIL_REL_ERROR * max(delta, TAIL_ERROR_FLOOR)
    return 3.0 * (TAIL_REL_ERROR * (1.0 - delta) + 2.0**-53)


def _decided_window(n: int, k: int, delta: float) -> tuple[float, float]:
    """[a, b] outside which every bisection test B_{n,k}(mid) > delta is decided.

    The computed tail satisfies B(a) > delta + m and B(b) < delta - m.
    With e = TAIL_REL_ERROR and delta <= 1/2 the margin is m = 3 e delta.
    The true B is decreasing, and (1 - e) B, the least the contract lets a
    computed B read, increases with B; so for every mid <= a

        computed B(mid) >= (1 - e) B(a) >= (1 - e) (delta + 3 e delta) / (1 + e)
                         >= delta + e (1 - 4 e) delta > delta:

    one e delta covers the error of B(a), one that of B(mid), and the third
    the second-order terms and the rounding of delta + m.  The bound for
    mid >= b mirrors it.  Below TAIL_ERROR_FLOOR the contract is absolute,
    e times the floor, and the same count takes m = 3 e TAIL_ERROR_FLOOR.
    Above 1/2 the computed tail is one minus the complement, off by at most
    e (1 - B) + 2^-53, and the count gives m = 3 (e (1 - delta) + 2^-53).
    A side with no certified edge stays at 0 or 1, which decides nothing;
    above TAIL_ERROR_Z_MAX, where the error bound is not measured, the
    window is [0, 1].

    The edges come from safeguarded Newton on log B, which is concave (B is
    the survival function of Beta(k+1, n-k)), so once an iterate lies right
    of the root the rest approach it monotonically.  Newton stops at an x
    whose computed B is within _NEWTON_STOP m of delta, and the tangent
    there places each edge where B should read delta -+ 2m.  B and 1 - B
    are both log-concave, so |B''| <= B'^2 / min(B, 1 - B) and the tangent
    misses by at most ((_NEWTON_STOP + 2) m)^2 / (2 min(B, 1 - B)), under
    1e-3 m for delta <= 1/2.  The slope d log B / dx = -n b_{n-1,k}(x) / B(x)
    uses a log-gamma pmf: it only steers, and every edge is checked with
    binom_tail itself.
    """
    a, b = 0.0, 1.0
    if n > TAIL_ERROR_Z_MAX:
        return a, b
    margin = _window_margin(delta)
    log_delta = math.log(delta)
    slope = functools.partial(_tail_slope, n, k)

    # Start from the normal approximation with continuity correction.
    u = _normal_upper_quantile(delta)
    c = k + 0.5
    x = (c + 0.5 * u * u + u * math.sqrt(c * (n - c) / n + 0.25 * u * u)) / (n + u * u)
    for _ in range(_NEWTON_MAX_STEPS):
        if not a < x < b:
            x = 0.5 * (a + b)
            if x == a or x == b:
                return a, b
        tail = binom_tail(n, k, x)
        if tail > delta + margin:
            a = x
        elif tail < delta - margin:
            b = x
        d = slope(x)
        if abs(tail - delta) <= _NEWTON_STOP * margin:
            break
        step = tail * (math.log(tail) - log_delta) / d if tail > 0.0 and d > 0.0 else math.inf
        x = x + step
    else:
        return a, b
    # The tangent at x aims each edge at delta -+ 2m, a margin m beyond what
    # it must certify; each edge is kept only if binom_tail certifies it.
    # Below about 2e-8 TAIL_ERROR_FLOOR the stop test admits a tail far from
    # delta and the tangent may leave [0, 1], so only edges inside (a, b) are
    # tried.
    if d > 0.0:
        left = x - (delta - tail + 2.0 * margin) / d
        right = x + (tail - delta + 2.0 * margin) / d
        if a < left < b and binom_tail(n, k, left) > delta + margin:
            a = left
        if a < right < b and binom_tail(n, k, right) < delta - margin:
            b = right
    return a, b


@functools.lru_cache(maxsize=SOLVE_J_CACHE_SIZE, typed=True)
def solve_J(n: int, k: int, delta: float) -> float:
    """The unique x in [0, 1] with B_{n,k}(x) = delta, for n >= k + 1.

    B_{n,k} is continuous and strictly decreasing in x with B(0) = 1 and
    B(1) = 0, so plain bisection always converges; it is run to floating-point
    interval exhaustion (well under the iteration cap) and the residual is
    verified afterwards, relative to max(delta, TAIL_ERROR_FLOOR).  A bisection test whose midpoint
    lies outside ``_decided_window`` is skipped, since the TAIL_REL_ERROR
    contract already decides its outcome; given that measured contract, the
    result is bitwise the one of the full bisection.  Memoized on
    (n, k, delta); errors are not cached.
    """
    if k < 0 or n < k + 1:
        raise ValueError(f"need n >= k + 1 >= 1, got n = {n}, k = {k}")
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta = {delta} outside (0, 1]")
    if delta == 1.0:
        return 0.0
    a, b = _decided_window(n, k, delta)
    lo, hi = 0.0, 1.0
    tail_lo = tail_hi = math.nan  # computed B at lo and hi, NaN where not evaluated
    for _ in range(SOLVE_J_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid <= a:
            lo, tail_lo = mid, math.nan
        elif mid >= b:
            hi, tail_hi = mid, math.nan
        else:
            tail = binom_tail(n, k, mid)
            if tail > delta:
                lo, tail_lo = mid, tail
            else:
                hi, tail_hi = mid, tail
    x = 0.5 * (lo + hi)
    # On interval exhaustion x is lo or hi; reuse its tail if it was evaluated.
    tail = tail_lo if x == lo else tail_hi if x == hi else math.nan
    if math.isnan(tail):
        tail = binom_tail(n, k, x)
    residual = abs(tail - delta)
    # Below TAIL_ERROR_FLOOR the tail contract is absolute, and so is this.
    tol = SOLVE_J_RESIDUAL_TOL * max(delta, TAIL_ERROR_FLOOR)
    # Next to a steep root, such as one within a few float steps of 1, one
    # step of x moves B by more than the tolerance; so much residual is
    # allowed there.  The true root lies in [lo, hi], and |B'| = n b_{n-1,k}
    # is unimodal, so its largest value on that step is at an end inside
    # (0, 1); at hi = 1 it is at lo for k < n - 1.
    if residual > tol:
        ends = [p for p in (lo, hi) if 0.0 < p < 1.0]
        if not ends or residual > tol + max(_tail_slope(n, k, p) for p in ends) * (hi - lo):
            raise NumericalConsistencyError(
                f"bisection residual {residual} for B_{{{n},{k}}}(x) = {delta}"
            )
    return x


def sqsv_certificate(q: CertificateQuery) -> Certificate:
    """Guaranteed single-copy fidelity under the IID assumption."""
    if q.protocol != PROTOCOL_SQSV:
        raise ValueError(f"expected an SQSV query, got {q.protocol!r}")
    if _knot_tail(q.n, q.k, q.nu) > q.delta:
        # Then J > nu, so the bound is 0.  The root itself may lie too near 1
        # for bisection to meet its residual check.  A tie is left to solve_J,
        # whose root there is nu up to rounding.
        return Certificate(q, 0.0)
    fidelity = max(0.0, 1.0 - solve_J(q.n, q.k, q.delta) / q.nu)
    return Certificate(q, fidelity)


@functools.lru_cache(maxsize=KNOT_TAIL_CACHE_SIZE, typed=True)
def _knot_tail(z: int, k: int, nu: float) -> float:
    """B_{z,k}(nu), memoized for the DQSV knots and the zero-certificate tests."""
    return binom_tail(z, k, nu)


def _h(z: int, k: int, n: int, nu: float) -> float:
    if z <= k:
        return 1.0
    return ((n - z + 1) * _knot_tail(z, k, nu) + z * _knot_tail(z - 1, k, nu)) / (n + 1)


def _g(z: int, k: int, n: int, nu: float) -> float:
    if z <= k:
        return (n - z + 1) / (n + 1)
    return (n - z + 1) * _knot_tail(z, k, nu) / (n + 1)


def _zhat(k: int, n: int, nu: float, delta: float) -> int:
    """Largest z in [k, n] with h_z >= delta, given h_{n+1} < delta <= 1 = h_k.

    Values within a relative ZHAT_TIE_TOL of delta count as meeting the
    threshold, so the ">=" in the definition is honored under floating-point
    rounding at every scale of delta.  h is strictly decreasing on [k, n+1],
    so every correct search returns the same z.  The search starts at the
    normal approximation of the z with B_{z,k}(nu) = delta and gallops
    outward in steps 1, 2, 4, ... until it brackets zhat, so its probes stay
    near zhat and neighbouring probes share knot tails; a binary search
    inside the bracket finishes.
    """
    threshold = delta - ZHAT_TIE_TOL * delta
    z = k
    if delta < 1.0:
        # z nu - (k + 1/2) = u sqrt(z nu (1 - nu)), a quadratic in sqrt(z)
        b = _normal_upper_quantile(delta) * math.sqrt(nu * (1.0 - nu))
        root = (b + math.sqrt(b * b + 4.0 * nu * (k + 0.5))) / (2.0 * nu)
        z = int(min(max(root * root, k), n))
    lo, hi, step = k, n, 1
    if _h(z, k, n, nu) >= threshold:
        lo = z
        while lo < hi:
            t = min(z + step, hi)
            if _h(t, k, n, nu) < threshold:
                hi = t - 1
                break
            lo, step = t, 2 * step
    else:
        hi = z - 1
        while lo < hi:
            t = max(z - step, lo)
            if _h(t, k, n, nu) >= threshold:
                lo = t
                break
            hi, step = t - 1, 2 * step
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _h(mid, k, n, nu) >= threshold:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _dqsv_core(q: CertificateQuery) -> tuple[int, float, float]:
    """(zhat, kappa, zeta_tilde) for a non-degenerate DQSV query."""
    n, k, nu, delta = q.n, q.k, q.nu, q.delta
    zh = _zhat(k, n, nu, delta)
    h_z = _h(zh, k, n, nu)
    h_z1 = _h(zh + 1, k, n, nu)
    denom = h_z - h_z1
    if denom <= 0.0:
        raise NumericalConsistencyError(
            f"h_{zh} - h_{zh + 1} = {denom} <= 0; the knot sequence lost monotonicity"
        )
    kappa = (delta - h_z1) / denom
    # The zhat tie tolerance admits h_zhat up to ZHAT_TIE_TOL * delta below
    # delta, which can push kappa past 1 by that over denom when the knot gap is
    # near float resolution; clamping to the knot value is the continuous
    # limit.  Anything beyond that allowance is a real inconsistency.
    if kappa < -1e-9 or delta - h_z > 10.0 * ZHAT_TIE_TOL * delta:
        raise NumericalConsistencyError(
            f"interpolation weight kappa = {kappa} outside [0, 1]"
        )
    kappa = min(1.0, max(0.0, kappa))
    zeta = (1.0 - kappa) * _g(zh + 1, k, n, nu) + kappa * _g(zh, k, n, nu)
    return zh, kappa, zeta


def dqsv_intermediates(q: CertificateQuery) -> DqsvIntermediates:
    """Full h/g tables plus (zhat, kappa, zeta_tilde) for inspection.

    Requires delta > B_{n,k}(nu); below that threshold the certificate is
    identically zero and the interpolation data is undefined.
    """
    if q.protocol != PROTOCOL_DQSV:
        raise ValueError(f"expected a DQSV query, got {q.protocol!r}")
    tail = _knot_tail(q.n, q.k, q.nu)
    if q.delta <= tail:
        raise ValueError(
            f"delta = {q.delta} <= B_{{{q.n},{q.k}}}(nu) = {tail}: "
            "degenerate certificate, no intermediates exist"
        )
    zh, kappa, zeta = _dqsv_core(q)
    # One ascending pass: tails z - 1 and z are the memo's two latest entries,
    # so each is evaluated once even above KNOT_TAIL_CACHE_SIZE knots.
    h, g = [], []
    for z in range(q.n + 2):
        h.append(_h(z, q.k, q.n, q.nu))
        g.append(_g(z, q.k, q.n, q.nu))
    return DqsvIntermediates(h=tuple(h), g=tuple(g), zhat=zh, kappa=kappa, zeta_tilde=zeta)


def dqsv_certificate(q: CertificateQuery) -> Certificate:
    """Guaranteed fidelity of the untested system, with no IID assumption.

    In the extreme corner where B_{n,k}(nu) rounds to 1 in double precision
    (nu tiny and k close to n), the degenerate zero bound is returned for any
    delta; that is conservative but sound, and the knot landscape is not
    float-resolvable there anyway.
    """
    if q.protocol != PROTOCOL_DQSV:
        raise ValueError(f"expected a DQSV query, got {q.protocol!r}")
    if q.delta <= _knot_tail(q.n, q.k, q.nu):
        return Certificate(q, 0.0)
    _, _, zeta = _dqsv_core(q)
    fidelity = zeta / q.delta
    if fidelity < -BOUND_CLAMP_TOL or fidelity > 1.0 + BOUND_CLAMP_TOL:
        raise NumericalConsistencyError(
            f"DQSV fidelity bound {fidelity} outside [0, 1] beyond tolerance"
        )
    if fidelity < 0.0 or fidelity > 1.0:
        logger.debug("DQSV fidelity bound %.17g clamped to [0, 1]", fidelity)
        fidelity = min(1.0, max(0.0, fidelity))
    return Certificate(q, fidelity)


def certificate(q: CertificateQuery) -> Certificate:
    """Dispatch on the query protocol."""
    if q.protocol == PROTOCOL_SQSV:
        return sqsv_certificate(q)
    return dqsv_certificate(q)
