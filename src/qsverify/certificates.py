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
complement; the one a median estimate calls the smaller is summed first, the
other only near 1/2 or after a wrong guess, keeping the tail-first bits), by
compensated direct summation for z <= 100, with the binomial coefficients read
from lazily built rows of floats, and, above that or where a direct term may
have underflowed, by an anchor term computed in truncated big-integer
arithmetic from the exact dyadic factorization of the float p, scaled by a
float ratio recurrence.  The anchored scheme keeps the relative error within a
few machine epsilons even where a log-gamma formulation would lose ~1e-12 to
cancellation; see the tests for the measured bounds.  The anchor's binomial
coefficient is exact from ``math.comb`` for small min(j, z - j) and a truncated
prime-power product above, so its cost stays near 0.1 s even at z = 10^7.

J(N, k, delta) is found by bisection to floating-point interval exhaustion.
At k = 0 and delta <= _K0_DELTA_MAX the tail binom_tail returns near the
root is the one term (1 - x)^N, non-increasing on the floats, so the two
adjacent floats on which the bisection ends are found directly from the
closed form 1 - delta^(1/N), in about two tail sums (``_k0_crossing``).
Elsewhere an error bound e on the tail, |computed - true B| <= e B
(e (1 - B) + 2^-53 where the tail is one minus its complement), decides
in advance every comparison B(mid) > delta whose midpoint lies outside a
window [a, b] with computed B(a) > delta + m and B(b) < delta - m,
m = 3 e delta for delta <= 1/2; a short safeguarded Newton phase finds
that window, and the bisection skips those comparisons.  For
k <= _MODEL_K_MAX that phase starts at the root of a float model of the
tail, found by Newton in log(1 - x) (``_model_root``), so it usually stops
at its first tail sum.  e is one bound for either side summed
(``_window_error``): the direct kernel's (z + 8) 2^-53, derived from the
operations it performs, where z <= _DIRECT_Z_MAX and delta >=
2 _DIRECT_SUM_MIN, and elsewhere the relative-error contract
TAIL_REL_ERROR = 1e-13, measured by the tests on a grid up to
z = TAIL_ERROR_Z_MAX (worst 1.1e-14).  The two edges placed last, next to
the root, may take a smaller e for anchored sums, from the log-concave
shape of the window summed there where it is pinned at its end with first
ratio rho < 1: (2 rho / (1 - rho) + 4) 2^-53 + (z + 1) 1e-22
(``_edge_error``); ``_decided_window`` proves that every comparison it
skips is still decided.  Given these bounds, the result is bitwise the
full bisection's, at a median of 7 binom_tail evaluations per solve
against its 55, and 6 where k <= _MODEL_K_MAX (see
tests/test_solve_j_window.py).

The zero-certificate tests read B_{N,k}(nu) from ``_zero_test_tail``: a
delta above the Chernoff bound exp(-N D(k/N || nu)) for k < N nu, padded by
the tail's error contract (``_tail_ceiling``), sums no tail.  SQSV is zero
where B > delta, DQSV where delta <= B (``dqsv_intermediates`` gives None).

zhat is searched with a tie tolerance relative to delta (ZHAT_TIE_TOL), by
galloping from the normal approximation of the z with B_{z,k}(nu) = delta to
a bracket and bisecting inside it (``_zhat``).  kappa is 0 where the last knot
h_{N+1} is not below both delta and h_N, as ``_dqsv_core`` proves sound.

Memoization: ``solve_J`` is memoized on (n, k, delta), and the knot tails
B_{z,k}(nu) behind h, g and the degenerate test delta <= B_{N,k}(nu) on
(z, k, nu), so neighbouring zhat probes and repeated queries share them;
the Chernoff ceilings of the degenerate tests are memoized on (N, k, nu)
too.  The memos are bounded, thread-safe, per-process ``functools.lru_cache``
tables (sizes SOLVE_J_CACHE_SIZE and KNOT_TAIL_CACHE_SIZE) keyed with their
argument types; errors are never cached, so a hit returns the bit-identical
float of the first evaluation and a bad argument raises on every call.
``solve_J.cache_clear()``, ``_knot_tail.cache_clear()`` and
``_tail_ceiling.cache_clear()`` empty them.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

SOLVE_J_MAX_ITER = 200
SOLVE_J_RESIDUAL_TOL = 1e-12  # relative to max(delta, TAIL_ERROR_FLOOR)
ZHAT_TIE_TOL = 1e-14       # h_z >= delta - this * delta counts as h_z >= delta
BOUND_CLAMP_TOL = 1e-12    # certificate outside [0,1] by more than this is a bug

_DIRECT_Z_MAX = 100        # direct summation below, anchored scheme above
_TERM_CUTOFF = 1e-22       # relative cutoff for the ratio recurrences
_UNIT_ROUNDOFF = 2.0**-53  # u, the largest relative rounding error of a double
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
# z = 100, from rounding 1 - p), 2.2e-15 for anchored sums; solve_J's window
# relies on it wherever _window_error does not take the direct kernel's
# derived bound.  Below the floor the terms reach subnormal doubles.
TAIL_REL_ERROR = 1e-13
TAIL_ERROR_FLOOR = 2.0**-1000
TAIL_ERROR_Z_MAX = 10_000_000
_SIDE_GUARD = 2.0**-20     # a complement summed first is returned below 1/2 - this
_NEWTON_MAX_STEPS = 40
# The window's Newton phase stops once the computed tail is within this many
# margins of delta; see _decided_window.
_NEWTON_STOP = 2.0**16
# The window's last edges take the error bound of the summed window's shape
# at x_s, this far inside the tangent's root relative to the root's distance
# from 0 (1 above 1/2), where delta is at least _SHAPE_DELTA_MIN, and are
# kept only beyond x_s / _SHAPE_KEEP, half that offset of their own distance
# beyond x_s; see _decided_window.
_SHAPE_OFFSET = 2.0**-20
_SHAPE_KEEP = 1.0 - 0.5 * _SHAPE_OFFSET
_SHAPE_DELTA_MIN = 2.0**-900
# The window's Newton phase starts at the root of a float model of the tail
# while k is at most this; see _model_root.  A model iterate costs k + 1
# float steps and a solve takes 2-5 of them, against about three tail sums
# saved.  Measured under CPython 3.11 on random solves with n <= 10^4: the
# model is faster per solve for k up to 256, no faster above.
_MODEL_K_MAX = 256
_MODEL_MAX_STEPS = 20
_MODEL_STEP_TOL = 1e-12    # relative step in log(1 - x) at which the model stops
# solve_J reads a k = 0 root as the crossing of its one-term tail for delta up
# to this, within at most this many tail sums; see _k0_crossing.
_K0_DELTA_MAX = 0.49
_K0_MAX_STEPS = 4

SOLVE_J_CACHE_SIZE = 4096      # memoized (n, k, delta) roots
KNOT_TAIL_CACHE_SIZE = 16384   # memoized (z, k, nu) knot tails
INTERMEDIATES_N_MAX = 4000     # n + 2 knot tails: ~1 s at the costliest k (n/3), CPython 3.11


class NumericalConsistencyError(RuntimeError):
    """An internal identity that the mathematics guarantees failed numerically."""


PROTOCOL_SQSV = "sqsv"
PROTOCOL_DQSV = "dqsv"
PROTOCOLS = (PROTOCOL_SQSV, PROTOCOL_DQSV)


@dataclass(frozen=True)
class CertificateQuery:
    """Parameters of a certificate request.

    protocol: "sqsv" or "dqsv"
    n:        number of tests performed, at most TAIL_ERROR_Z_MAX
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
        if self.n > TAIL_ERROR_Z_MAX:
            raise ValueError(f"n = {self.n} exceeds {TAIL_ERROR_Z_MAX}, the measured tail range")
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

    The tail if it sums to <= 1/2, else 1 - the summed complement; the window
    a median estimate calls the smaller is summed first.  A complement below
    1/2 - _SIDE_GUARD >> TAIL_REL_ERROR is returned at once: the tail sums > 1/2.
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
    high = None
    if (z + 0.4) * p < k + 0.7:  # median z p - (1 - 2p)/5 < k + 1/2: B > 1/2 likely
        high = window_sum(z, k + 1, z, p)
        if high < 0.5 - _SIDE_GUARD:
            return 1.0 - high
    low = window_sum(z, 0, k, p)
    if low <= 0.5:
        return low
    return 1.0 - (window_sum(z, k + 1, z, p) if high is None else high)


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
    A power of at most _POW_PREC_BITS bits is never truncated: it is exact.
    """
    if base.bit_length() * exp <= _POW_PREC_BITS:
        return base**exp, 0
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
    # The ratio C(z, j-1) q / (C(z, j) p) = j q_num / ((z - j + 1) p_num) is a
    # quotient of two integers stepped by q_num and p_num, so it is correctly
    # rounded from the same integers as when each product is formed afresh.
    cutoff = t0 * _TERM_CUTOFF
    terms = [t0]
    t = t0
    num, den = j0 * q_num, (z - j0 + 1) * p_num
    for _ in range(j0 - lo):
        t *= num / den
        terms.append(t)
        if t < cutoff:
            break
        num -= q_num
        den += p_num
    t = t0
    num, den = (z - j0) * p_num, (j0 + 1) * q_num
    for _ in range(hi - j0):
        t *= num / den
        terms.append(t)
        if t < cutoff:
            break
        num -= p_num
        den += q_num
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


def _model_root(n: int, k: int, delta: float, x: float) -> float:
    """Root of a float model of B_{n,k}(x) = delta by Newton from x, else x.

    The model is the lower window S = sum_{j<=k} t_j, t_j = C(n, j) x^j
    (1-x)^(n-j), summed in plain floats from its largest end by the ratio
    recurrence t_{j+1} / t_j = (n - j) x / ((j + 1) (1 - x)): up from
    (1-x)^n while the terms peak below k, else down from t_k.  Only log S
    is used, so the sum starts from a scaled term and never overflows for
    k <= _MODEL_K_MAX.  Above delta = 1/2 it models the complement 1 - S
    instead.  Newton runs in w = log(1 - x), where d log S / dw =
    (n - k) t_k / S and log S is nearly linear even next to 1.  A root that
    rounds to 1 gives the largest float below 1.  x is returned wherever
    the model cannot take a step: where an iterate leaves (0, 1), tested
    first as w < 0 so that exp(w) cannot overflow, where the slope is 0,
    or where Newton has not converged within _MODEL_MAX_STEPS.
    """
    upper = delta > 0.5
    target = math.log1p(-delta) if upper else math.log(delta)
    log_comb = None
    w = math.log1p(-x)
    for _ in range(_MODEL_MAX_STEPS):
        if not w < 0.0:
            return x
        p, q = -math.expm1(w), math.exp(w)
        if not q > 0.0:
            return x
        term = total = 1.0
        if (n - k + 1) * p < k * q:  # the terms peak below k: sum up from t_0
            ratio = p / q
            for j in range(k):
                term *= (n - j) / (j + 1) * ratio
                total += term
            log_s, slope = n * w + math.log(total), (n - k) * term / total
        else:  # sum down from t_k, the largest term
            if log_comb is None:
                log_comb = math.log(math.comb(n, k))
            ratio = q / p
            for j in range(k, 0, -1):
                term *= j / (n - j + 1) * ratio
                total += term
            log_s = log_comb + k * math.log(p) + (n - k) * w + math.log(total)
            slope = (n - k) / total
        value = log_s
        if upper:
            rest = -math.expm1(log_s)
            if not rest > 0.0:
                return x
            value, slope = math.log(rest), -slope * (1.0 - rest) / rest
        if slope == 0.0:
            return x
        step = (target - value) / slope
        w += step
        if abs(step) <= _MODEL_STEP_TOL * abs(w):
            root = -math.expm1(w)
            if root < 1.0:
                return root if root > 0.0 else x
            return math.nextafter(1.0, 0.0)
    return x


def _window_error(n: int, delta: float) -> float:
    """The relative error e of either window sum behind ``_decided_window``.

    (n + 8) u, u = 2^-53, for a direct window (n <= _DIRECT_Z_MAX) with
    delta >= 2 _DIRECT_SUM_MIN, and TAIL_REL_ERROR elsewhere.  The direct
    bound is derived term by term, so it holds for the lower window and the
    complement alike: a term j carries the rounding of 1 - p raised to the
    power n - j, (n - j) u, 1 ulp (2 u) from each of the two ``pow`` calls,
    u from the row entry and u from each of its two products, and the
    correctly rounded ``math.fsum`` adds u.  A factor that underflowed
    moves its term by at most C(n, j) 2^-1073, under 2^-100 of any sum
    above _DIRECT_SUM_MIN.  A sum below it is redone by the anchored
    kernel, but no tail above delta is: its direct total exceeds delta / 2
    >= _DIRECT_SUM_MIN.  A redone tail is below _DIRECT_SUM_MIN (1 + 2^-45)
    (its direct total, with that total's error and the terms that
    underflowed), so it and every tail right of it read below delta; a
    redone complement is far below the u of one minus it.
    tests/test_tail_bound.py measures the bound.
    """
    if n <= _DIRECT_Z_MAX and delta >= 2.0 * _DIRECT_SUM_MIN:
        return (n + 8) * _UNIT_ROUNDOFF
    return TAIL_REL_ERROR


def _window_margin(delta: float, error: float) -> float:
    """Three tail errors at delta, for a relative error bound of the side summed."""
    if delta <= 0.5:
        return 3.0 * error * max(delta, TAIL_ERROR_FLOOR)
    return 3.0 * (error * (1.0 - delta) + _UNIT_ROUNDOFF)  # one minus the complement


def _edge_error(n: int, k: int, delta: float, root: float,
                error: float) -> tuple[float, float, float]:
    """(e_s, keep_lo, keep_hi): the error bound behind the margin of the
    edges placed at the tangent's root, and the open range of x in which
    such an edge may be kept; see ``_decided_window``.

    In lower-window terms the window summed is [0, j] at x: j = k and
    x = x_s below 1/2, and above it the complement's mirror, j = n - k - 1
    and x = 1 - x_s, as 1 - B_{n,k}(x) = B_{n,n-k-1}(1 - x); x_s lies
    _SHAPE_OFFSET of the root's distance from 0 (from 1 above 1/2) inside
    the root.  The first ratio rho = j (1 - x) / ((n - j + 1) x), an
    integer quotient from the dyadic x_s rounded up, is below 1 only if
    j < (n + 1) x, so the anchor of ``_anchored_window_sum``, the mode
    clipped to the window, is pinned at j, and the log-concave terms fall
    from it by ratios of at most rho.  A term d steps away carries at most
    (2 d + 1) u, u = 2^-53 (the anchor's rounding, and a quotient and a
    product per step), and the terms, each weighted by itself, are
    dominated in likelihood ratio by the geometric law of ratio rho, whose
    mean is rho / (1 - rho).  So the sum is within e_s = (2 rho / (1 - rho)
    + 4) u + (n + 1) _TERM_CUTOFF: 2 u for the anchor and ``math.fsum``,
    2 u for the second-order terms and the rounding of the mean (d <= n <=
    TAIL_ERROR_Z_MAX), and at most n + 1 dropped terms, each below the
    cutoff relative to the anchor.  A rounding that lands on a subnormal
    double is absolute, and later ratio steps scale it by less than 1, so
    such roundings add under (n + 1)^2 2^-1076 < 2^-1029 in all, under
    2^-79 of the margin where delta >= _SHAPE_DELTA_MIN.

    e_s is returned where rho < 1 and e_s < error, the Newton phase's e,
    with the range ending at x_s / _SHAPE_KEEP (1 - (1 - x_s) / _SHAPE_KEEP
    above 1/2), _SHAPE_OFFSET / 2 of a kept edge's distance beyond x_s.
    Elsewhere, direct sums, windows of one term (j = 0) and delta within
    _SIDE_GUARD of 1/2 or of 1 or below _SHAPE_DELTA_MIN among them, it is
    (error, 0, 1), which keeps every edge.
    """
    lower = delta < 0.5
    j = k if lower else n - k - 1
    if (n <= _DIRECT_Z_MAX or j == 0 or abs(delta - 0.5) < _SIDE_GUARD
            or not _SHAPE_DELTA_MIN <= delta <= 1.0 - _SIDE_GUARD):
        return error, 0.0, 1.0
    near = root if lower else 1.0 - root
    near -= _SHAPE_OFFSET * near
    x_s = near if lower else 1.0 - near
    if not 0.0 < x_s < 1.0:
        return error, 0.0, 1.0
    p_num, p_den = x_s.as_integer_ratio()
    ahead, behind = (p_den - p_num, p_num) if lower else (p_num, p_den - p_num)
    rho = math.nextafter(j * ahead / ((n - j + 1) * behind), math.inf)
    if rho >= 1.0:
        return error, 0.0, 1.0
    shape = (2.0 * rho / (1.0 - rho) + 4.0) * _UNIT_ROUNDOFF + (n + 1) * _TERM_CUTOFF
    if shape >= error:
        return error, 0.0, 1.0
    if lower:
        return shape, x_s / _SHAPE_KEEP, 1.0
    return shape, 0.0, 1.0 - (1.0 - x_s) / _SHAPE_KEEP


def _decided_window(n: int, k: int, delta: float) -> tuple[float, float]:
    """[a, b] outside which every bisection test B_{n,k}(mid) > delta is decided.

    Each edge is certified with a margin m of three tail errors at delta:
    the computed tail satisfies B(a) > delta + m and B(b) < delta - m, with
    m = _window_margin(delta, e) for a relative error bound e of the window
    sum binom_tail returns, one that holds at the edge and at every midpoint
    beyond it.  For delta <= 1/2 the margin is m = 3 e delta.  The true B is
    decreasing, and (1 - e) B, the least a computed B summed on that side
    can read, increases with B; so for every mid <= a

        computed B(mid) >= (1 - e) B(a) >= (1 - e) (delta + 3 e delta) / (1 + e)
                         >= delta + e (1 - 4 e) delta > delta:

    one e delta covers the error of B(a), one that of B(mid), and the third
    the second-order terms and the rounding of delta + m (e >= 3 u, with
    u = 2^-53).  The bound for mid >= b mirrors it.  Below TAIL_ERROR_FLOOR
    the bound is absolute, e times the floor, and the same count takes
    m = 3 e TAIL_ERROR_FLOOR.  Above 1/2 the computed tail is one minus the
    complement, off by at most e (1 - B) + u, and the count gives
    m = 3 (e (1 - delta) + u).  A side with no certified edge stays at 0 or
    1, which decides nothing; above TAIL_ERROR_Z_MAX, where the error bound
    is not measured, the window is [0, 1].

    The Newton phase's edges take e = _window_error(n, delta), one bound of
    the lower window [0, k] and of the complement [k + 1, n] at every x, so
    it holds whichever side binom_tail returns.  For delta <= 1/2 a tail
    returned as one minus its complement errs by at most e (1 - B) + u and
    reads above 1/2 - TAIL_REL_ERROR, since its lower window summed above
    1/2 or its complement below 1/2 - _SIDE_GUARD: far above delta + m
    unless delta lies within _SIDE_GUARD of 1/2.  There 1 - B < delta +
    2^-19, and as e >= 9 u the three errors e delta still cover two such
    errors, the second-order terms and the rounding of delta + m.  Above
    1/2 the mirror argument holds: a tail summed on the lower side reads at
    most 1/2, far below delta - m unless delta lies within _SIDE_GUARD of
    1/2, and there it errs by e B < e (1 - delta) + u.

    The two edges placed at the tangent's root r (below) may take the
    closed-form bound e_s of ``_edge_error`` at x_s = r (1 - 2^-20) where
    it is below e.  Let delta < 1/2 - _SIDE_GUARD, n > _DIRECT_Z_MAX, so
    that binom_tail sums with the anchored kernel, delta >= 2^-900, and
    rho = k (1 - x_s) / ((n - k + 1) x_s) < 1, which gives k < (n + 1) x_s,
    so that the lower window's anchor, its mode clipped to [0, k], stays
    pinned at k for every x >= x_s.  Such an edge is kept only if edge >
    keep_lo = x_s / (1 - 2^-21), rounded, so that it lies beyond x_s by
    2^-21 of its distance from 0 up to rounding: 1 - x_s / edge >= 2^-21 -
    3 u.  Every skipped comparison is still decided:

    * mid >= x_s, on either side of the root: the lower window's one ratio
      rho(x) falls as x grows, so the bound at x_s holds at mid and at the
      edge, and the three-error count holds with e_s.  A tail returned as
      one minus its complement reads far above delta + m, as it does for
      e.  Right of the root the terms may be subnormal, which
      ``_edge_error`` bounds far below e_s delta.
    * mid < x_s: log B is concave with log B(0) = 0, so its chord from 0 to
      a gives log B(mid) >= (mid / a) log B(a) > (x_s / a) log delta, since
      the true B(a) > delta.  So log B(mid) - log delta > (1 - x_s / a)
      |log delta| > 2^-22 as delta < 1/2, and B(mid) > delta (1 + 2^-22).
      Under the measured contract, relative since B(mid) > 2^-900 >
      TAIL_ERROR_FLOOR, the computed B(mid) > delta, by about 10^6 times
      the three errors 3 TAIL_REL_ERROR delta.

    Above 1/2 + _SIDE_GUARD the same holds mirrored in 1 - x, as
    1 - B_{n,k}(x) = B_{n,n-k-1}(1 - x): x_s = 1 - (1 - r) (1 - 2^-20), the
    complement [k + 1, n] pinned at k + 1 where its ratio (n - k - 1) x /
    ((k + 2) (1 - x)) is below 1 at x_s, and falling as x decreases, and
    for mid > x_s the chord of log(1 - B), concave in 1 - x, giving
    1 - B(mid) > (1 - delta) (1 + 2^-22).  That gap exceeds the u of one
    minus the complement where 1 - delta >= _SIDE_GUARD, which the rule also
    requires.  Elsewhere, and where the shape bound is not below e (on a
    window of one term it never is), e_s = e, which holds at every x, and
    every edge is kept.

    The edges come from safeguarded Newton on log B, which is concave (B is
    the survival function of Beta(k+1, n-k)), so once an iterate lies right
    of the root the rest approach it monotonically.  It starts at the root
    of ``_model_root``'s float model of the tail where k <= _MODEL_K_MAX,
    and at the normal approximation above or where the model fails; the
    model's root is within rounding of the true one, so Newton usually
    stops at its first tail sum, but it only steers.  Newton stops at an x
    whose computed B is within _NEWTON_STOP m of delta (m of e), or whose
    step rounds to nothing, and the tangent there places each edge where B
    should read delta -+ 2 m_s (m_s of e_s), and at least one float from
    the tangent's root r.  B and 1 - B are both log-concave, so
    |B''| <= B'^2 / min(B, 1 - B) and the tangent misses by at most
    ((_NEWTON_STOP + 2) m)^2 / (2 min(B, 1 - B)), under 1e-3 m and, as
    e_s >= 4 u, under m_s / 5 for delta <= 1/2.  Where one float step moves
    B by about m_s or more, an edge may still round too near the root to
    certify; it is tried once more, twice as far from the root.  The slope
    d log B / dx = -n b_{n-1,k}(x) / B(x) uses a log-gamma pmf: it only
    steers, and every edge is checked with binom_tail itself.
    """
    a, b = 0.0, 1.0
    if n > TAIL_ERROR_Z_MAX:
        return a, b
    error = _window_error(n, delta)
    margin = _window_margin(delta, error)
    log_delta = math.log(delta)
    slope = functools.partial(_tail_slope, n, k)

    # Start from the normal approximation with continuity correction, refined
    # on the float model while its sums are short.
    u = _normal_upper_quantile(delta)
    c = k + 0.5
    x = (c + 0.5 * u * u + u * math.sqrt(c * (n - c) / n + 0.25 * u * u)) / (n + u * u)
    if k <= _MODEL_K_MAX:
        x = _model_root(n, k, delta, x)
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
        if x + step == x:  # the tangent's root rounds to x
            break
        x = x + step
    else:
        return a, b
    # The tangent at x aims each edge at delta -+ 2m, a margin m beyond what
    # it must certify; each edge is kept only if binom_tail certifies it,
    # and where m comes from the shape bound, only beyond x_s.  Where delta
    # is below about _NEWTON_STOP m (2e-8 TAIL_ERROR_FLOOR or less) the stop
    # test admits a tail far from delta and the tangent may leave [0, 1], so
    # only edges inside (lo, hi), within (a, b), are tried.
    if d > 0.0:
        root = x + (tail - delta) / d
        error, keep_lo, keep_hi = _edge_error(n, k, delta, root, error)
        margin = _window_margin(delta, error)
        lo, hi = max(a, keep_lo), min(b, keep_hi)
        reach = 2.0 * margin / d
        left = min(root - reach, math.nextafter(root, 0.0))
        right = max(root + reach, math.nextafter(root, 1.0))
        for _ in range(2):
            if lo < left < hi and binom_tail(n, k, left) > delta + margin:
                a = left
                break
            left = 2.0 * left - root
        for _ in range(2):
            if lo < right < hi and binom_tail(n, k, right) < delta - margin:
                b = right
                break
            right = 2.0 * right - root
    return a, b


def _k0_crossing(n: int, delta: float) -> tuple[float, float, float, float] | None:
    """(lo, hi, B(lo), B(hi)): the adjacent floats on which the bisection of
    solve_J(n, 0, delta) ends, with their computed tails, or None.

    At k = 0 the window binom_tail sums first below 1/2 is the one term
    t(x) = (1 - x)^n: fl(1 - x) ** n for direct sums (redone anchored below
    _DIRECT_SUM_MIN), else the anchor of ``_anchored_window_sum`` over
    [0, 0].  Where t <= 1/2, n x >= 1/2, and the computed t is
    non-increasing in x.  Anchored: one float step moves (1 - x)^n by a
    relative n ulp(x) / (1 - x) >= 2^-54, against the 2^-310 by which the
    320-bit truncations of q_num^n, q_num = p_den - p_num exact, can move
    it, and the truncation to 64 bits, ``ldexp`` and the t0 == 0 floor are
    monotone.  Direct, for n >= 5 and delta >= 2 _DIRECT_SUM_MIN: with
    ``pow`` within 1 ulp, as ``_window_error`` assumes, the powers of
    two adjacent values of fl(1 - x) lie a relative n u >= 5 u apart
    (u = 2^-53), beyond the 2 ulps <= 4 u the two may err; no tail above
    delta is redone anchored, and one redone reads below delta (see
    ``_window_error``).

    The search returns lo, hi = lo's successor with computed B(lo) > delta
    >= B(hi) where (n + 0.4) hi >= 0.7.  binom_tail's median estimate then
    fails at hi and beyond, where it returns t <= t(hi) <= delta.  Left of
    hi it returns t >= t(lo) > delta, or one minus a complement: above 1/2
    where the complement was summed first, and otherwise where t > 1/2, so
    above 1/2 within the measured contract, and so above delta <=
    _K0_DELTA_MAX < 1/2 - 1e-12.  Every comparison B(mid) > delta thus
    holds exactly left of hi, the bisection ends on (lo, hi), and its
    residual check reads their tails.  As -log(_K0_DELTA_MAX) > 0.71,
    (n + 0.4) x > 0.7 wherever B <= _K0_DELTA_MAX: in the band the check at
    hi restates that rule.

    The search starts at -expm1(log(delta) / n), within a few ulps of the
    root, and steps one float at a time for anchored sums.  A direct sum
    reads x only through fl(1 - x), constant on runs of up to 2^53 ulp(x)
    floats; it starts at the last x of the run of q_1 = 1 - m 2^-53,
    m = floor(x 2^53), the run boundary nearest the start: (1 - q_1) +
    2^-54, or the float below it where ties-to-even rounds 1 - x away from
    q_1.  A tail above delta moves the search to its run's last float, then
    to the next run's first; one at or below it moves left likewise.  A
    pair is accepted only once binom_tail has read both floats (B(1) = 0
    needs no sum), and None is returned after _K0_MAX_STEPS tail sums.
    """
    direct = n <= _DIRECT_Z_MAX
    if not (delta <= _K0_DELTA_MAX and n <= TAIL_ERROR_Z_MAX
            and (not direct or (n >= 5 and delta >= 2.0 * _DIRECT_SUM_MIN))):
        return None

    def run_edge(x: float, side: float) -> float:
        """The last (side 1) or first (side -1) float x' with fl(1 - x') = fl(1 - x)."""
        if not direct:
            return x
        q = 1.0 - x
        edge = (1.0 - q) + side * 2.0**-54
        return edge if 1.0 - edge == q else math.nextafter(edge, x)

    x = -math.expm1(math.log(delta) / n)
    if direct:
        x = run_edge(math.floor(x * 2.0**53) * 2.0**-53, 1.0)
    lo, hi = 0.0, 1.0
    tail_lo = tail_hi = math.nan
    for _ in range(_K0_MAX_STEPS):
        tail = binom_tail(n, 0, x)
        if tail > delta:
            lo, tail_lo = x, tail
            edge = run_edge(x, 1.0)
            x = math.nextafter(x, 1.0) if edge == x else edge
        else:
            hi, tail_hi = x, tail
            edge = run_edge(x, -1.0)
            x = math.nextafter(x, 0.0) if edge == x else edge
        if math.nextafter(lo, 1.0) == hi:
            return (lo, hi, tail_lo, tail_hi) if (n + 0.4) * hi >= 0.7 else None
    return None


@functools.lru_cache(maxsize=SOLVE_J_CACHE_SIZE, typed=True)
def solve_J(n: int, k: int, delta: float) -> float:
    """The unique x in [0, 1] with B_{n,k}(x) = delta, for n >= k + 1.

    B_{n,k} is continuous and strictly decreasing in x with B(0) = 1 and
    B(1) = 0, so plain bisection always converges; it is run to
    floating-point interval exhaustion (well under the iteration cap) and
    the residual is verified afterwards, relative to max(delta,
    TAIL_ERROR_FLOOR).  A bisection test whose midpoint lies outside
    ``_decided_window`` is skipped, since the tail's error bound
    (``_window_error``: the direct kernel's derived one or the measured
    TAIL_REL_ERROR contract, tightened at the last two edges by
    ``_edge_error``) already decides its outcome; given those bounds, the
    result is bitwise the one of the full bisection.  At k = 0 and delta <=
    _K0_DELTA_MAX, ``_k0_crossing`` finds the two adjacent floats on which
    that bisection ends from the closed-form root 1 - delta^(1/n), in about
    two tail sums, and neither the window nor the bisection runs.  Memoized
    on (n, k, delta); errors are not cached.
    """
    if k < 0 or n < k + 1:
        raise ValueError(f"need n >= k + 1 >= 1, got n = {n}, k = {k}")
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta = {delta} outside (0, 1]")
    if delta == 1.0:
        return 0.0
    # The bracket [lo, hi] and the computed B at its ends, NaN where not
    # evaluated.  A k = 0 crossing is two adjacent floats, on which the
    # bisection ends at once.
    crossing = _k0_crossing(n, delta) if k == 0 else None
    lo, hi, tail_lo, tail_hi = crossing or (0.0, 1.0, math.nan, math.nan)
    a, b = (lo, hi) if crossing else _decided_window(n, k, delta)
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
    if _zero_test_tail(q) > q.delta:
        # Then J > nu, so the bound is 0.  The root itself may lie too near 1
        # for bisection to meet its residual check.  A tie is left to solve_J,
        # whose root there is nu up to rounding, or 0 (bound 1) at delta = 1.
        return Certificate(q, 0.0)
    fidelity = max(0.0, 1.0 - solve_J(q.n, q.k, q.delta) / q.nu)
    return Certificate(q, fidelity)


@functools.lru_cache(maxsize=KNOT_TAIL_CACHE_SIZE, typed=True)
def _tail_ceiling(n: int, k: int, p: float) -> float:
    """A float that binom_tail(n, k, p) cannot exceed, inf where none is known.

    For k < n p the Chernoff-Hoeffding bound (Hoeffding, JASA 58, 13, 1963)
    gives B_{n,k}(p) <= exp(-n D(k/n || p)), with
    n D = k log(k / (n p)) + (n - k) log((n - k) / (n (1 - p))).  Each
    quotient is within 3 u of its true value relative, each log within
    1 ulp, and the two products and their sum round once each, so the
    computed n D is within 4 u size of the true one (size: n plus the
    magnitudes of the two products, u = 2^-53); 10 u size covers that and
    the rounding of the exponent.  The float test k < n p errs only where
    k / n is within an ulp of p, and there the bound reads about 1.  Where
    the bound plus TAIL_REL_ERROR of it and the contract's absolute floor
    lies below 1/2 - _SIDE_GUARD, binom_tail returns the lower window: a
    complement summed first reads below 1/2 - _SIDE_GUARD only if B > 1/2,
    even with its 2^-53.  The lower sum is then at most the bound plus that
    margin, which is returned.  So a delta above the ceiling settles every
    zero-certificate test without a tail sum; memoized on (n, k, p) like
    the knot tails.
    """
    if p == 1.0:
        return 0.0 if k < n else math.inf  # binom_tail(n, k, 1) = 0
    if not k < n * p or n > TAIL_ERROR_Z_MAX:  # no bound for k >= n p
        return math.inf
    r = n - k
    below = math.log(k / (n * p)) if k else 0.0
    above = math.log(r / (n * (1.0 - p)))
    divergence = k * below + r * above
    size = n - k * below + r * above
    bound = math.exp(10.0 * _UNIT_ROUNDOFF * size - divergence)
    upper = bound * (1.0 + 2.0 * TAIL_REL_ERROR) + TAIL_REL_ERROR * TAIL_ERROR_FLOOR
    return upper if upper < 0.5 - _SIDE_GUARD else math.inf


@functools.lru_cache(maxsize=KNOT_TAIL_CACHE_SIZE, typed=True)
def _knot_tail(z: int, k: int, nu: float) -> float:
    """B_{z,k}(nu), memoized for the DQSV knots and the zero-certificate tests."""
    return binom_tail(z, k, nu)


def _zero_test_tail(q: CertificateQuery) -> float:
    """B_{n,k}(nu) for the zero-certificate tests; 0 where _tail_ceiling puts it below delta."""
    return 0.0 if _tail_ceiling(q.n, q.k, q.nu) < q.delta else _knot_tail(q.n, q.k, q.nu)


def _h(z: int, k: int, n: int, nu: float) -> float:
    if z <= k:
        return 1.0
    tail = _knot_tail(z, k, nu) if z <= n else 0.0  # weighed by n - z + 1 = 0 at z = n + 1
    return ((n - z + 1) * tail + z * _knot_tail(z - 1, k, nu)) / (n + 1)


def _g(z: int, k: int, n: int, nu: float) -> float:
    if z <= k or z > n:  # z = n + 1 weighs its tail by 0
        return (n - z + 1) / (n + 1)
    return (n - z + 1) * _knot_tail(z, k, nu) / (n + 1)


def _zhat(k: int, n: int, nu: float, delta: float) -> int:
    """Largest z in [k, n] with h_z >= delta, for delta <= 1 = h_k; h_{n+1} is not read.

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
    """(zhat, kappa, zeta_tilde) for a non-degenerate DQSV query.

    kappa = min(1, (delta - h_{zhat+1}) / (h_zhat - h_{zhat+1})) where
    h_{zhat+1} < min(delta, h_zhat), else 0.  Below zhat = n that always
    holds: ``_zhat`` sets lo only at k (h_k = 1) or where h >= t = delta -
    ZHAT_TIE_TOL delta, and hi only one below a probe with h < t, so
    h_{zhat+1} < t <= min(delta, h_zhat); the min clips a kappa that the tie
    band pushed past 1.  In that band the unprobed h_{n+1} = B_{n,k}(nu) may
    read at or above delta, or level with h_n.  kappa = 0 then gives
    zeta_tilde = g_{n+1} = 0, a sound bound; kappa = 1 (g_n / delta) would
    overstate the exact 0.00556 at (136, 83, 1 - 2^-53, 0.7215780981758697).
    """
    n, k, nu, delta = q.n, q.k, q.nu, q.delta
    if delta == 1.0:  # h_k = 1 > h_z for every z > k, so zhat = k and kappa = 1
        return k, 1.0, _g(k, k, n, nu)
    zh = _zhat(k, n, nu, delta)
    h_z, h_z1 = _h(zh, k, n, nu), _h(zh + 1, k, n, nu)
    kappa = min(1.0, (delta - h_z1) / (h_z - h_z1)) if h_z1 < min(delta, h_z) else 0.0
    zeta = (1.0 - kappa) * _g(zh + 1, k, n, nu) + kappa * _g(zh, k, n, nu)
    return zh, kappa, zeta


def dqsv_intermediates(q: CertificateQuery) -> DqsvIntermediates | None:
    """Full h/g tables plus (zhat, kappa, zeta_tilde) for inspection.

    None where delta <= B_{n,k}(nu): the certificate is zero there and the
    interpolation data is undefined.  An SQSV query, or n above
    INTERMEDIATES_N_MAX, raises ValueError before any tail is summed.
    """
    if q.protocol != PROTOCOL_DQSV:
        raise ValueError(f"expected a DQSV query, got {q.protocol!r}")
    if q.n > INTERMEDIATES_N_MAX:  # refused before any of its n + 2 knot tails is summed
        raise ValueError(f"n = {q.n} exceeds {INTERMEDIATES_N_MAX}, "
                         "the largest table computed in about a second")
    if q.delta <= _zero_test_tail(q):
        return None
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

    At delta = 1 it is the closed form g_k = (n - k + 1)/(n + 1).  It is 0,
    conservative but sound, for any delta where B_{n,k}(nu) rounds to 1 (nu
    tiny, k close to n), and where the last knot h_{n+1} is not below both
    delta and h_n (``_dqsv_core``'s kappa rule).
    """
    if q.protocol != PROTOCOL_DQSV:
        raise ValueError(f"expected a DQSV query, got {q.protocol!r}")
    if q.delta <= _zero_test_tail(q):
        return Certificate(q, 0.0)
    _, _, zeta = _dqsv_core(q)
    fidelity = zeta / q.delta
    if fidelity < -BOUND_CLAMP_TOL or fidelity > 1.0 + BOUND_CLAMP_TOL:
        raise NumericalConsistencyError(
            f"DQSV fidelity bound {fidelity} outside [0, 1] beyond tolerance"
        )
    if fidelity < 0.0 or fidelity > 1.0:
        import logging  # imported here, so that no command without a clamp loads it

        logging.getLogger(__name__).debug(
            "DQSV fidelity bound %.17g clamped to [0, 1]", fidelity
        )
        fidelity = min(1.0, max(0.0, fidelity))
    return Certificate(q, fidelity)


def certificate(q: CertificateQuery) -> Certificate:
    """Dispatch on the query protocol."""
    if q.protocol == PROTOCOL_SQSV:
        return sqsv_certificate(q)
    return dqsv_certificate(q)
