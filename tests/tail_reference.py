"""Earlier forms of the tail code in ``qsverify.certificates``, kept verbatim.

``binom_tail`` below always sums the lower window and sums the complement
only when that window is above 1/2, so it makes two sums for every tail above
1/2.  ``qsverify.certificates.binom_tail`` sums first the window that a
median estimate says is the smaller; tests require the two to return the
same bits.

``_pow_reduced`` and ``_anchored_window_sum`` are the anchored kernel as it
formed each ratio of the recurrence from fresh products, tested the cutoff
with a fresh product on every term, and truncated every power, however
small; tests require the package's kernel to return the same bits.
"""

import math
import operator

from qsverify import certificates
from qsverify.certificates import (
    _DIRECT_Z_MAX,
    _POW_PREC_BITS,
    _TERM_CUTOFF,
    _comb,
    _mantissa_exp_to_float,
)


def binom_tail(z: int, k: int, p: float) -> float:
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
    if z <= _DIRECT_Z_MAX:
        window_sum = certificates._direct_window_sum
    else:
        window_sum = certificates._anchored_window_sum
    low = window_sum(z, 0, k, p)
    if low <= 0.5:
        return low
    # near 1 the complement is the well-conditioned side
    return 1.0 - window_sum(z, k + 1, z, p)


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
