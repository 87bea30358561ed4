"""``binom_tail`` as it chose its side before it summed the likelier one first.

``binom_tail`` below always sums the lower window and sums the complement
only when that window is above 1/2, so it makes two sums for every tail above
1/2.  ``qsverify.certificates.binom_tail`` sums first the window that a
median estimate says is the smaller; tests require the two to return the
same bits.
"""

import operator

from qsverify.certificates import _DIRECT_Z_MAX, _anchored_window_sum, _direct_window_sum


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
    window_sum = _direct_window_sum if z <= _DIRECT_Z_MAX else _anchored_window_sum
    low = window_sum(z, 0, k, p)
    if low <= 0.5:
        return low
    # near 1 the complement is the well-conditioned side
    return 1.0 - window_sum(z, k + 1, z, p)
