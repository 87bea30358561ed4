"""The binary search for zhat over the whole range [k, n], kept as a reference.

This is the search ``certificates._zhat`` ran before it started from a
normal-approximation guess and galloped to a bracket, with the relative tie
threshold delta - ZHAT_TIE_TOL * delta.  Any correct search for the largest z
with h_z >= that threshold on a decreasing h returns the same z, so the
library's result must equal this one exactly.
"""

from qsverify.certificates import ZHAT_TIE_TOL, _h


def reference_zhat(k: int, n: int, nu: float, delta: float) -> int:
    lo, hi = k, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _h(mid, k, n, nu) >= delta - ZHAT_TIE_TOL * delta:
            lo = mid
        else:
            hi = mid - 1
    return lo
