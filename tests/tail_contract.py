"""The error ``binom_tail`` may make under its measured contract.

Where the tail itself is summed the bound is relative, TAIL_REL_ERROR times
the tail (times TAIL_ERROR_FLOOR below the floor); where the tail is one
minus its summed complement it is TAIL_REL_ERROR times the complement plus
the rounding of the subtraction, 2**-53.  ``binom_tail`` sums the tail when
the result is at most 1/2.
"""

from qsverify.certificates import TAIL_ERROR_FLOOR, TAIL_REL_ERROR


def contract_error(tail: float, exact) -> float:
    """Allowed |tail - exact| for a computed ``tail`` of the true ``exact``."""
    if tail <= 0.5:
        return TAIL_REL_ERROR * max(float(exact), TAIL_ERROR_FLOOR)
    return TAIL_REL_ERROR * float(1 - exact) + 2.0**-53
