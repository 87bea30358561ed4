"""The error ``binom_tail`` may make under its measured contract.

Where the tail itself is summed the bound is relative, TAIL_REL_ERROR times
the tail (times TAIL_ERROR_FLOOR below the floor); where the tail is one
minus its summed complement it is TAIL_REL_ERROR times the complement plus
the rounding of the subtraction, 2**-53.  ``contract_error`` takes a smaller
relative error too: ``solve_J``'s window uses the direct kernel's derived
bound, ``certificates._window_error``, for z <= 100 and delta at least
twice the least direct sum, and the anchored kernel meets its own derived
bound, ``anchored_sum_error``; test_tail_bound measures both.
``binom_tail`` returns the summed tail when it is at most 1/2 and one minus
the summed complement otherwise.
It sums first the window that a median estimate says is the smaller, and
returns a complement summed first only below 1/2 - 2**-20; both window sums
meet the relative bound (test_tail_side), so the tail would then have read
above 1/2 too, and each result is the one of summing the tail first.
Next to the root the window's last two edges may take the smaller bound
``certificates._edge_error`` returns; ``window_with_its_edge_error`` reads
it.
"""

import math

import pytest

from qsverify import certificates
from qsverify.certificates import TAIL_ERROR_FLOOR, TAIL_ERROR_Z_MAX, TAIL_REL_ERROR, solve_J


def contract_error(tail: float, exact, error: float = TAIL_REL_ERROR) -> float:
    """Allowed |tail - exact| for a computed ``tail`` of the true ``exact``,
    at a relative ``error`` of the side summed."""
    if tail <= 0.5:
        return error * max(float(exact), TAIL_ERROR_FLOOR)
    return error * float(1 - exact) + 2.0**-53


def anchored_sum_error(z: int, lo: int, hi: int) -> float:
    """The anchored kernel's error over [lo, hi], derived from the operations
    it performs: (2 (hi - lo) + 3) u + (z + 1) 1e-22, u = 2^-53.  The anchor
    is rounded once to a double (its big-integer truncations add under
    2^-62), each ratio step rounds a quotient and a product, ``math.fsum``
    rounds once, and at most z + 1 dropped terms each lie below the cutoff
    relative to the anchor.  Roundings that land on subnormal doubles add
    at most (hi - lo + 1)^2 2^-1076, under 2^-5 u TAIL_ERROR_FLOOR wherever
    the bound is below TAIL_REL_ERROR (hi - lo < 450)."""
    return (2 * (hi - lo) + 3) * 2.0**-53 + (z + 1) * 1e-22


def kernel_sum_error(z: int, lo: int, hi: int) -> float:
    """The derived error of the kernel ``binom_tail`` sums [lo, hi] with:
    ``anchored_sum_error`` above z = 100, and below it the larger of that
    and the direct kernel's (z + 8) u, as a direct total under the least
    direct sum is redone the anchored way."""
    anchored = anchored_sum_error(z, lo, hi)
    return anchored if z > certificates._DIRECT_Z_MAX else max((z + 8) * 2.0**-53, anchored)


def contract_grid() -> list[tuple[int, int, float]]:
    """The (z, k, p) on which the contract is measured, up to TAIL_ERROR_Z_MAX.

    The second part places p where the tail is 1e-30, 1e-100 and 1e-300, and
    at the floats next to those points.
    """
    cases = []
    for z in (10, 100, 101, 500, 1000, 2500, 4001, 10_000, 10**5, 10**6, TAIL_ERROR_Z_MAX):
        for k in sorted({0, 1, z // 10, z // 3, z // 2, 2 * z // 3, z - 1}):
            if 0 <= k < z:
                cases += [(z, k, p) for p in (1e-6, 1e-3, 0.01, 1 / 3, 0.5, 2 / 3, 0.95)]
    for z in (10, 99, 100, 101, 1000, 10_000):
        for k in sorted({0, 1, z // 3, z // 2, z - 2}):
            for delta in (1e-30, 1e-100, 1e-300):
                x = solve_J(z, k, delta)
                cases += [(z, k, p) for p in (x, math.nextafter(x, 0.0), math.nextafter(x, 1.0))]
    return cases


def window_with_its_edge_error(n: int, k: int, delta: float):
    """(a, b, root, (e_s, keep_lo, keep_hi)): ``_decided_window``'s window,
    the tangent's root it passed to ``_edge_error``, and what that gave for
    the edges placed there: their error bound and the open range in which
    they may be kept.  Where the Newton phase leaves no float between its
    edges, as at a root beyond the largest float below 1, no tangent is
    drawn: root is None, and every edge has the Newton phase's error."""
    recorded = []
    edge_error = certificates._edge_error

    def record(*args):
        recorded.append((args[3], edge_error(*args)))
        return recorded[-1][1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(certificates, "_edge_error", record)
        a, b = certificates._decided_window(n, k, delta)
    if not recorded:
        return a, b, None, (certificates._window_error(n, delta), 0.0, 1.0)
    (root, returned), = recorded
    return a, b, root, returned
