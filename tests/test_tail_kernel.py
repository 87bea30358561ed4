"""The anchored kernel keeps the bits of its earlier form.

``tail_reference`` keeps ``_pow_reduced`` and ``_anchored_window_sum`` as
they were before the kernel stepped the ratio recurrence's integers, took its
cutoff once per call and returned short powers exactly.  Each of these steps
leaves every float as it was, so the two must agree bit for bit.
"""

import math

import numpy as np

from qsverify import certificates
from qsverify.certificates import _DIRECT_Z_MAX, _POW_PREC_BITS
import tail_reference


def _random_p(rng) -> float:
    """Mostly p = u^e or 1 - u^e; one in four a dyadic m / 2^s with a short
    odd numerator, whose powers stay below the precision for larger exponents."""
    if rng.uniform() < 0.25:
        s = int(rng.integers(2, 30))
        return (2 * int(rng.integers(0, 2 ** (s - 1) - 1)) + 1) / 2**s
    u = float(rng.uniform()) ** int(rng.integers(1, 40))
    return u if rng.uniform() < 0.5 else 1.0 - u


def test_anchored_window_sum_keeps_the_reference_bits():
    rng = np.random.default_rng(21)
    for i in range(3000):
        z = int(10 ** rng.uniform(math.log10(_DIRECT_Z_MAX + 1), 5))
        p = _random_p(rng)
        if p in (0.0, 1.0):
            continue
        k = int(rng.integers(0, z))
        if i % 3 == 0:
            lo, hi = 0, k  # the lower tail
        elif i % 3 == 1:
            lo, hi = k + 1, z  # its complement
        else:
            lo, hi = sorted(int(v) for v in rng.integers(0, z + 1, size=2))
        want = tail_reference._anchored_window_sum(z, lo, hi, p)
        assert certificates._anchored_window_sum(z, lo, hi, p) == want, (z, lo, hi, p)


def test_pow_reduced_on_both_sides_of_the_precision():
    rng = np.random.default_rng(22)
    for bits in (1, 2, 3, 5, 17, 52, 53, 64, 106, 160, 161, 319, 320, 321, 400):
        for _ in range(20):
            base = (1 << (bits - 1)) | int(rng.integers(0, 2**62)) % (1 << (bits - 1))
            edge = _POW_PREC_BITS // bits
            for exp in {0, 1, max(edge - 1, 0), edge, edge + 1, edge + 2, 3 * edge + 7, 1000}:
                got = certificates._pow_reduced(base, exp)
                assert got == tail_reference._pow_reduced(base, exp), (base, exp)
                if bits * exp <= _POW_PREC_BITS:
                    assert got == (base**exp, 0)
