"""Independent exact-rational reference for the certificate formulas.

Everything here is evaluated in ``fractions.Fraction`` arithmetic straight
from the defining expressions, with a linear scan for the threshold index, so
it shares no code path (and no floating point) with the library
implementation it is used to validate.
"""

from fractions import Fraction
from math import comb


def binom_tail_exact(z: int, k: int, p: Fraction) -> Fraction:
    """Lower binomial tail as an exact rational; x^0 = 1 even at x = 0."""
    p = Fraction(p)
    q = 1 - p
    total = Fraction(0)
    for j in range(min(k, z) + 1):
        term = Fraction(comb(z, j))
        if j > 0:
            term *= p**j
        if z - j > 0:
            term *= q ** (z - j)
        total += term
    return total


def h_exact(z: int, k: int, n: int, lam: Fraction) -> Fraction:
    nu = 1 - Fraction(lam)
    if z <= k:
        return Fraction(1)
    return (
        (n - z + 1) * binom_tail_exact(z, k, nu) + z * binom_tail_exact(z - 1, k, nu)
    ) / Fraction(n + 1)


def g_exact(z: int, k: int, n: int, lam: Fraction) -> Fraction:
    nu = 1 - Fraction(lam)
    if z <= k:
        return Fraction(n - z + 1, n + 1)
    return (n - z + 1) * binom_tail_exact(z, k, nu) / Fraction(n + 1)


def dqsv_fidelity_exact(k: int, n: int, delta: Fraction, lam: Fraction) -> Fraction:
    """Exact defensive-certificate fidelity bound.

    Returns 0 in the degenerate regime delta <= B_{n,k}(nu); otherwise finds
    the largest z with h_z >= delta by linear scan and interpolates.
    """
    delta = Fraction(delta)
    lam = Fraction(lam)
    if not 0 < delta <= 1:
        raise ValueError("delta outside (0, 1]")
    nu = 1 - lam
    if delta <= binom_tail_exact(n, k, nu):
        return Fraction(0)
    zhat = k
    for z in range(k, n + 1):
        if h_exact(z, k, n, lam) >= delta:
            zhat = z
        else:
            break
    h_lo = h_exact(zhat, k, n, lam)
    h_hi = h_exact(zhat + 1, k, n, lam)
    kappa = (delta - h_hi) / (h_lo - h_hi)
    zeta = (1 - kappa) * g_exact(zhat + 1, k, n, lam) + kappa * g_exact(zhat, k, n, lam)
    return zeta / delta


def binom_tail_highprec(z: int, k: int, p: float, dps: int = 50):
    """Lower binomial tail of the float p at ``dps`` digits via mpmath.

    Sums the tail that excludes the mode floor((z + 1) p), the smaller one,
    with a term recurrence outward from the window's largest term, and stops
    on each side once a term falls below 10**-dps of the running sum (the
    pmf is log-concave, so the rest is smaller still).  A tail far below 1
    is thus summed directly rather than left as 1 minus a sum near 1, so the
    result carries ``dps`` digits relative to the tail itself; it stays fast
    for any (z, k, p) at the sizes used in tests, up to z = 10^7.
    """
    import mpmath as mp

    if k >= z:
        return mp.mpf(1)
    with mp.workdps(dps):
        pm = mp.mpf(p)
        qm = 1 - pm
        if pm == 0:
            return mp.mpf(1)
        if qm == 0:
            return mp.mpf(0)
        eps = mp.mpf(10) ** -dps

        mode = int(mp.floor((z + 1) * pm))

        def window(lo, hi):
            top = min(max(mode, lo), hi)
            acc = first = mp.binomial(z, top) * pm**top * qm ** (z - top)
            term = first
            for j in range(top, lo, -1):
                term *= mp.mpf(j) / (z - j + 1) * qm / pm
                acc += term
                if term < eps * acc:
                    break
            term = first
            for j in range(top, hi):
                term *= mp.mpf(z - j) / (j + 1) * pm / qm
                acc += term
                if term < eps * acc:
                    break
            return acc

        if k < mode:
            return window(0, k)
        return 1 - window(k + 1, z)
