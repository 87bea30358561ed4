"""Per-row exact statistics by one plain DP per leftover system.

For each leftover i the failure count of the other L - 1 systems is built
from scratch, truncated at k, and the leftover's fidelity is weighted by
P[at most k failures]: O(L^2 k) per row, with no identity over the leftover
and nothing shared with ``qsverify.exact``.
"""

import numpy as np


def row_stats(fid: np.ndarray, k: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """P[accept] and E[F_leftover; accept] of each row, leftover uniform."""
    rows, length = fid.shape
    fail = 1.0 - np.clip(lam + (1.0 - lam) * fid, 0.0, 1.0)
    accept = np.zeros(rows)
    numer = np.zeros(rows)
    for i in range(length):
        dist = np.zeros((rows, k + 1))
        dist[:, 0] = 1.0
        for j in range(length):
            if j == i:
                continue
            q = fail[:, j:j + 1]
            shifted = np.zeros_like(dist)
            shifted[:, 1:] = dist[:, :-1]
            dist = dist * (1.0 - q) + shifted * q
        ok = dist.sum(axis=1)
        accept += ok
        numer += ok * fid[:, i]
    return accept / length, numer / length
