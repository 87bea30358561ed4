"""The Chernoff decision of the zero-certificate tests is sound.

``certificates._tail_ceiling(n, k, p)`` is a float that
``binom_tail(n, k, p)`` never exceeds (inf where no bound is known).  A
delta above it decides the three tests that ask whether B_{n,k}(nu) reaches
delta (``sqsv_certificate``, ``dqsv_certificate`` and
``dqsv_intermediates``, all through ``_zero_test_tail``) without a tail
sum.  The random draws reach n = 10^5 and include p = 1, k >= n p, k = 0
(where the bound is exact), delta down to the smallest subnormal, and delta
one float on either side of the computed tail and of the unpadded bound.
On the benchmark's query tables (read only) every certificate equals the
one computed with the decision switched off.
"""

import csv
import math
import random
from pathlib import Path

import pytest

from qsverify import certificates
from qsverify.certificates import (
    CertificateQuery,
    _tail_ceiling,
    binom_tail,
    certificate,
    dqsv_certificate,
    dqsv_intermediates,
    sqsv_certificate,
)

QUERY_TABLES = sorted(
    (Path(__file__).resolve().parents[1] / "bench" / "data").glob("queries-*.csv")
)


def decides(n: int, k: int, p: float, delta: float) -> bool:
    """Whether the ceiling settles that binom_tail(n, k, p) reads below delta."""
    return _tail_ceiling(n, k, p) < delta


def chernoff_bound(n: int, k: int, p: float) -> float:
    """exp(-n D(k/n || p)) in plain floats, without the decision's padding."""
    divergence = (n - k) * math.log((n - k) / (n * (1.0 - p)))
    if k:
        divergence += k * math.log(k / (n * p))
    return math.exp(-divergence)


def random_draws(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = int(10 ** rng.uniform(0.0, 5.0))
        mode = rng.random()
        if mode < 0.1:
            p = 1.0
        elif mode < 0.2:
            p = 10.0 ** rng.uniform(-8.0, 0.0)
        else:
            p = rng.random()
        k = rng.randrange(n) if rng.random() < 0.3 else min(n - 1, int(n * p * rng.random()))
        yield n, k, p


def zero_failure_draws(seed: int, count: int):
    """k = 0, where the Chernoff bound (1 - p)^n is exact, so only the
    padding of its exponent keeps the ceiling above the computed tail: n
    log-uniform in [10^3, 10^5] and n p in [1, 700], where the tail is a
    normal double below 1/2."""
    rng = random.Random(seed)
    for _ in range(count):
        n = int(10 ** rng.uniform(3.0, 5.0))
        yield n, 0, 10 ** rng.uniform(0.0, math.log10(700.0)) / n


def deltas(n: int, k: int, p: float, tail: float, rng: random.Random) -> list[float]:
    out = [5e-324, 1e-300, 2.0**-1000, 10.0 ** rng.uniform(-300.0, 0.0), 1.0]
    for centre in (tail, chernoff_bound(n, k, p) if k < n * p < n else tail):
        if 0.0 < centre <= 1.0:
            out += [math.nextafter(centre, 0.0), centre, math.nextafter(centre, 1.0)]
    return [d for d in out if 0.0 < d <= 1.0]


def test_decisions_are_below_the_computed_tail():
    rng = random.Random(11)
    decided = undecided = 0
    draws = [
        *random_draws(seed=7, count=1500),
        *zero_failure_draws(seed=13, count=500),
        # The tail reads 3.975054279688515e-99, the ceiling without the
        # padding of its exponent 3.975054279688244e-99.
        (4703, 0, 0.047034792200516096),
    ]
    for n, k, p in draws:
        tail = binom_tail(n, k, p)
        assert tail <= _tail_ceiling(n, k, p), (n, k, p)
        for delta in deltas(n, k, p, tail, rng):
            if decides(n, k, p, delta):
                decided += 1
                assert tail < delta, (n, k, p, delta, tail)
            else:
                undecided += 1
        if p < 1.0 and k * p.as_integer_ratio()[1] >= n * p.as_integer_ratio()[0]:
            assert _tail_ceiling(n, k, p) == math.inf
    # Both answers occur often, so the check is not vacuous either way.
    assert decided > 2000 and undecided > 2000


def test_decision_at_the_edges():
    # nu = 1 (lambda = 0): the tail is 0 below every delta.
    assert decides(50, 3, 1.0, 5e-324)
    assert binom_tail(50, 3, 1.0) == 0.0
    # k >= n p: no bound, nothing decided.
    assert _tail_ceiling(10, 5, 0.5) == _tail_ceiling(10, 9, 0.1) == math.inf
    # The bound lies below delta but not below 1/2: nothing decided.
    n, k, p = 4, 1, 0.5
    assert chernoff_bound(n, k, p) > 0.5
    assert _tail_ceiling(n, k, p) == math.inf
    # Near the floor the decision needs the absolute term of the contract.
    n, k, p = 2000, 0, 0.5
    assert decides(n, k, p, 1e-300)
    assert not decides(n, k, p, 5e-324)


def table_queries(path: Path) -> list[CertificateQuery]:
    with path.open(newline="") as fh:
        return [
            CertificateQuery(
                r["protocol"], int(r["n"]), int(r["k"]), float(r["delta"]), float(r["lam"])
            )
            for r in csv.DictReader(fh)
        ]


@pytest.mark.parametrize("path", QUERY_TABLES, ids=lambda p: p.stem)
def test_tables_certify_the_same_without_the_decision(path, monkeypatch, fresh_certificate_caches):
    queries = table_queries(path)
    with_decision = [certificate(q).fidelity_bound for q in queries]
    assert any(decides(q.n, q.k, q.nu, q.delta) for q in queries)
    fresh_certificate_caches()
    monkeypatch.setattr(certificates, "_tail_ceiling", lambda *args: math.inf)
    without = [certificate(q).fidelity_bound for q in queries]
    assert with_decision == without


def test_decided_queries_sum_no_tail_at_n(monkeypatch):
    # A decided certificate does not sum B_{n,k}(nu); its zhat search probes
    # knots far below n.  (dqsv_intermediates sums it once, for its table.)
    calls = []
    tail = certificates.binom_tail
    monkeypatch.setattr(certificates, "binom_tail", lambda *a: calls.append(a) or tail(*a))
    n, k, delta, lam = 400, 2, 0.05, 1 / 3
    nu = 1.0 - lam
    assert decides(n, k, nu, delta)
    sqsv_certificate(CertificateQuery("sqsv", n, k, delta, lam))
    dqsv_certificate(CertificateQuery("dqsv", n, k, delta, lam))
    assert (n, k, nu) not in calls


@pytest.mark.parametrize("n, k, lam", [(2474, 1941, 1 / 3), (975, 606, 0.5433446407900329)])
def test_delta_one_where_the_tail_rounds_to_one(n, k, lam):
    # A tie B_{n,k}(nu) = delta = 1: SQSV's zero test is strict (B > delta),
    # so it keeps the exact bound 1 (J = 0 at delta = 1); DQSV's is
    # delta <= B, so it returns 0, and the intermediates are None.
    assert binom_tail(n, k, 1.0 - lam) == 1.0
    assert sqsv_certificate(CertificateQuery("sqsv", n, k, 1.0, lam)).fidelity_bound == 1.0
    dqsv = CertificateQuery("dqsv", n, k, 1.0, lam)
    assert dqsv_certificate(dqsv).fidelity_bound == 0.0
    assert dqsv_intermediates(dqsv) is None
