"""The bracketed zhat search returns the full-range binary search's zhat.

``zhat_reference.reference_zhat`` is the binary search over [k, n].  The
cases are every non-degenerate DQSV row of the benchmark's query tables
(read only), every DQSV query of ``fig5_rows`` at its defaults, and a
hypothesis grid over the edges of the search: delta = 1, delta just above
B_{n,k}(nu), nu near 0 and 1, and short and long ranges n - k.
"""

import csv
import math
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qsverify import certificates
from qsverify.certificates import (
    CertificateQuery,
    _knot_tail,
    _zhat,
    dqsv_certificate,
    dqsv_intermediates,
)
from qsverify.reproduce import fig5_rows
from zhat_reference import reference_zhat

DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def table_queries(name: str) -> list[CertificateQuery]:
    with (DATA / f"queries-{name}.csv").open(newline="") as fh:
        return [
            CertificateQuery("dqsv", int(r["n"]), int(r["k"]), float(r["delta"]), float(r["lam"]))
            for r in csv.DictReader(fh)
            if r["protocol"] == "dqsv"
        ]


def zhat_args(queries) -> list[tuple]:
    """(k, n, nu, delta) of every query with delta above B_{n,k}(nu)."""
    return [
        (q.k, q.n, q.nu, q.delta) for q in queries if q.delta > _knot_tail(q.n, q.k, q.nu)
    ]


def fig5_zhat_args() -> set:
    seen = set()
    zhat = certificates._zhat

    def record(k, n, nu, delta):
        seen.add((k, n, nu, delta))
        return zhat(k, n, nu, delta)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(certificates, "_zhat", record)
        fig5_rows()
    return seen


@pytest.mark.parametrize("name", ["cert-scaling", "mc-correlated", "exact-adversarial"])
def test_zhat_equals_reference_on_query_tables(name):
    cases = zhat_args(table_queries(name))
    assert len(cases) > 100
    assert [c for c in cases if _zhat(*c) != reference_zhat(*c)] == []


def test_zhat_equals_reference_on_fig5():
    cases = fig5_zhat_args()
    assert len(cases) > 50
    assert [c for c in cases if _zhat(*c) != reference_zhat(*c)] == []


@st.composite
def zhat_cases(draw):
    k = draw(st.integers(0, 300))
    span = draw(st.sampled_from([1, 16, 17]) | st.integers(1, 3000))
    n = k + span
    nu = draw(
        st.sampled_from([1e-9, 1e-4, 1.0 - 1e-4, 1.0 - 1e-9]) | st.floats(1e-6, 1.0 - 1e-6)
    )
    tail = _knot_tail(n, k, nu)
    assume(tail < 1.0)
    above = math.nextafter(tail, 1.0)
    delta = draw(
        st.just(1.0)
        | st.just(above)
        | st.just(min(1.0, max(above, tail * (1.0 + 1e-9))))
        | st.floats(above, 1.0)
        | st.floats(-300.0, 0.0).map(lambda e: 10.0**e).filter(lambda d: d > tail)
    )
    return k, n, nu, delta


@settings(max_examples=300, deadline=None)
@given(zhat_cases())
# Knot tails B_{z,62}(nu) for z in [95, 100] underflowed inside the direct
# sum's powers, so h lost monotonicity and the two searches split (102 vs 98).
@example((62, 155, 0.999999999, 5e-324))
def test_zhat_equals_reference_on_grid(case):
    assert _zhat(*case) == reference_zhat(*case)


def test_knot_tails_per_dqsv_query(monkeypatch, fresh_certificate_caches):
    # Each table's DQSV rows in table order, one memo per stream: 3151 knot
    # tails on cert-scaling, where the search over all of [k, n] took 11 075,
    # and 1711 on exact-adversarial, where a plain binary search while
    # n - k <= 16 took 2559.  Summing B_{n,k}(nu) for every degenerate test
    # as well took 3836 and 2084; the Chernoff decision spares most of them.
    # Summing B_{n+1,k}(nu), which h_{n+1} and g_{n+1} weigh by zero, took
    # 3153 and 1761.
    calls = []
    tail = certificates.binom_tail
    monkeypatch.setattr(certificates, "binom_tail", lambda *a: calls.append(a) or tail(*a))
    for name, rows, most in (("cert-scaling", 716, 3151), ("exact-adversarial", 741, 1711)):
        fresh_certificate_caches()
        calls.clear()
        queries = table_queries(name)
        for q in queries:
            dqsv_certificate(q)
        assert len(queries) == rows
        assert len(calls) <= most, name


def test_no_knot_tail_beyond_n(monkeypatch):
    # h_{n+1} and g_{n+1} weigh B_{n+1,k}(nu) by n - z + 1 = 0, so neither a
    # certificate nor a full table sums it, and the table keeps its bits.
    calls = []
    tail = certificates.binom_tail
    monkeypatch.setattr(certificates, "binom_tail", lambda *a: calls.append(a) or tail(*a))
    for n, k, delta, lam in ((1, 0, 2 / 3, 1 / 3), (12, 2, 0.3, 1 / 3), (300, 2, 0.05, 0.6)):
        q = CertificateQuery("dqsv", n, k, delta, lam)
        dqsv_certificate(q)
        inter = dqsv_intermediates(q)
        assert (n + 1, k, q.nu) not in calls
        assert inter.g[n + 1] == 0.0
        assert inter.h[n + 1] == (n + 1) * tail(n, k, q.nu) / (n + 1)
