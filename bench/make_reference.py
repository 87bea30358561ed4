"""Build the benchmark's stored reference tables and check them against oracles.

Run once, from the root of the repository, when the tables are first made or
when a deliberate change to certified numbers is accepted:

    PYTHONPATH=src python3 bench/make_reference.py

It writes, under ``bench/data``:

* ``queries-<workload>.csv``: the distinct certificate queries of each
  workload's query stream, with the bound the package gives for each;
* ``fig5-knots.csv``: both certificates at delta = 0.05, lambda = 1/3 for
  every (n, k) the single-round columns of ``reproduce fig5`` can show;
* ``fig4.csv``: the output of ``reproduce fig4``.

Every stored bound is checked before it is written against an evaluation
that shares no code with the package: the exact-rational oracle of
``tests/rational_oracle.py`` for small DQSV queries, and 40-digit mpmath
evaluations of the defining formulas otherwise. For SQSV the check brackets
the root of B_{n,k}(x) = delta within 1e-12 * nu of the package's value by two
sign evaluations, which bounds the error of the certified fidelity by 1e-12.
"""

from __future__ import annotations

import csv
import math
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
sys.path.insert(0, str(ROOT / "tests"))

import mpmath as mp  # noqa: E402
from rational_oracle import binom_tail_highprec, dqsv_fidelity_exact  # noqa: E402

from qsverify import exact as qexact  # noqa: E402
from qsverify.certificates import (  # noqa: E402
    CertificateQuery,
    dqsv_certificate,
    sqsv_certificate,
)
from qsverify.cli import main as cli_main  # noqa: E402
from qsverify.reproduce import default_fig5_grid  # noqa: E402
from qsverify.sources import NoiseSpec, rho2  # noqa: E402
from qsverify.strategy import build_singlet_strategy  # noqa: E402
from worker import sqsv_flat_deficit  # noqa: E402

TOL = 1e-12
DPS = 40
QUERY_COLUMNS = ["protocol", "n", "k", "delta", "lam", "fidelity_bound"]
FIG5_K_MAX = 30
RATIONAL_N_MAX = 25

# Every timed repeat runs its workload's whole pool, in an order drawn from
# the seed. A fixed set keeps the mix of cheap and costly queries, and so the
# latency percentiles, the same from seed to seed.
POOLS = {
    "cert-scaling": 1500,
    "mc-correlated": 400,
    "exact-adversarial": 1000,
}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _draw(workload: str, rng: random.Random) -> tuple[str, int, int, float, float]:
    if workload == "exact-adversarial":
        # Mostly DQSV, the protocol the sweeps check. With equal shares, or
        # with many queries on the DQSV fast path, the median latency falls
        # in a gap between clusters, where it jumps with small speed changes.
        proto = "sqsv" if rng.random() < 0.25 else "dqsv"
    else:
        proto = rng.choice(("sqsv", "dqsv"))
    if workload == "cert-scaling":
        # n from 10 to 10^4, log-uniform; k from 0 to 2% of n.
        n = int(round(_log_uniform(rng, 10, 10_000)))
        k = 0 if rng.random() < 0.25 else min(n - 1, int(n * rng.uniform(0.0, 0.02)))
        delta = _log_uniform(rng, 1e-4, 0.9)
        lam = rng.uniform(0.05, 0.9)
    elif workload == "mc-correlated":
        # The scale of the fig3 and simulate runs: N near 100, k <= 10.
        n = rng.randint(80, 120)
        k = rng.randint(0, 10)
        delta = _log_uniform(rng, 0.01, 0.9)
        lam = rng.uniform(0.1, 0.6)
    else:
        # The scale of the exact sweeps: N <= 12, few failures, and delta
        # from 0.05 like the sweeps' p_k, which keeps most DQSV queries off
        # the fast path for delta <= B_{n,k}(nu).
        n = rng.randint(2, 12)
        k = rng.randint(0, min(n - 1, 3))
        delta = _log_uniform(rng, 0.05, 0.9)
        lam = rng.uniform(0.05, 0.9)
    return proto, n, k, delta, lam


def make_pool(workload: str, size: int) -> list[tuple]:
    """Distinct queries; no two share (n, k, delta) or (n, k, lambda)."""
    rng = random.Random(f"qsverify-bench-pool:{workload}")
    seen = set()
    pool = []
    while len(pool) < size:
        proto, n, k, delta, lam = _draw(workload, rng)
        keys = {(n, k, delta), (n, k, lam)}
        if keys & seen:
            continue
        seen |= keys
        pool.append((proto, n, k, delta, lam))
    return pool


def package_bound(proto: str, n: int, k: int, delta: float, lam: float) -> float:
    q = CertificateQuery(proto, n, k, delta, lam)
    cert = sqsv_certificate(q) if proto == "sqsv" else dqsv_certificate(q)
    return cert.fidelity_bound


def _tail(z: int, k: int, p) -> mp.mpf:
    return binom_tail_highprec(z, k, p, dps=DPS)


def check_sqsv(n: int, k: int, delta: float, lam: float, bound: float) -> bool:
    """The root J of B_{n,k}(x) = delta lies within 1e-12 nu of the package's."""
    nu = 1.0 - lam
    if delta == 1.0:
        return bound == 1.0
    with mp.workdps(DPS):
        half_width = mp.mpf(TOL) * nu
        if bound == 0.0:
            # Certified zero: the true root must be at least nu (1 - 1e-12).
            return _tail(n, k, mp.mpf(nu) - half_width) >= delta
        j = (1 - mp.mpf(bound)) * nu
        lo = max(mp.mpf(0), j - half_width)
        hi = min(mp.mpf(1), j + half_width)
        return _tail(n, k, lo) >= delta >= _tail(n, k, hi)


def dqsv_mp(n: int, k: int, delta: float, lam: float) -> float:
    """The DQSV bound from its definition, in 40-digit arithmetic."""
    with mp.workdps(DPS):
        nu = 1 - mp.mpf(lam)
        d = mp.mpf(delta)
        if d <= _tail(n, k, nu):
            return 0.0

        def h(z):
            if z <= k:
                return mp.mpf(1)
            return ((n - z + 1) * _tail(z, k, nu) + z * _tail(z - 1, k, nu)) / (n + 1)

        def g(z):
            if z <= k:
                return mp.mpf(n - z + 1) / (n + 1)
            return (n - z + 1) * _tail(z, k, nu) / (n + 1)

        lo, hi = k, n
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if h(mid) >= d:
                lo = mid
            else:
                hi = mid - 1
        h_lo, h_hi = h(lo), h(lo + 1)
        kappa = (d - h_hi) / (h_lo - h_hi)
        return float(((1 - kappa) * g(lo + 1) + kappa * g(lo)) / d)


def check_dqsv(n: int, k: int, delta: float, lam: float, bound: float) -> bool:
    if n <= RATIONAL_N_MAX:
        truth = float(dqsv_fidelity_exact(k, n, Fraction(delta), Fraction(lam)))
    else:
        truth = dqsv_mp(n, k, delta, lam)
    return abs(truth - bound) <= TOL


def checked_rows(queries) -> list[list]:
    rows = []
    bad = []
    for i, (proto, n, k, delta, lam) in enumerate(queries):
        bound = package_bound(proto, n, k, delta, lam)
        check = check_sqsv if proto == "sqsv" else check_dqsv
        if not check(n, k, delta, lam, bound):
            bad.append((proto, n, k, delta, lam, bound))
        rows.append([proto, n, k, repr(delta), repr(lam), repr(bound)])
        if (i + 1) % 250 == 0:
            print(f"  {i + 1}/{len(queries)} checked", file=sys.stderr)
    if bad:
        for b in bad:
            print(f"oracle disagreement: {b}", file=sys.stderr)
        raise SystemExit(f"{len(bad)} stored bounds disagree with the oracle")
    return rows


def write_table(path: Path, rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(QUERY_COLUMNS)
        writer.writerows(rows)
    print(f"wrote {path.relative_to(ROOT)} ({len(rows)} rows)", file=sys.stderr)


def fig5_queries() -> list[tuple]:
    lam = build_singlet_strategy().lam
    out = []
    for n in map(int, default_fig5_grid(1000)):
        for k in range(min(n - 1, FIG5_K_MAX) + 1):
            for proto in ("sqsv", "dqsv"):
                out.append((proto, n, k, 0.05, lam))
    return out


def check_fig4(path: Path) -> None:
    """fig4's exact columns against 2^N enumeration, its bounds against the oracles.

    At p_k = 1 the true SQSV bound is 1, and the computed one may sit below it
    by what an error in the last bits of p_k makes of the flat tail near J = 0.
    """
    strat = build_singlet_strategy()
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    for row in rows:
        n, k, phi = int(row["n"]), int(row["k"]), float(row["phi"])
        slow = qexact.exact_stats_bruteforce(rho2(n, phi, NoiseSpec(1.0)), k, strat)
        assert abs(slow.p_k - float(row["p_k_exact"])) <= TOL, row
        assert abs(slow.F_k - float(row["F_k_exact"])) <= TOL, row
        delta = min(1.0, float(row["p_k_exact"]))
        truth = float(dqsv_fidelity_exact(k, n, Fraction(delta), Fraction(strat.lam)))
        assert abs(truth - float(row["dqsv_bound_at_p_k"])) <= 1e-11, row
        p_k, sqsv = float(row["p_k_exact"]), float(row["sqsv_bound_at_p_k"])
        if abs(p_k - 1.0) <= TOL:
            assert 1.0 - sqsv_flat_deficit(n, k, strat.lam) <= sqsv <= 1.0, row
        else:
            assert check_sqsv(n, k, p_k, strat.lam, sqsv), row
    print(f"fig4 reference: {len(rows)} rows agree with the oracles", file=sys.stderr)


def main() -> None:
    DATA.mkdir(exist_ok=True)
    for workload, size in POOLS.items():
        print(f"{workload}: checking {size} queries", file=sys.stderr)
        write_table(DATA / f"queries-{workload}.csv", checked_rows(make_pool(workload, size)))
    print("fig5: checking the (n, k) table", file=sys.stderr)
    write_table(DATA / "fig5-knots.csv", checked_rows(fig5_queries()))
    out = ROOT / ".bench_work" / "reference-fig4"
    if cli_main(["reproduce", "fig4", "--out-dir", str(out)]) != 0:
        raise SystemExit("reproduce fig4 failed")
    check_fig4(out / "fig4.csv")
    (DATA / "fig4.csv").write_bytes((out / "fig4.csv").read_bytes())
    shutil.rmtree(out)


if __name__ == "__main__":
    main()
