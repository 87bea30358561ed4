"""One repeat of one benchmark workload, in a fresh interpreter.

``bench/run.py`` starts this script once per timed repeat, so no
process-wide cache carries results from one repeat into the next and every
repeat pays the cold start a command-line user pays. The repeat:

1. times ``import qsverify`` plus ``build_singlet_strategy()`` (set-up);
2. prepares the workload's inputs from ``--seed`` and ``--repeat``;
3. runs and times the workload: ``qsverify.cli.main(argv)`` in-process for
   the command-line parts, direct ``sqsv_certificate``/``dqsv_certificate``
   calls for the query stream, each query timed on its own;
4. checks every output, outside the timed region;
5. with ``--trace 1``, records spans around the package's public functions
   (see ``spans.py``) and derives the per-layer metrics from them;
6. writes one JSON result to ``--out``.

The checks use closed forms, stored reference tables (``bench/data``, built
by ``make_reference.py`` and checked there against independent oracles) and
invariants that hold for any random stream, so they survive a change of the
simulator's stream contract.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import sys
import time
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
TOL = 1e-12          # certificates against the stored references
PRINTED_DIGITS = 12  # the package's CSVs print %.12g
SIGMA = 5.0          # Monte Carlo estimates against closed forms
SOUND_TOL = 1e-9     # slack allowed above a truth value

# Workload sizes; each timed repeat runs all of its workload's parts once.
FIG3_ROUNDS = 800            # rounds per protocol in reproduce fig3
FIG3_N = 100                 # the N of reproduce fig3
SIM_N = 100
# rho2(N=100, phi=3pi/4) at k=0 accepts a round with probability 0.437, so
# 300 acceptances take 687 +- 30 rounds: always three 300-round chunks of the
# acceptance loop. At phi=pi (0.340, 882 +- 41 rounds) the chunk count would
# flip between 3 and 4 from seed to seed and make wall_s bimodal.
SIM_PHI = 3 * math.pi / 4
SIM_TARGET_ACCEPTANCES = 300
FIG5_AVG_ROUNDS = 160
SWEEP_N12_TRIALS = 120
SWEEP_N8_TRIALS = 150
SELF_CHECK_TRIALS = 40       # the small soundness self-check of the other workloads
CROSS_CHECK_ROUNDS = 2000    # rho2(N=5, phi=pi) at k=0 against its closed-form p_0
CROSS_CHECK_N = 5
LAM = 1 / 3                  # lambda of the singlet strategy


class Repeat:
    """The operations of one repeat, their timings and their check results."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.ops: list[dict] = []
        self.queries: list = []             # fidelity bound, or the error raised
        self.latencies: list[float] = []
        self.messages: list[str] = []

    # -- timed operations --------------------------------------------------

    def cli(self, *argv) -> dict:
        from qsverify import cli

        argv = [str(a) for a in argv]
        out = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            rc, error = None, f"{type(exc).__name__}: {exc}"
        op = {
            "what": " ".join(argv[:2]),
            "rc": rc,
            "seconds": time.perf_counter() - start,
            "stdout": out.getvalue(),
            "error": error,
            "failed_checks": 0,
        }
        self.ops.append(op)
        return op

    def query_stream(self, queries: list[tuple]) -> None:
        from qsverify import certificates

        perf = time.perf_counter
        for proto, n, k, delta, lam, _ in queries:
            start = perf()
            try:
                q = certificates.CertificateQuery(proto, n, k, delta, lam)
                if proto == "sqsv":
                    got = certificates.sqsv_certificate(q).fidelity_bound
                else:
                    got = certificates.dqsv_certificate(q).fidelity_bound
            except Exception as exc:  # counted as a failed query
                got = f"{type(exc).__name__}: {exc}"
            self.latencies.append(perf() - start)
            self.queries.append(got)

    # -- checks ------------------------------------------------------------

    def check(self, op: dict, ok: bool, message: str) -> bool:
        if not ok:
            op["failed_checks"] += 1
            self.messages.append(f"{op['what']}: {message}")
        return ok

    def ran(self, op: dict) -> bool:
        return self.check(op, op["rc"] == 0, f"exit {op['rc']} {op['error'] or ''}".strip())

    def check_stream(self, queries: list[tuple]) -> int:
        failed = 0
        for (proto, n, k, delta, lam, ref), got in zip(queries, self.queries):
            if isinstance(got, str) or abs(got - ref) > TOL:
                failed += 1
                self.messages.append(
                    f"certificate {proto}(n={n}, k={k}, delta={delta!r}, lam={lam!r}) = "
                    f"{got!r}, reference {ref!r}"
                )
        return failed


# -- inputs -------------------------------------------------------------------


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def load_queries(name: str) -> list[tuple]:
    return [
        (r["protocol"], int(r["n"]), int(r["k"]), float(r["delta"]), float(r["lam"]),
         float(r["fidelity_bound"]))
        for r in read_csv(DATA / f"{name}.csv")
    ]


def write_simulate_config(path: Path, seed: int, n: int, k: int, phi: float,
                          stopping: str) -> None:
    """A DQSV run on rho2(n, phi)."""
    path.write_text(
        f"protocol: dqsv\nn: {n}\nk: {k}\nseed: {seed}\n{stopping}"
        f"source:\n  model: rho2\n  phi: {phi!r}\n",
        encoding="utf-8",
    )


def prepare(workload: str, seed: int, repeat: int, workdir: Path) -> dict:
    """Inputs for one repeat, all drawn from (workload, seed, repeat)."""
    rng = random.Random(f"{workload}:{seed}:{repeat}")
    seeds = [rng.getrandbits(32) for _ in range(3)]
    queries = load_queries(f"queries-{workload}")
    rng.shuffle(queries)
    plan = {"seeds": seeds, "queries": queries}
    if workload == "mc-correlated":
        write_simulate_config(
            workdir / "simulate.yaml", seeds[1], SIM_N, 0, SIM_PHI,
            f"stopping:\n  mode: acceptances\n  target_acceptances: {SIM_TARGET_ACCEPTANCES}\n",
        )
    elif workload == "exact-adversarial":
        write_simulate_config(
            workdir / "simulate.yaml", seeds[2], CROSS_CHECK_N, 0, math.pi,
            f"rounds: {CROSS_CHECK_ROUNDS}\n",
        )
    return plan


# -- workloads (timed) --------------------------------------------------------


def run_workload(workload: str, rep: Repeat, plan: dict) -> None:
    wd = rep.workdir
    s = plan["seeds"]
    if workload == "mc-correlated":
        rep.cli("reproduce", "fig3", "--rounds", FIG3_ROUNDS, "--seed", s[0],
                "--out-dir", wd / "fig3")
        rep.cli("simulate", "--config", wd / "simulate.yaml", "--out-dir", wd / "simulate")
        rep.cli("oracle-check", "dqsv-sweep", "--n", 6, "--k", 1,
                "--trials", SELF_CHECK_TRIALS, "--seed", s[2])
    elif workload == "cert-scaling":
        rep.cli("reproduce", "fig5", "--avg-rounds", FIG5_AVG_ROUNDS, "--seed", s[0],
                "--out-dir", wd / "fig5")
        rep.cli("oracle-check", "dqsv-sweep", "--n", 6, "--k", 1,
                "--trials", SELF_CHECK_TRIALS, "--seed", s[2])
    else:
        rep.cli("oracle-check", "dqsv-sweep", "--n", 12, "--k", 1,
                "--trials", SWEEP_N12_TRIALS, "--seed", s[0])
        rep.cli("oracle-check", "dqsv-sweep", "--n", 8, "--k", 0,
                "--trials", SWEEP_N8_TRIALS, "--seed", s[1])
        rep.cli("reproduce", "fig4", "--out-dir", wd / "fig4")
        rep.cli("simulate", "--config", wd / "simulate.yaml", "--out-dir", wd / "simulate")
    rep.query_stream(plan["queries"])


# -- output checks (untimed) --------------------------------------------------


def _num(text: str) -> float:
    return float(text) if text not in ("", None) else math.nan


def _within(x: float, mean: float, sd: float) -> bool:
    return abs(x - mean) <= SIGMA * sd + SOUND_TOL


def _printed_equal(a: float, b: float) -> bool:
    """Equal to TOL, allowing one unit of the last printed digit of b."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    unit = 10.0 ** (math.floor(math.log10(abs(b))) + 1 - PRINTED_DIGITS) if b else 0.0
    return abs(a - b) <= TOL + unit


def sqsv_flat_deficit(n: int, k: int, lam: float) -> float:
    """How far below 1 the SQSV bound at delta = p_k = 1 may read.

    The true bound there is 1 (J = 0), but near x = 0 the tail
    B_{n,k}(x) ~ 1 - C(n, k+1) x^(k+1) is flat, so an error eta in the
    computed p_k moves the root to J = (eta / C(n, k+1))^(1/(k+1)). This
    allows eta up to 1e-13, some 450 units in the last place.
    """
    return (1e-13 / math.comb(n, k + 1)) ** (1 / (k + 1)) / (1 - lam)


def rho2_k0(n: int, phi: float) -> tuple[float, tuple[float, float]]:
    """p_0 and (F, sd1), the conditional truth, of rho2(n, phi) at k = 0.

    Every round whose odd copy is tested passes with q = lam + (1 - lam) c,
    c = cos^2(phi/2) being the odd copy's fidelity; the odd copy is the
    leftover in 1/(1 + n q) of accepted rounds and leaves fidelity c,
    otherwise the leftover has fidelity 1.
    """
    c = math.cos(phi / 2) ** 2
    q = LAM + (1 - LAM) * c
    p0 = (1 + n * q) / (n + 1)
    odd = 1 / (1 + n * q)
    return p0, (1 - odd * (1 - c), (1 - c) * math.sqrt(odd * (1 - odd)))


def binom_cdf(n: int, k: int, p: float) -> float:
    return math.fsum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k + 1))


def check_fig3(rep: Repeat, op: dict, counts: dict) -> None:
    """p_hat near the closed-form p_k; DQSV bounds at most the conditional truth."""
    if not rep.ran(op):
        return
    out = rep.workdir / "fig3"
    rounds = json.loads((out / "manifest.json").read_text())["rounds"]
    rows = read_csv(out / "fig3.csv")
    rep.check(op, len(rows) == 11, f"{len(rows)} rows, expected k = 0..10")
    counts["rounds"] += 2 * rounds
    for row in rows:
        k = int(row["k"])
        # rho1 at F = 1: the mixed branch passes each test with probability 1/2.
        p_k = 2 / 3 + binom_cdf(FIG3_N, k, 0.5) / 3
        sd = math.sqrt(p_k * (1 - p_k) / rounds)
        for proto in ("sqsv", "dqsv"):
            p_hat = _num(row[f"{proto}_p_hat"])
            rep.check(op, _within(p_hat, p_k, sd), f"k={k} {proto}_p_hat {p_hat} vs {p_k}")
            for tag in ("p_hat", "p_lo95"):
                if not math.isnan(_num(row[f"{proto}_bound_at_{tag}"])):
                    counts["certs"] += 1
        truth = _num(row["cond_fidelity_truth"])
        tol = SIGMA * _num(row["cond_truth_stderr"]) + SOUND_TOL
        for tag in ("p_hat", "p_lo95"):
            bound = _num(row[f"dqsv_bound_at_{tag}"])
            rep.check(op, not bound > truth + tol, f"k={k} DQSV bound {bound} > truth {truth}")


def check_simulate(rep: Repeat, op: dict, counts: dict, p_exact: float,
                   truth: tuple | None, target: int | None) -> None:
    """p_hat near the exact p_k; rounds.csv agrees with summary.json.

    ``truth`` is (F, sd1): the exact conditional fidelity and the standard
    deviation of one accepted round's leftover fidelity about it.
    """
    if not rep.ran(op):
        return
    out = rep.workdir / "simulate"
    summary = json.loads((out / "summary.json").read_text())
    rounds, accepted = summary["rounds"], summary["accepted"]
    counts["rounds"] += rounds
    sd = math.sqrt(p_exact * (1 - p_exact) / rounds)
    rep.check(op, _within(summary["p_hat"], p_exact, sd),
              f"p_hat {summary['p_hat']} vs exact {p_exact}")
    if target is not None:
        rep.check(op, accepted == target, f"accepted {accepted}, target {target}")
    if truth is not None:
        f_exact, sd1 = truth
        got = summary["conditional_fidelity_truth"]
        rep.check(op, _within(got, f_exact, sd1 / math.sqrt(accepted)),
                  f"conditional truth {got} vs exact {f_exact}")
    rows = read_csv(out / "rounds.csv")
    rep.check(op, len(rows) == rounds, f"rounds.csv has {len(rows)} rows, summary {rounds}")
    csv_accepted = sum(int(r["accepted"]) for r in rows)
    rep.check(op, csv_accepted == accepted,
              f"rounds.csv accepts {csv_accepted}, summary {accepted}")


def check_sweep(rep: Repeat, op: dict, counts: dict, trials: int) -> None:
    if not rep.ran(op):
        return
    report = json.loads(op["stdout"])
    rep.check(op, not report["violations"], f"{len(report['violations'])} violations")
    rep.check(op, report["checked"] + report["skipped_degenerate"] == trials,
              "checked + skipped != trials")
    counts["trials"] += report["trials"]
    counts["checked"] += report["checked"]
    counts["certs"] += report["checked"]


def fig4_sqsv_ok(n: int, k: int, p_k: float, bound: float, ref: float) -> bool:
    """The SQSV column: at p_k = 1 the conditioning-aware truth, else the reference."""
    if abs(p_k - 1.0) <= TOL:
        return 1.0 - sqsv_flat_deficit(n, k, LAM) <= bound <= 1.0
    return _printed_equal(bound, ref)


def check_fig4(rep: Repeat, op: dict, counts: dict) -> None:
    """fig4 must match its stored reference to 1e-12 and the printed digits.

    The SQSV bound at p_k = 1 is ill-conditioned (see ``sqsv_flat_deficit``),
    so there it is checked against its true value, 1, instead.
    """
    if not rep.ran(op):
        return
    got = read_csv(rep.workdir / "fig4" / "fig4.csv")
    ref = read_csv(DATA / "fig4.csv")
    rep.check(op, len(got) == len(ref), f"{len(got)} rows, reference {len(ref)}")
    for g, r in zip(got, ref):
        for col, want in r.items():
            if col == "grid":
                rep.check(op, g[col] == want, f"grid {g[col]} vs {want}")
                continue
            a, b = _num(g.get(col)), _num(want)
            if col == "sqsv_bound_at_p_k":
                same = fig4_sqsv_ok(int(r["n"]), int(r["k"]), _num(r["p_k_exact"]), a, b)
            else:
                same = _printed_equal(a, b)
            rep.check(op, same, f"{col} {a!r} vs reference {b!r}")
    counts["certs"] += 2 * len(got)


def check_fig5(rep: Repeat, op: dict, counts: dict) -> None:
    """Single-round certificates against the stored (n, k) table."""
    if not rep.ran(op):
        return
    out = rep.workdir / "fig5"
    avg_rounds = json.loads((out / "manifest.json").read_text())["avg_rounds"]
    rep.check(op, avg_rounds == FIG5_AVG_ROUNDS, f"avg_rounds {avg_rounds}")
    table = {(p, n, k): f for p, n, k, _, _, f in load_queries("fig5-knots")}
    rows = read_csv(out / "fig5.csv")
    for row in rows:
        n, k = int(row["n"]), int(row["k_single"])
        for proto in ("sqsv", "dqsv"):
            eps = _num(row[f"eps_{proto}_single"])
            if k >= n:
                want = 1.0
            elif (proto, n, k) in table:
                want = 1.0 - table[(proto, n, k)]
            else:
                rep.check(op, False, f"n={n} k={k} outside the reference table")
                continue
            rep.check(op, abs(eps - want) <= TOL, f"n={n} k={k} eps_{proto} {eps} vs {want}")
            avg = _num(row[f"eps_{proto}_avg"])
            rep.check(op, 0.0 <= avg <= 1.0, f"n={n} eps_{proto}_avg {avg}")
    counts["rounds"] += avg_rounds
    counts["certs"] += 2 * avg_rounds * len(rows)


def check_workload(workload: str, rep: Repeat, plan: dict) -> dict:
    counts = {"rounds": 0, "certs": 0, "trials": 0, "checked": 0}
    ops = iter(rep.ops)

    def guarded(check, *args):
        op = next(ops)
        try:
            return check(rep, op, counts, *args)
        except Exception as exc:  # unreadable output fails the operation's check
            rep.check(op, False, f"output check raised {type(exc).__name__}: {exc}")
            return None

    if workload == "mc-correlated":
        guarded(check_fig3)
        guarded(check_simulate, *rho2_k0(SIM_N, SIM_PHI), SIM_TARGET_ACCEPTANCES)
        guarded(check_sweep, SELF_CHECK_TRIALS)
    elif workload == "cert-scaling":
        guarded(check_fig5)
        guarded(check_sweep, SELF_CHECK_TRIALS)
    else:
        guarded(check_sweep, SWEEP_N12_TRIALS)
        guarded(check_sweep, SWEEP_N8_TRIALS)
        guarded(check_fig4)
        # p_0 = 4/9 is strictly inside (0, 1), so the 5-sigma test can catch
        # a biased round engine, and the conditional truth is 5/8.
        guarded(check_simulate, *rho2_k0(CROSS_CHECK_N, math.pi), None)
    failed_queries = rep.check_stream(plan["queries"])
    ops_failed = sum(1 for op in rep.ops if op["rc"] != 0 or op["failed_checks"])
    counts["attempted"] = len(rep.ops) + len(plan["queries"])
    counts["failed"] = ops_failed + failed_queries
    return counts


# -- per-layer metrics from a traced repeat -----------------------------------


def layer_metrics(tracer, counts: dict) -> dict:
    from spans import percentile_ms, repeat_share

    s = tracer.summary()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}

    def get(name: str) -> dict:
        return s.get(name, empty)

    def args(name: str) -> list[dict]:
        return tracer.args.get(name, [])

    def written(name: str) -> int:
        return sum(Path(p).stat().st_size for p in tracer.files.get(name, []))

    # Argument names a later version renames make these read zero, not fail.
    rounds_simulated = sum(a.get("rounds", 0) for a in args("simulate.run_rounds")) + sum(
        a.get("rounds", 0) for a in args("simulate.scaling_experiment")
    )
    sqsv = [a["q"] for a in args("certificates.sqsv_certificate") if "q" in a]
    dqsv = [a["q"] for a in args("certificates.dqsv_certificate") if "q" in a]
    solve = [a for a in args("certificates.solve_J") if {"n", "k", "delta"} <= a.keys()]
    m = {}
    for name, fields in (
        ("simulate.run_rounds", ("calls", "busy_s", "self_s")),
        ("simulate.RandomPlan.round_rng", ("calls",)),
        ("simulate.summarize", ("calls", "busy_s")),
        ("simulate.clopper_pearson", ("calls", "busy_s")),
        ("simulate.run_experiment", ("busy_s",)),
        ("simulate.scaling_experiment", ("self_s",)),
        ("simulate.write_rounds_csv", ("busy_s",)),
        ("certificates.binom_tail", ("calls", "busy_s")),
        ("certificates.solve_J", ("calls", "busy_s")),
        ("certificates.sqsv_certificate", ("calls", "busy_s")),
        ("certificates.dqsv_certificate", ("calls", "busy_s")),
        ("sources.rho1", ("busy_s",)),
        ("sources.rho2", ("busy_s",)),
        ("sources.honest_iid", ("busy_s",)),
        ("sources.werner_state", ("calls",)),
        ("sources.depolarized_state", ("calls", "busy_s")),
        ("strategy.test_pass_probabilities", ("calls", "busy_s")),
        ("strategy.pass_probability", ("calls", "busy_s")),
        ("linalg.expectation", ("calls",)),
        ("linalg.overlap", ("calls",)),
        ("exact.exact_stats", ("calls", "busy_s", "self_s")),
        ("exact.dqsv_soundness_sweep", ("self_s",)),
        ("reproduce.fig3_rows", ("busy_s",)),
        ("reproduce.fig4_rows", ("busy_s",)),
        ("reproduce.fig5_rows", ("busy_s",)),
        ("reproduce.write_csv", ("busy_s",)),
    ):
        name_out = name.replace("simulate.RandomPlan.", "simulate.")
        for f in fields:
            m[f"{name_out}.{f}"] = get(name)[f]
    for proto in ("sqsv", "dqsv"):
        durations = get(f"certificates.{proto}_certificate")["durations"]
        m[f"certificates.{proto}_certificate.p50_ms"] = percentile_ms(durations, 50)
        m[f"certificates.{proto}_certificate.p99_ms"] = percentile_ms(durations, 99)
    m["simulate.rounds_simulated"] = rounds_simulated
    m["simulate.useful_round_ratio"] = (
        counts["rounds"] / rounds_simulated if rounds_simulated else 0.0
    )
    m["simulate.write_rounds_csv.bytes"] = written("simulate.write_rounds_csv")
    m["certificates.binom_tail_per_solve_J"] = (
        tracer.calls_within("certificates.binom_tail", "certificates.solve_J") / len(solve)
        if solve else 0.0
    )
    m["certificates.repeat_share"] = repeat_share(
        [(q.protocol, q.n, q.k, q.delta, q.lam) for q in sqsv + dqsv]
    )
    m["certificates.knot_repeat_share"] = repeat_share([(q.n, q.k, q.nu) for q in dqsv])
    m["certificates.solve_J.repeat_share"] = repeat_share(
        [(a["n"], a["k"], a["delta"]) for a in solve]
    )
    m["linalg.DensityMatrix.validations"] = get("linalg.DensityMatrix.__post_init__")["calls"]
    m["exact.checked_ratio"] = counts["checked"] / counts["trials"] if counts["trials"] else 0.0
    m["reproduce.write_csv.bytes"] = written("reproduce.write_csv")
    m["cli.self_s"] = get("cli.main")["self_s"]
    m["trace.spans"] = len(tracer.span_name)
    return m


def speed_probe() -> float:
    """Seconds a fixed mix of interpreter, small-array and big-integer work takes.

    The speed of a shared host drifts by tens of percent over minutes. This
    probe, timed in the same process before and after the workload, measures
    that drift, so that ``run.py`` can report end-to-end times at a fixed
    reference speed. It runs no qsverify code, and collection is paused so
    that the workload's live objects do not slow it.
    """
    import gc

    import numpy as np

    rng = np.random.default_rng(7)
    cumulative = np.cumsum(np.full(3, 1 / 3))
    acc = 0.0
    kept = []
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(6000):
            u = rng.random(100)
            s = np.searchsorted(cumulative, u, side="right")
            acc += float((u[s % 3 == 0] < 0.5).sum())
            acc += math.fsum(math.comb(80, j) * 0.3**j * 0.7 ** (80 - j) for j in range(12))
            acc += (12345678901234567 ** (20 + i % 30)).bit_length()
            kept.append((i, acc))
        return time.perf_counter() - start
    finally:
        gc.enable()


# -- entry point ---------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    from run import WORKLOADS

    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeat", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import qsverify
    from qsverify.strategy import build_singlet_strategy

    build_singlet_strategy()
    setup_s = time.perf_counter() - start

    src = Path.cwd().resolve() / "src"
    if src not in Path(qsverify.__file__).resolve().parents:
        print(f"qsverify imported from {qsverify.__file__}, not from {src}", file=sys.stderr)
        return 2

    args.workdir.mkdir(parents=True, exist_ok=True)
    rep = Repeat(args.workdir)
    plan = prepare(args.workload, args.seed, args.repeat, args.workdir)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    probe_s = speed_probe()
    start = time.perf_counter()
    run_workload(args.workload, rep, plan)
    wall_s = time.perf_counter() - start
    probe_s = (probe_s + speed_probe()) / 2

    counts = check_workload(args.workload, rep, plan)
    for message in rep.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": probe_s,
        "cli_s": sum(op["seconds"] for op in rep.ops),
        "latencies_s": rep.latencies,
        "counts": counts,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy_version,
            "qsverify": getattr(qsverify, "__version__", "unknown"),
        },
    }
    if tracer is not None:
        tracer.write(args.workdir / "spans.csv")
        result["layers"] = layer_metrics(tracer, counts)
        result["missing"] = tracer.missing
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
