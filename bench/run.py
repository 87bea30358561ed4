"""qsverify benchmark: run one workload and print its metrics.

Usage, from the root of a checkout of the repository:

    python3 bench/run.py --workload mc-correlated --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, untraced and traced, and prints every
metric. See ``bench/README.md`` for the workloads, the metrics and the layer
each metric belongs to.

With ``--trace 0`` the script starts fresh interpreters (``worker.py``), one
per timed repeat, until ``--seconds`` have passed (at least MIN_REPEATS), and
reports the end-to-end metrics as medians over the repeats; the certificate
latency percentiles pool the per-query samples of all repeats. With
``--trace 1`` it runs one untraced and one traced repeat of the same inputs
plus a ``python -X importtime`` start-up, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The script exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("mc-correlated", "cert-scaling", "exact-adversarial")
MIN_REPEATS = 3
# End-to-end times are reported at the speed of a machine on which
# worker.speed_probe() takes this long; see speed_scale.
PROBE_REF_S = 0.2
BUDGET_S = 170.0   # every run ends well inside the 180 s a run may take

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("rounds_per_s", "rounds/s", "higher"),
    ("certs_per_s", "certs/s", "higher"),
    ("cert_p50_ms", "ms", "lower"),
    ("cert_p99_ms", "ms", "lower"),
    ("trials_per_s", "trials/s", "higher"),
]

IMPORTED_MODULES = [
    "qsverify", "qsverify.linalg", "qsverify.strategy", "qsverify.sources",
    "qsverify.certificates", "qsverify.exact", "qsverify.simulate",
    "qsverify.reproduce", "qsverify.cli", "numpy", "scipy.stats",
]

PER_LAYER = [
    ("simulate.run_rounds.calls", "count", "lower"),
    ("simulate.run_rounds.busy_s", "s", "lower"),
    ("simulate.run_rounds.self_s", "s", "lower"),
    ("simulate.rounds_simulated", "count", "lower"),
    ("simulate.round_rng.calls", "count", "lower"),
    ("simulate.summarize.calls", "count", "lower"),
    ("simulate.summarize.busy_s", "s", "lower"),
    ("simulate.clopper_pearson.calls", "count", "lower"),
    ("simulate.clopper_pearson.busy_s", "s", "lower"),
    ("simulate.run_experiment.busy_s", "s", "lower"),
    ("simulate.scaling_experiment.self_s", "s", "lower"),
    ("simulate.write_rounds_csv.busy_s", "s", "lower"),
    ("simulate.write_rounds_csv.bytes", "B", "lower"),
    ("simulate.useful_round_ratio", "ratio", "higher"),
    ("certificates.binom_tail.calls", "count", "lower"),
    ("certificates.binom_tail.busy_s", "s", "lower"),
    ("certificates.solve_J.calls", "count", "lower"),
    ("certificates.solve_J.busy_s", "s", "lower"),
    ("certificates.binom_tail_per_solve_J", "ratio", "lower"),
    ("certificates.sqsv_certificate.calls", "count", "lower"),
    ("certificates.sqsv_certificate.busy_s", "s", "lower"),
    ("certificates.sqsv_certificate.p50_ms", "ms", "lower"),
    ("certificates.sqsv_certificate.p99_ms", "ms", "lower"),
    ("certificates.dqsv_certificate.calls", "count", "lower"),
    ("certificates.dqsv_certificate.busy_s", "s", "lower"),
    ("certificates.dqsv_certificate.p50_ms", "ms", "lower"),
    ("certificates.dqsv_certificate.p99_ms", "ms", "lower"),
    ("certificates.repeat_share", "ratio", "higher"),
    ("certificates.knot_repeat_share", "ratio", "higher"),
    ("certificates.solve_J.repeat_share", "ratio", "higher"),
    ("sources.rho1.busy_s", "s", "lower"),
    ("sources.rho2.busy_s", "s", "lower"),
    ("sources.honest_iid.busy_s", "s", "lower"),
    ("sources.werner_state.calls", "count", "lower"),
    ("sources.depolarized_state.calls", "count", "lower"),
    ("sources.depolarized_state.busy_s", "s", "lower"),
    ("strategy.test_pass_probabilities.calls", "count", "lower"),
    ("strategy.test_pass_probabilities.busy_s", "s", "lower"),
    ("strategy.pass_probability.calls", "count", "lower"),
    ("strategy.pass_probability.busy_s", "s", "lower"),
    ("linalg.DensityMatrix.validations", "count", "lower"),
    ("linalg.expectation.calls", "count", "lower"),
    ("linalg.overlap.calls", "count", "lower"),
    ("exact.exact_stats.calls", "count", "lower"),
    ("exact.exact_stats.busy_s", "s", "lower"),
    ("exact.exact_stats.self_s", "s", "lower"),
    ("exact.dqsv_soundness_sweep.self_s", "s", "lower"),
    ("exact.checked_ratio", "ratio", "higher"),
    ("reproduce.fig3_rows.busy_s", "s", "lower"),
    ("reproduce.fig4_rows.busy_s", "s", "lower"),
    ("reproduce.fig5_rows.busy_s", "s", "lower"),
    ("reproduce.write_csv.busy_s", "s", "lower"),
    ("reproduce.write_csv.bytes", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    *[(f"setup.import.{m}_s", "s", "lower") for m in IMPORTED_MODULES],
    ("trace.overhead_s", "s", "lower"),
    ("machine.probe_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("repo.src_lines", "lines", "lower"),
]


class Failure(Exception):
    """The program cannot be run at all; no result is printed."""


def src_lines(root: Path) -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src").rglob("*.py"))
    )


def environment(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_repeat(root: Path, workdir: Path, workload: str, seed: int, repeat: int,
               trace: int, deadline: float) -> dict | None:
    """One worker process; None when it failed to produce a result."""
    out = workdir / f"result-{repeat}-{trace}.json"
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--repeat", str(repeat), "--trace", str(trace),
        "--workdir", str(workdir / f"repeat-{repeat}-{trace}"), "--out", str(out),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=environment(root), stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"{workload} repeat {repeat}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.exists():
        print(f"{workload} repeat {repeat}: worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.read_text(encoding="utf-8"))


def import_times(root: Path) -> dict:
    """Cumulative import time of each module, from ``python -X importtime``.

    scipy loads ``scipy.stats`` lazily, so that package has no line of its
    own; its figure is the sum over the outermost ``scipy`` lines, which is
    all the time spent importing scipy.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qsverify, qsverify.cli"],
        cwd=root, env=environment(root), capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise Failure(f"importing qsverify failed:\n{proc.stderr[-2000:]}")
    cumulative = {}
    scipy_lines = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( +)(\S+)\s*$", line)
        if not m:
            continue
        seconds, depth, module = int(m.group(1)) * 1e-6, len(m.group(2)), m.group(3)
        cumulative.setdefault(module, seconds)
        if module.split(".")[0] == "scipy":
            scipy_lines.append((depth, seconds))
    if scipy_lines:
        top = min(d for d, _ in scipy_lines)
        cumulative["scipy.stats"] = sum(s for d, s in scipy_lines if d == top)
    return {f"setup.import.{mod}_s": cumulative.get(mod, 0.0) for mod in IMPORTED_MODULES}


def speed_scale(result: dict) -> float:
    """PROBE_REF_S over the repeat's own speed probe.

    Multiplying a repeat's times by this factor reports them at the
    reference speed. The host's speed changes within seconds as well as over
    minutes, so each repeat is scaled by the probe timed next to it.
    """
    return PROBE_REF_S / result["probe_s"]


def untraced_metrics(results: list[dict]) -> dict:
    """Medians over the repeats, at the reference speed (see speed_scale)."""
    med = statistics.median
    scaled = [(r, speed_scale(r)) for r in results]
    latencies = [x * f for r, f in scaled for x in r["latencies_s"]]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "setup_s": med(r["setup_s"] * f for r, f in scaled),
        "wall_s": med(r["wall_s"] * f for r, f in scaled),
        "rounds_per_s": med(r["counts"]["rounds"] / (r["wall_s"] * f) for r, f in scaled),
        "certs_per_s": med(r["counts"]["certs"] / (r["cli_s"] * f) for r, f in scaled),
        "cert_p50_ms": 1e3 * cuts[49],
        "cert_p99_ms": 1e3 * cuts[98],
        "trials_per_s": med(r["counts"]["trials"] / (r["wall_s"] * f) for r, f in scaled),
    }


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    deadline = start + BUDGET_S
    workdir = root / ".bench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    results = []
    try:
        if trace:
            plain = run_repeat(root, workdir, workload, seed, 0, 0, deadline)
            traced = run_repeat(root, workdir, workload, seed, 0, 1, deadline)
            if plain is None or traced is None:
                raise Failure(f"{workload}: the traced comparison did not complete")
            spans = workdir / "repeat-0-1" / "spans.csv"
            shutil.copyfile(spans, root / ".bench_work" / f"spans-{workload}.csv")
            metrics = dict(traced["layers"])
            metrics.update(import_times(root))
            metrics["trace.overhead_s"] = (
                traced["wall_s"] * speed_scale(traced) - plain["wall_s"] * speed_scale(plain)
            )
            metrics["machine.probe_s"] = traced["probe_s"]
            metrics["repo.src_lines"] = src_lines(root)
            if traced["missing"]:
                print(f"not traced (absent): {', '.join(traced['missing'])}", file=sys.stderr)
            results = [plain, traced]
            specs = PER_LAYER
        else:
            repeat = 0
            while True:
                began = time.monotonic()
                r = run_repeat(root, workdir, workload, seed, repeat, 0, deadline)
                repeat += 1
                if r is None:
                    attempted += 1
                    failed += 1
                else:
                    results.append(r)
                took = time.monotonic() - began
                elapsed = time.monotonic() - start
                if repeat >= MIN_REPEATS and elapsed + took > seconds:
                    break
                if elapsed + 2 * took > BUDGET_S:
                    break
            if not results:
                raise Failure(f"{workload}: no repeat completed")
            metrics = untraced_metrics(results)
            specs = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted += sum(r["counts"]["attempted"] for r in results)
    failed += sum(r["counts"]["failed"] for r in results)
    return {
        "workload": workload,
        "results": results,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }


def report(outcome: dict, root: Path, trace: int) -> None:
    """Human-readable lines: the machine, every metric with its unit."""
    first = outcome["results"][0]
    v = first["versions"]
    print(
        f"# {outcome['workload']}: nproc={os.cpu_count()} python={v['python']} "
        f"numpy={v['numpy']} scipy={v['scipy']} qsverify={v['qsverify']} "
        f"src_lines={src_lines(root)} repeats={len(outcome['results'])}"
    )
    for name, m in outcome["metrics"].items():
        print(f"{outcome['workload']:<18} {name:<44} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        results = outcome["results"]
        samples = sum(len(r["latencies_s"]) for r in results)
        raw = {
            "cert_latency_samples": (samples, "count"),
            "raw.setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
            "raw.wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
            "machine.probe_s": (statistics.median(r["probe_s"] for r in results), "s"),
        }
        for name, (value, unit) in raw.items():
            print(f"{outcome['workload']:<18} {name:<44} {value:>16.6g} {unit}")
    attempted = max(outcome["attempted"], 1)
    print(f"{outcome['workload']:<18} {'fail_frac':<44} "
          f"{outcome['failed'] / attempted:>16.6g} ratio")


def main() -> int:
    parser = argparse.ArgumentParser(description="qsverify benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "qsverify" / "__init__.py").is_file():
        print(f"error: no package source at {root / 'src' / 'qsverify'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        # Compile the package once, as an installed package would be, and make
        # sure it imports, before anything is timed.
        import_times(root)
        if args.workload == "all":
            outcomes = [
                (run_workload(root, w, args.seed, args.seconds, t), t)
                for w in WORKLOADS for t in (0, 1)
            ]
        else:
            outcomes = [(run_workload(root, args.workload, args.seed, args.seconds,
                                      args.trace), args.trace)]
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for outcome, trace in outcomes:
        report(outcome, root, trace)
    attempted = sum(o["attempted"] for o, _ in outcomes)
    failed = sum(o["failed"] for o, _ in outcomes)
    if args.workload == "all":
        metrics = {f"{o['workload']}.{k}": m for o, _ in outcomes for k, m in o["metrics"].items()}
    else:
        metrics = outcomes[0][0]["metrics"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
