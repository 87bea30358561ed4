"""Command-line front end: certificates, simulations, dataset reproduction.

Subcommands
-----------
certify       print a fidelity certificate for (protocol, n, k, delta, lambda)
simulate      run a Monte Carlo experiment from a config file and/or flags
reproduce     regenerate one of the packaged datasets (fig3, fig4, fig5)
oracle-check  run one of the self-verification suites

Exit codes: 0 success, 2 invalid arguments or config, 3 internal numerical
consistency failure, 4 zero accepted rounds when conditional estimates were
requested, 5 oracle-check violation.

Lambda may be given as a decimal or as a fraction token such as ``1/3``
(parsed to the nearest double, avoiding user rounding drift); phase angles
accept ``pi`` expressions such as ``3pi/4``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certificates import (
    CertificateQuery,
    NumericalConsistencyError,
    binom_tail,
    certificate,
    dqsv_intermediates,
    solve_J,
)
from .exact import (
    MAX_ENUM_TESTS,
    dqsv_soundness_sweep,
    exact_stats,
    exact_stats_bruteforce,
    sqsv_worst_case_scan,
)
from .reproduce import (
    FIG3_COLUMNS,
    FIG3_N,
    FIG3_SCHEMA,
    FIG4_COLUMNS,
    FIG4_SCHEMA,
    FIG5_COLUMNS,
    FIG5_SCHEMA,
    fig3_rows,
    fig4_rows,
    fig5_rows,
    write_csv,
    write_manifest,
)
from .simulate import (
    RandomPlan,
    rounds_until_accepted,
    run_rounds,
    summarize,
    summary_to_json,
    write_rounds_csv,
)
from .sources import (
    NoiseSpec,
    honest_iid,
    mixture_from_spec,
    parse_angle,
    rho1,
    rho2,
)
from .strategy import build_singlet_strategy

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_NO_ACCEPTED = 4
EXIT_ORACLE_VIOLATION = 5


class ConfigError(Exception):
    """Invalid run configuration; carries 'field: message' diagnostics."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def parse_lambda(text) -> float:
    """Parse lambda given as a decimal or a fraction token like ``1/3``."""
    if isinstance(text, (int, float)):
        return float(text)
    num, slash, den = str(text).strip().partition("/")
    try:
        return float(num) / float(den) if slash else float(num)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(
            f"lambda: expected a decimal or a fraction like 1/3, got {text!r}"
        ) from exc


def _int_at_least(errors: list, field: str, raw, minimum: int) -> int | None:
    """``int(raw)`` if it is at least ``minimum``; otherwise record why under ``field``."""
    try:
        value = int(raw)
    except (TypeError, ValueError):
        errors.append(f"{field}: expected an integer, got {raw!r}")
        return None
    if value < minimum:
        errors.append(f"{field}: must be >= {minimum}, got {value}")
        return None
    return value


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    import yaml

    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(["config: top level must be a mapping"])
    return data


def _build_source(cfg: dict, n: int, protocol: str):
    errors = []
    model = cfg.get("model")
    if model not in ("honest", "rho1", "rho2", "custom"):
        raise ConfigError([f"source.model: expected honest|rho1|rho2|custom, got {model!r}"])
    fidelity = cfg.get("fidelity", 1.0)
    try:
        noise = NoiseSpec(float(fidelity))
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"source.fidelity: {exc}"]) from exc
    systems = n + 1 if protocol == "dqsv" else max(n, 2)
    try:
        if model == "honest":
            return honest_iid(max(systems, 2), noise)
        if model == "rho1":
            return rho1(n, noise)
        if model == "rho2":
            if "phi" not in cfg:
                raise ConfigError(["source.phi: required for rho2"])
            return rho2(n, parse_angle(cfg["phi"]), noise)
        source = mixture_from_spec(cfg)
        want = n + 1 if protocol == "dqsv" else n
        if (protocol == "dqsv" and source.num_systems != want) or (
            protocol == "sqsv" and source.num_systems < want
        ):
            errors.append(
                f"source.branches: sequences have {source.num_systems} systems, "
                f"need {'exactly' if protocol == 'dqsv' else 'at least'} {want}"
            )
            raise ConfigError(errors)
        return source
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"source: {exc}"]) from exc


def _validate_simulate_config(cfg: dict) -> dict:
    errors = []
    out = {}
    protocol = cfg.get("protocol", "dqsv")
    if protocol not in ("sqsv", "dqsv"):
        errors.append(f"protocol: expected sqsv|dqsv, got {protocol!r}")
    out["protocol"] = protocol
    for field, default in (("n", None), ("k", 0)):
        raw = cfg.get(field, default)
        if raw is None:
            errors.append(f"{field}: required")
            continue
        try:
            out[field] = int(raw)
        except (TypeError, ValueError):
            errors.append(f"{field}: expected an integer, got {raw!r}")
    if "n" in out and "k" in out:
        if out["k"] < 0:
            errors.append(f"k: must be >= 0, got {out['k']}")
        elif out["n"] < out["k"] + 1:
            errors.append(f"n: must be >= k + 1 = {out['k'] + 1}, got {out['n']}")
    try:
        out["seed"] = int(cfg.get("seed", 0))
        if not (0 <= out["seed"] < 2**64):
            errors.append("seed: must fit in 64 bits")
    except (TypeError, ValueError):
        errors.append(f"seed: expected an integer, got {cfg.get('seed')!r}")
    stopping = cfg.get("stopping", {})
    mode = stopping.get("mode", "fixed") if isinstance(stopping, dict) else None
    if mode not in ("fixed", "acceptances"):
        errors.append(f"stopping.mode: expected fixed|acceptances, got {mode!r}")
        mode = "fixed"
    out["stopping_mode"] = mode
    rounds = cfg.get("rounds", stopping.get("rounds") if isinstance(stopping, dict) else None)
    if mode == "fixed":
        if rounds is None:
            errors.append("rounds: required for fixed stopping")
        else:
            out["rounds"] = _int_at_least(errors, "rounds", rounds, 1)
    else:
        target = stopping.get("target_acceptances")
        if target is None:
            errors.append("stopping.target_acceptances: required for acceptances stopping")
        else:
            out["target_acceptances"] = _int_at_least(
                errors, "stopping.target_acceptances", target, 1
            )
        cap = stopping.get("max_rounds")
        out["max_rounds"] = None if cap is None else _int_at_least(
            errors, "stopping.max_rounds", cap, 1
        )
    out["format"] = cfg.get("format", "json")
    if out["format"] not in ("json", "csv"):
        errors.append(f"format: expected json|csv, got {out['format']!r}")
    out["out_dir"] = cfg.get("out_dir", ".")
    source = cfg.get("source")
    if not isinstance(source, dict):
        errors.append("source: required mapping with a 'model' key")
    if errors:
        raise ConfigError(errors)
    out["source_cfg"] = source
    return out


def _cmd_certify(args) -> int:
    try:
        lam = parse_lambda(args.lam)
        query = CertificateQuery(args.protocol, args.n, args.k, args.delta, lam)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        cert = certificate(query)
        payload = {
            "protocol": query.protocol,
            "n": query.n,
            "k": query.k,
            "delta": query.delta,
            "lambda": query.lam,
            "fidelity_bound": cert.fidelity_bound,
            "infidelity_bound": cert.infidelity_bound,
        }
        if args.intermediates and args.protocol == "dqsv":
            if query.delta <= binom_tail(query.n, query.k, query.nu):
                payload["intermediates"] = None
            else:
                inter = dqsv_intermediates(query)
                payload["intermediates"] = {
                    "h": [inter.h[z] for z in range(query.n + 2)],
                    "g": [inter.g[z] for z in range(query.n + 2)],
                    "zhat": inter.zhat,
                    "kappa": inter.kappa,
                    "zeta_tilde": inter.zeta_tilde,
                }
    except NumericalConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    try:
        cfg = _load_config(args.config)
        for key in ("protocol", "n", "k", "rounds", "seed", "format"):
            value = getattr(args, key, None)
            if value is not None:
                cfg[key] = value
        if args.out_dir is not None:
            cfg["out_dir"] = args.out_dir
        conf = _validate_simulate_config(cfg)
        source = _build_source(conf["source_cfg"], conf["n"], conf["protocol"])
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    strat = build_singlet_strategy()
    plan = RandomPlan.for_experiment(conf["seed"], "simulate")
    meta = {"seed": conf["seed"], "source": conf["source_cfg"]}
    try:
        if conf["stopping_mode"] == "fixed":
            outcomes = run_rounds(
                source, conf["n"], strat, conf["rounds"], conf["protocol"], plan
            )
        else:
            outcomes = rounds_until_accepted(
                source, conf["n"], conf["k"], strat, conf["target_acceptances"],
                conf["protocol"], plan, conf["max_rounds"],
            )
        summary = summarize(outcomes, conf["k"], strat, conf["protocol"], meta=meta)
    except (TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    out_dir = Path(conf["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(summary_to_json(summary) + "\n", encoding="utf-8")
    write_rounds_csv(out_dir / "rounds.csv", outcomes, conf["k"], strat)
    if conf["format"] == "json":
        print(summary_to_json(summary))
    else:
        print(f"rounds={summary.rounds},accepted={summary.accepted},p_hat={summary.p_hat:.12g}")
    if conf["protocol"] == "dqsv" and summary.accepted == 0:
        print("no accepted rounds: conditional estimates are absent", file=sys.stderr)
        return EXIT_NO_ACCEPTED
    return EXIT_OK


def _reproduce_errors(args) -> list[str]:
    """One 'field: message' line per out-of-range reproduce flag."""
    errors = []
    for field, value in (("--rounds", args.rounds), ("--avg-rounds", args.avg_rounds)):
        if value is not None:
            _int_at_least(errors, field, value, 1)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        errors.append(f"--seed: must fit in 64 bits, got {args.seed}")
    if not 0 <= args.k_max < FIG3_N:
        errors.append(f"--k-max: must lie in [0, {FIG3_N - 1}], got {args.k_max}")
    # Below 1/4 a depolarized copy is no longer a state.
    if args.fidelity is not None and not 0.25 <= args.fidelity <= 1.0:
        errors.append(f"--fidelity: must lie in [0.25, 1], got {args.fidelity}")
    if not 0.0 < args.delta <= 1.0:
        errors.append(f"--delta: must lie in (0, 1], got {args.delta}")
    return errors


def _cmd_reproduce(args) -> int:
    errors = _reproduce_errors(args)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    if errors:
        return EXIT_INVALID
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else 42
    config = {"figure": args.figure, "seed": seed}
    try:
        if args.figure == "fig3":
            rounds = args.rounds if args.rounds is not None else 200
            fidelity = args.fidelity if args.fidelity is not None else 1.0
            rows = fig3_rows(
                seed=seed, rounds=rounds, k_max=args.k_max, prep_fidelity=fidelity
            )
            config.update({"rounds": rounds, "prep_fidelity": fidelity, "k_max": args.k_max})
            write_csv(out_dir / "fig3.csv", FIG3_SCHEMA, FIG3_COLUMNS, rows)
            files = ["fig3.csv"]
        elif args.figure == "fig4":
            fidelity = args.fidelity if args.fidelity is not None else 1.0
            rows = fig4_rows(prep_fidelity=fidelity)
            config.update({"prep_fidelity": fidelity, "k": 1})
            write_csv(out_dir / "fig4.csv", FIG4_SCHEMA, FIG4_COLUMNS, rows)
            files = ["fig4.csv"]
        else:
            fidelity = args.fidelity if args.fidelity is not None else 0.99
            avg_rounds = args.avg_rounds if args.avg_rounds is not None else 80
            rows = fig5_rows(
                seed=seed, fidelity=fidelity, delta=args.delta, avg_rounds=avg_rounds,
            )
            config.update({"fidelity": fidelity, "delta": args.delta, "avg_rounds": avg_rounds})
            write_csv(out_dir / "fig5.csv", FIG5_SCHEMA, FIG5_COLUMNS, rows)
            files = ["fig5.csv"]
    except NumericalConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    config["files"] = files
    write_manifest(out_dir / "manifest.json", config)
    print(f"wrote {', '.join(files)} and manifest.json to {out_dir}")
    return EXIT_OK


def _strictly_above(hi: float, lo: float) -> bool:
    """Strict order, except where doubles saturate at the ends of [0, 1].

    Mathematically distinct tails can round to the same double when both sit
    within an ulp of 1 (or underflow to 0); only there is a tie acceptable.
    """
    if hi > lo:
        return True
    return hi == lo and (lo >= 1.0 - 1e-12 or hi <= 1e-300)


def _check_binom_suite() -> dict:
    """Spot checks plus the tail monotonicity relations on a fixed grid."""
    failures = []
    checks = 0
    for z, k, p, expected in ((2, 1, 0.5, 0.75), (7, 7, 0.3, 1.0), (5, 0, 0.0, 1.0)):
        checks += 1
        got = binom_tail(z, k, p)
        if abs(got - expected) > 1e-12:
            failures.append({"case": f"B_{{{z},{k}}}({p})", "got": got, "want": expected})
    for z in (2, 5, 17, 60, 150, 400):
        for k in sorted({0, 1, z // 3, z - 2}):
            if k < 0 or k >= z:
                continue
            for p in (0.05, 1 / 3, 0.5, 0.9):
                checks += 3
                b = binom_tail(z, k, p)
                if not _strictly_above(binom_tail(z, k + 1, p), b):
                    failures.append({"case": f"increase in k at ({z},{k},{p})"})
                if not _strictly_above(b, binom_tail(z + 1, k, p)):
                    failures.append({"case": f"decrease in z at ({z},{k},{p})"})
                if not _strictly_above(b, binom_tail(z, k, min(1.0, p + 0.01))):
                    failures.append({"case": f"decrease in p at ({z},{k},{p})"})
    jx = solve_J(10, 0, 0.05)
    checks += 1
    if abs(jx - (1 - 0.05**0.1)) > 1e-12:
        failures.append({"case": "solve_J(10,0,0.05) closed form", "got": jx})
    return {"suite": "binom", "checks": checks, "violations": failures}


def _check_sqsv_suite(grid_size: int) -> dict:
    failures = []
    cases = [(10, 0, 0.05, 1 / 3), (50, 3, 0.1, 1 / 3), (20, 1, 0.5, 0.25), (12, 0, 1.0, 1 / 3)]
    step = 1.0 / (grid_size - 1)
    for n, k, delta, lam in cases:
        scan = sqsv_worst_case_scan(n, k, delta, lam, grid_size)
        analytic = min(1.0, solve_J(n, k, delta) / (1 - lam))
        if abs(scan - analytic) > step + 1e-12:
            failures.append(
                {"case": f"scan({n},{k},{delta},{lam})", "scan": scan, "analytic": analytic}
            )
    return {"suite": "sqsv", "checks": len(cases), "violations": failures}


def _check_factorization_suite(n_max: int) -> dict:
    from .sources import honest_iid as _honest

    failures = []
    checks = 0
    strat = build_singlet_strategy()
    for n in range(2, n_max + 1):
        for source in (
            _honest(n + 1, NoiseSpec(0.9)),
            rho1(n, NoiseSpec(0.97)),
            rho2(n, 2.2, NoiseSpec(0.95)),
        ):
            for k in {0, 1, n - 1}:
                checks += 1
                fast = exact_stats(source, k, strat)
                slow = exact_stats_bruteforce(source, k, strat)
                if abs(fast.p_k - slow.p_k) > 1e-12 or abs(fast.f_k - slow.f_k) > 1e-12:
                    failures.append(
                        {
                            "case": f"n={n},k={k}",
                            "p_fast": fast.p_k, "p_slow": slow.p_k,
                            "f_fast": fast.f_k, "f_slow": slow.f_k,
                        }
                    )
    return {"suite": "factorization", "checks": checks, "violations": failures}


def _oracle_check_errors(args) -> list[str]:
    """One 'field: message' line per out-of-range oracle-check flag."""
    errors = []
    _int_at_least(errors, "--grid-size", args.grid_size, 1000)
    _int_at_least(errors, "--trials", args.trials, 1)
    if not 2 <= args.budget <= MAX_ENUM_TESTS:
        errors.append(f"--budget: must lie in [2, {MAX_ENUM_TESTS}], got {args.budget}")
    if args.seed is not None and not 0 <= args.seed < 2**64:
        errors.append(f"--seed: must fit in 64 bits, got {args.seed}")
    if not 1 <= args.n <= MAX_ENUM_TESTS:
        errors.append(f"--n: must lie in [1, {MAX_ENUM_TESTS}], got {args.n}")
    elif not 0 <= args.k <= args.n - 1:
        errors.append(f"--k: must lie in [0, n - 1] = [0, {args.n - 1}], got {args.k}")
    return errors


def _cmd_oracle_check(args) -> int:
    import numpy as np

    errors = _oracle_check_errors(args)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    if errors:
        return EXIT_INVALID
    try:
        if args.suite == "binom":
            report = _check_binom_suite()
        elif args.suite == "sqsv":
            report = _check_sqsv_suite(args.grid_size)
        elif args.suite == "factorization":
            report = _check_factorization_suite(args.budget)
        else:
            rng = np.random.default_rng(args.seed if args.seed is not None else 0)
            report = dqsv_soundness_sweep(args.n, args.k, parse_lambda(args.lam), args.trials, rng)
            report["suite"] = "dqsv-sweep"
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(json.dumps(report, indent=2, sort_keys=True, default=float))
    if report.get("violations"):
        return EXIT_ORACLE_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, help="master seed (64-bit unsigned)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-dir", default=None, help="output directory")

    parser = argparse.ArgumentParser(
        prog="qsverify",
        description="Singlet verification certificates and protocol simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="print a fidelity certificate")
    cert.add_argument("--protocol", choices=("sqsv", "dqsv"), required=True)
    cert.add_argument("--n", type=int, required=True)
    cert.add_argument("--k", type=int, required=True)
    cert.add_argument("--delta", type=float, required=True)
    cert.add_argument("--lambda", dest="lam", required=True, help="decimal or fraction like 1/3")
    cert.add_argument("--intermediates", action="store_true")
    cert.set_defaults(func=_cmd_certify)

    sim = sub.add_parser("simulate", parents=[seed, out], help="run a Monte Carlo experiment")
    sim.add_argument("--config", default=None, help="YAML config file")
    sim.add_argument("--protocol", choices=("sqsv", "dqsv"), default=None)
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--k", type=int, default=None)
    sim.add_argument("--rounds", type=int, default=None)
    sim.add_argument("--format", choices=("json", "csv"), default=None)
    sim.set_defaults(func=_cmd_simulate)

    rep = sub.add_parser("reproduce", parents=[seed, out], help="regenerate a packaged dataset")
    rep.add_argument("figure", choices=("fig3", "fig4", "fig5"))
    rep.add_argument("--rounds", type=int, default=None)
    rep.add_argument("--fidelity", type=float, default=None, help="per-copy preparation fidelity")
    rep.add_argument("--k-max", type=int, default=10)
    rep.add_argument("--delta", type=float, default=0.05)
    rep.add_argument("--avg-rounds", type=int, default=None)
    rep.set_defaults(func=_cmd_reproduce)

    orc = sub.add_parser("oracle-check", parents=[seed], help="run a verification suite")
    orc.add_argument("suite", choices=("binom", "sqsv", "dqsv-sweep", "factorization"))
    orc.add_argument("--n", type=int, default=6)
    orc.add_argument("--k", type=int, default=1)
    orc.add_argument("--lambda", dest="lam", default="1/3")
    orc.add_argument("--trials", type=int, default=1000)
    orc.add_argument("--grid-size", type=int, default=2000)
    orc.add_argument("--budget", type=int, default=8, help="max N for factorization")
    orc.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
