"""Command-line front end: certificates, simulations, dataset reproduction.

Subcommands
-----------
certify       print a fidelity certificate for (protocol, n, k, delta, lambda)
simulate      run a Monte Carlo experiment from a config file and/or flags
reproduce     regenerate one of the packaged datasets (fig3, fig4, fig5)
oracle-check  run one of the self-verification suites

Each figure and each suite is a subcommand that declares only the flags its
function reads, and a figure's manifest records exactly those.  A ``simulate``
config is read key by key: the source model and the stopping mode name the
keys they read.  Any other flag or key exits 2 naming it.  A rule the library
owns is read from it: ``sources.check_fidelity`` for ``--fidelity``, ``exact``'s
constants for sizes, ``simulate.check_system_count`` for the systems a protocol
draws.  Any other library ``ValueError`` exits 2 as ``error: <message>``.

Exit codes: 0 success, 2 invalid arguments or config, 3 internal numerical
consistency failure, 4 zero accepted rounds when conditional estimates were
requested, 5 oracle-check violation.  If stdout closes early (``| head``),
the rest of the output is dropped and the command still ends with its code.

Lambda may be given as a decimal or as a fraction token such as ``1/3``
(parsed to the nearest double, avoiding user rounding drift); phase angles
accept ``pi`` expressions such as ``3pi/4``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .certificates import (
    PROTOCOLS,
    CertificateQuery,
    NumericalConsistencyError,
    binom_tail,
    certificate,
    dqsv_intermediates,
    solve_J,
    sqsv_certificate,
)
from .exact import (
    MAX_ENUM_TESTS,
    MAX_SWEEP_TESTS,
    SCAN_MIN_GRID,
    dqsv_soundness_sweep,
    exact_stats,
    exact_stats_bruteforce,
    sqsv_worst_case_scan,
)
from . import reproduce
from .simulate import (
    RandomPlan,
    check_system_count,
    rounds_until_accepted,
    run_rounds,
    summarize,
    summary_to_json,
    write_rounds_csv,
)
from .sources import (
    NoiseSpec,
    check_fidelity,
    honest_iid,
    mixture_from_spec,
    parse_angle,
    parse_real,
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
    """Parse lambda given as a decimal or a fraction token like ``1/3``.

    A malformed token raises ``argparse.ArgumentTypeError``, so this serves as
    the ``type=`` of ``--lambda``.
    """
    if isinstance(text, (int, float)):
        return float(text)
    num, slash, den = str(text).strip().partition("/")
    try:
        return float(num) / float(den) if slash else float(num)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected a decimal or a fraction like 1/3, got {text!r}"
        ) from exc


def _read_int(raw) -> int:
    """Only ints and strings convert: a YAML ``n: 3.7`` or ``n: yes`` is an
    error, not a silent 3 or 1."""
    if not isinstance(raw, bool) and isinstance(raw, (int, str)):
        with contextlib.suppress(ValueError):
            return int(raw)
    raise ValueError(f"expected an integer, got {raw!r}")


def _read_float(raw) -> float:
    with contextlib.suppress(ValueError):
        return float(raw)
    raise ValueError(f"expected a number, got {raw!r}")


def _value(read, lo=None, hi=None, open_lo: bool = False):
    """Parser of what ``read`` returns, in [lo, hi], in (lo, hi] with ``open_lo``,
    or >= lo without hi: an argparse ``type=`` and a config-value check."""

    def parse(raw):
        try:
            value = read(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if hi is None and lo is not None and value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and not ((value > lo if open_lo else value >= lo) and value <= hi):
            interval = f"{'(' if open_lo else '['}{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must lie in {interval}, got {value}")
        return value

    return parse


_SEED = _value(_read_int, 0, 2**64 - 1)
_COUNT = _value(_read_int, 1)
_FAILURES = _value(_read_int, 0)
_DELTA = _value(_read_float, 0, 1, open_lo=True)
_FIDELITY = _value(lambda raw: check_fidelity(_read_float(raw)))
# The parsed entries that no figure or suite function takes as a parameter.
_COMMAND_KEYS = ("command", "func", "figure", "suite", "out_dir")
_CONFIG_KEYS = ("protocol", "n", "k", "seed", "rounds", "stopping", "format", "out_dir", "source")
# The stopping keys each mode reads besides ``mode``; fixed mode reads the top-level ``rounds``.
_STOPPING_KEYS = {"fixed": (), "acceptances": ("target_acceptances", "max_rounds")}
# The source keys each model reads besides ``model``.
_SOURCE_KEYS = {
    "honest": ("fidelity",),
    "rho1": ("fidelity",),
    "rho2": ("fidelity", "phi"),
    "custom": ("branches",),
}


def _unknown_keys(prefix: str, mapping: dict, known) -> list[str]:
    return [f"{prefix}{key}: unknown key" for key in mapping if key not in known]


def _emit(text: str) -> None:
    """Print to stdout; once the reader has gone, point stdout at os.devnull."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


@contextlib.contextmanager
def _output_dir(path: str):
    """Create the output directory and yield it; a file-system error while
    making it or writing into it is reported as an ``out_dir`` error."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        yield out_dir
    except OSError as exc:
        raise ConfigError([f"out_dir: {exc}"]) from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        raise ConfigError([f"config: {exc}"]) from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(["config: top level must be a mapping"])
    return data


def _build_source(cfg: dict, n: int, protocol: str):
    model = cfg.get("model")
    if not isinstance(model, str) or model not in _SOURCE_KEYS:
        raise ConfigError([f"source.model: expected honest|rho1|rho2|custom, got {model!r}"])
    errors = _unknown_keys("source.", cfg, ("model", *_SOURCE_KEYS[model]))
    if errors:
        raise ConfigError(errors)
    fidelity = cfg.get("fidelity", 1.0)
    try:
        noise = NoiseSpec(parse_real(fidelity))
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"source.fidelity: {exc}"]) from exc
    try:
        if model == "custom":
            source = mixture_from_spec(cfg)
        elif model == "rho2":
            if "phi" not in cfg:
                raise ConfigError(["source.phi: required for rho2"])
            try:
                phi = parse_angle(cfg["phi"])
            except ValueError as exc:
                raise ConfigError([f"source.phi: {exc}"]) from exc
            source = rho2(n, phi, noise)
        else:
            source = honest_iid(n + 1, noise) if model == "honest" else rho1(n, noise)
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"source: {exc}"]) from exc
    try:
        check_system_count(source.num_systems, n, protocol)
    except ValueError as exc:
        raise ConfigError([f"source.branches: {exc}"]) from exc
    return source


def _validate_simulate_config(cfg: dict) -> dict:
    errors = _unknown_keys("", cfg, _CONFIG_KEYS)
    out = {}

    def check(field: str, raw, parse):
        try:
            return parse(raw)
        except argparse.ArgumentTypeError as exc:
            errors.append(f"{field}: {'required' if raw is None else exc}")

    out["protocol"] = cfg.get("protocol", "dqsv")
    if out["protocol"] not in PROTOCOLS:
        errors.append(f"protocol: expected sqsv|dqsv, got {out['protocol']!r}")
    out["n"] = check("n", cfg.get("n"), _COUNT)
    out["k"] = check("k", cfg.get("k", 0), _FAILURES)
    if out["n"] is not None and out["k"] is not None and out["n"] < out["k"] + 1:
        errors.append(f"n: must be >= k + 1 = {out['k'] + 1}, got {out['n']}")
    out["seed"] = check("seed", cfg.get("seed", 0), _SEED)
    stopping = cfg.get("stopping", {})
    if not isinstance(stopping, dict):
        errors.append(f"stopping: expected a mapping, got {stopping!r}")
        stopping = {}
    mode = out["stopping_mode"] = stopping.get("mode", "fixed")
    if not isinstance(mode, str) or mode not in _STOPPING_KEYS:
        errors.append(f"stopping.mode: expected fixed|acceptances, got {mode!r}")
    else:
        errors += _unknown_keys("stopping.", stopping, ("mode", *_STOPPING_KEYS[mode]))
    if mode == "fixed":
        out["rounds"] = check("rounds", cfg.get("rounds"), _COUNT)
    elif mode == "acceptances":
        if "rounds" in cfg:
            errors.append("rounds: not read in stopping mode acceptances")
        out["target_acceptances"] = check(
            "stopping.target_acceptances", stopping.get("target_acceptances"), _COUNT
        )
        cap = stopping.get("max_rounds")
        out["max_rounds"] = cap if cap is None else check("stopping.max_rounds", cap, _COUNT)
    out["format"] = cfg.get("format", "json")
    if out["format"] not in ("json", "csv"):
        errors.append(f"format: expected json|csv, got {out['format']!r}")
    out["out_dir"] = cfg.get("out_dir", ".")
    if not isinstance(out["out_dir"], str):
        errors.append(f"out_dir: expected a string, got {out['out_dir']!r}")
    out["source_cfg"] = cfg.get("source")
    if not isinstance(out["source_cfg"], dict):
        errors.append("source: required mapping with a 'model' key")
    if errors:
        raise ConfigError(errors)
    return out


def _cmd_certify(args) -> int:
    query = CertificateQuery(args.protocol, args.n, args.k, args.delta, args.lam)
    payload = asdict(query)
    payload["lambda"] = payload.pop("lam")
    if args.intermediates:
        try:
            inter = dqsv_intermediates(query)
        except ValueError as exc:
            raise ConfigError([f"--intermediates: {exc}"]) from exc
        payload["intermediates"] = inter if inter is None else asdict(inter)
    cert = certificate(query)
    payload.update(fidelity_bound=cert.fidelity_bound, infidelity_bound=cert.infidelity_bound)
    _emit(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    for key in ("protocol", "n", "k", "rounds", "seed", "format", "out_dir"):
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    conf = _validate_simulate_config(cfg)
    source = _build_source(conf["source_cfg"], conf["n"], conf["protocol"])

    strat = build_singlet_strategy()
    plan = RandomPlan.for_experiment(conf["seed"], "simulate")
    meta = {"seed": conf["seed"], "source": conf["source_cfg"]}
    if conf["stopping_mode"] == "fixed":
        table = run_rounds(source, conf["n"], strat, conf["rounds"], conf["protocol"], plan)
    else:
        table = rounds_until_accepted(
            source, conf["n"], conf["k"], strat, conf["target_acceptances"],
            conf["protocol"], plan, conf["max_rounds"],
        )
    summary = summarize(table, conf["k"], strat, conf["protocol"], meta=meta)

    with _output_dir(conf["out_dir"]) as out_dir:
        (out_dir / "summary.json").write_text(summary_to_json(summary) + "\n", encoding="utf-8")
        write_rounds_csv(out_dir / "rounds.csv", table, conf["k"], strat)
    if conf["format"] == "json":
        _emit(summary_to_json(summary))
    else:
        _emit(f"rounds={summary.rounds},accepted={summary.accepted},p_hat={summary.p_hat:.12g}")
    if conf["protocol"] == "dqsv" and summary.accepted == 0:
        print("no accepted rounds: conditional estimates are absent", file=sys.stderr)
        return EXIT_NO_ACCEPTED
    return EXIT_OK


def _function_flags(args) -> dict:
    """The flags that the chosen figure or suite declares, keyed as its function's parameters."""
    return {key: value for key, value in vars(args).items() if key not in _COMMAND_KEYS}


def _cmd_reproduce(args) -> int:
    schema, columns = reproduce.FIGURES[args.figure]
    flags = _function_flags(args)
    # Looked up per call, so that a wrapper set on the module after import is the one run.
    rows = getattr(reproduce, f"{args.figure}_rows")(**flags)
    name = f"{args.figure}.csv"
    with _output_dir(args.out_dir) as out_dir:
        reproduce.write_csv(out_dir / name, schema, columns, rows)
        reproduce.write_manifest(out_dir / "manifest.json",
                                 {"figure": args.figure, **flags, "files": [name]})
    _emit(f"wrote {name} and manifest.json to {out_dir}")
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
            for p in (0.05, 1 / 3, 0.5, 0.9):
                checks += 3
                b = binom_tail(z, k, p)
                if not _strictly_above(binom_tail(z, k + 1, p), b):
                    failures.append({"case": f"increase in k at ({z},{k},{p})"})
                if not _strictly_above(b, binom_tail(z + 1, k, p)):
                    failures.append({"case": f"decrease in z at ({z},{k},{p})"})
                if not _strictly_above(b, binom_tail(z, k, min(1.0, p + 0.01))):
                    failures.append({"case": f"decrease in p at ({z},{k},{p})"})
    # k = 0 roots against 1 - delta^(1/n): the crossing of a direct and of an
    # anchored one-term tail, and a delta above its band, which bisects.
    for n, delta in ((10, 0.05), (1000, 0.05), (50, 0.9)):
        jx = solve_J(n, 0, delta)
        checks += 1
        if abs(jx - (1 - delta ** (1 / n))) > 1e-12:
            failures.append({"case": f"solve_J({n},0,{delta}) closed form", "got": jx})
    return {"checks": checks, "violations": failures}


def _check_sqsv_suite(grid_size: int) -> dict:
    failures = []
    cases = [(10, 0, 0.05, 1 / 3), (50, 3, 0.1, 1 / 3), (20, 1, 0.5, 0.25), (12, 0, 1.0, 1 / 3)]
    step = 1.0 / (grid_size - 1)
    for n, k, delta, lam in cases:
        scan = sqsv_worst_case_scan(n, k, delta, lam, grid_size)
        bound = sqsv_certificate(CertificateQuery("sqsv", n, k, delta, lam)).infidelity_bound
        if abs(scan - bound) > step + 1e-12:
            failures.append(
                {"case": f"scan({n},{k},{delta},{lam})", "scan": scan, "certificate": bound}
            )
    return {"checks": len(cases), "violations": failures}


def _check_factorization_suite(budget: int) -> dict:
    failures = []
    checks = 0
    strat = build_singlet_strategy()
    for n in range(2, budget + 1):
        for source in (
            honest_iid(n + 1, NoiseSpec(0.9)),
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
    return {"checks": checks, "violations": failures}


def _check_dqsv_sweep_suite(n: int, k: int, lam: float, trials: int, seed: int) -> dict:
    import numpy as np

    return dqsv_soundness_sweep(n, k, lam, trials, np.random.default_rng(seed))


def _cmd_oracle_check(args) -> int:
    # Looked up per call, as in _cmd_reproduce: dqsv-sweep runs _check_dqsv_sweep_suite.
    check = globals()[f"_check_{args.suite.replace('-', '_')}_suite"]
    report = {**check(**_function_flags(args)), "suite": args.suite}
    _emit(json.dumps(report, indent=2, sort_keys=True, default=float))
    return EXIT_ORACLE_VIOLATION if report["violations"] else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``main`` only reads it."""
    parser = argparse.ArgumentParser(
        prog="qsverify",
        description="Singlet verification certificates and protocol simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed_help = "master seed (64-bit unsigned)"

    cert = sub.add_parser("certify", help="print a fidelity certificate")
    cert.add_argument("--protocol", choices=PROTOCOLS, required=True)
    cert.add_argument("--n", type=_COUNT, required=True)
    cert.add_argument("--k", type=_FAILURES, required=True)
    cert.add_argument("--delta", type=_DELTA, required=True)
    cert.add_argument("--lambda", dest="lam", type=parse_lambda, required=True,
                      help="decimal or fraction like 1/3")
    cert.add_argument("--intermediates", action="store_true")
    cert.set_defaults(func=_cmd_certify)

    # Unset simulate flags are None so that the config file's values stand.
    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    sim.add_argument("--config", default=None, help="YAML config file")
    sim.add_argument("--protocol", choices=PROTOCOLS, default=None)
    sim.add_argument("--n", type=_COUNT, default=None)
    sim.add_argument("--k", type=_FAILURES, default=None)
    sim.add_argument("--rounds", type=_COUNT, default=None)
    sim.add_argument("--seed", type=_SEED, default=None, help=seed_help)
    sim.add_argument("--format", choices=("json", "csv"), default=None)
    sim.add_argument("--out-dir", default=None, help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    # Each figure's flags carry the names of its rows function's parameters.
    rep = sub.add_parser("reproduce", help="regenerate a packaged dataset")
    rep.set_defaults(func=_cmd_reproduce)
    figures = rep.add_subparsers(dest="figure", required=True)
    fig3 = figures.add_parser("fig3", help="correlated source, both protocols per k")
    fig4 = figures.add_parser("fig4", help="exact statistics of the rotated-copy source")
    fig5 = figures.add_parser("fig5", help="certificate infidelity versus the number of tests")
    for fig in (fig3, fig5):
        fig.add_argument("--seed", type=_SEED, default=42, help=seed_help)
    fig3.add_argument("--rounds", type=_COUNT, default=200)
    fig3.add_argument("--k-max", type=_value(_read_int, 0, reproduce.FIG3_N - 1), default=10)
    for fig, dest, default in ((fig3, "prep_fidelity", 1.0), (fig4, "prep_fidelity", 1.0),
                               (fig5, "fidelity", 0.99)):
        fig.add_argument("--fidelity", dest=dest, metavar="FIDELITY", default=default,
                         type=_FIDELITY, help="per-copy preparation fidelity")
    fig5.add_argument("--delta", type=_DELTA, default=0.05)
    fig5.add_argument("--avg-rounds", type=_COUNT, default=80)
    for fig in (fig3, fig4, fig5):
        fig.add_argument("--out-dir", default=".", help="output directory")

    # Each suite's flags carry the names of its _check_*_suite function's parameters.
    orc = sub.add_parser("oracle-check", help="run a verification suite")
    orc.set_defaults(func=_cmd_oracle_check)
    suites = orc.add_subparsers(dest="suite", required=True)
    suites.add_parser("binom", help="binomial tail spot checks and monotonicity")
    sqsv = suites.add_parser("sqsv", help="SQSV certificate against a worst-case scan")
    sqsv.add_argument("--grid-size", type=_value(_read_int, SCAN_MIN_GRID), default=2000)
    factorization = suites.add_parser("factorization", help="exact statistics against 2^N sums")
    factorization.add_argument("--budget", type=_value(_read_int, 2, MAX_ENUM_TESTS), default=8,
                               help="max N")
    sweep = suites.add_parser("dqsv-sweep", help="DQSV soundness on random mixtures")
    sweep.add_argument("--n", type=_value(_read_int, 1, MAX_SWEEP_TESTS), default=6)
    sweep.add_argument("--k", type=_FAILURES, default=1)
    sweep.add_argument("--lambda", dest="lam", type=parse_lambda, default="1/3")
    sweep.add_argument("--trials", type=_COUNT, default=1000)
    sweep.add_argument("--seed", type=_SEED, default=0, help=seed_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        errors = exc.errors
    except ValueError as exc:  # a library refusal of the arguments
        errors = [exc]
    except NumericalConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
