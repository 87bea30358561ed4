"""A standing mutation check: small faults that the tests must catch.

Each entry of ``MUTANTS`` names a file of the repository, an exact text that
occurs once in it, the text that replaces it, the test files expected to
kill the mutant, and a note on what the mutant breaks.  Running this script
applies each mutant in turn to a temporary copy of ``src/``, runs
``pytest -x`` on its test files against that copy, and prints "killed" or
"survived", the time taken and the first failing test.  It runs outside
Tier-1, like the benchmark; ``tests/test_mutants.py`` checks only that the
table still applies, and starts no process.

    python tools/mutants.py

It exits 1 if any mutant survived.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
CERTIFICATES = "src/qsverify/certificates.py"
WINDOW_TESTS = ("tests/test_solve_j_window.py", "tests/test_tail_bound.py")


class Mutant(NamedTuple):
    name: str
    path: str                # relative to the repository root, under src/
    old: str                 # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]   # test files expected to kill it
    note: str


MUTANTS = (
    # The shape bound of the window's last two edges.
    Mutant(
        "shape-bound-half", CERTIFICATES,
        "    shape = (2.0 * rho / (1.0 - rho) + 4.0) * _UNIT_ROUNDOFF + (n + 1) * _TERM_CUTOFF",
        "    shape = 0.5 * ((2.0 * rho / (1.0 - rho) + 4.0) * _UNIT_ROUNDOFF + (n + 1) * _TERM_CUTOFF)",
        WINDOW_TESTS,
        "_edge_error's closed form at 1/2 of its proof: killed only by the test "
        "of the rule, which states the closed form; the anchored sums reach at "
        "most 0.36 of the bound against the 50-digit oracle, so half the bound "
        "still holds",
    ),
    Mutant(
        "shape-bound-eighth", CERTIFICATES,
        "    shape = (2.0 * rho / (1.0 - rho) + 4.0) * _UNIT_ROUNDOFF + (n + 1) * _TERM_CUTOFF",
        "    shape = 0.125 * ((2.0 * rho / (1.0 - rho) + 4.0) * _UNIT_ROUNDOFF + (n + 1) * _TERM_CUTOFF)",
        WINDOW_TESTS,
        "_edge_error's closed form at 1/8 of its proof",
    ),
    Mutant(
        "shape-mirror-swapped", CERTIFICATES,
        "    ahead, behind = (p_den - p_num, p_num) if lower else (p_num, p_den - p_num)",
        "    ahead, behind = (p_den - p_num, p_num)",
        ("tests/test_tail_bound.py",),
        "the complement's first ratio taken with the lower window's (ahead, "
        "behind), unmirrored: the complements at 10^5 trials then exceed it "
        "against the 50-digit oracle",
    ),
    Mutant(
        "edge-beyond-x_s-unchecked", CERTIFICATES,
        "    if lower:\n"
        "        return shape, x_s / _SHAPE_KEEP, 1.0\n"
        "    return shape, 0.0, 1.0 - (1.0 - x_s) / _SHAPE_KEEP",
        "    return shape, 0.0, 1.0",
        WINDOW_TESTS,
        "tight edges kept on the near side of x_s, where the chord argument says "
        "nothing: killed only by the test of the rule, as the tangent puts the "
        "edges within 1e-13 of the root's distance from it, far beyond x_s",
    ),
    Mutant(
        "x_s-at-the-root", CERTIFICATES,
        "_SHAPE_OFFSET = 2.0**-20",
        "_SHAPE_OFFSET = 0.0",
        WINDOW_TESTS,
        "x_s = r: the edge on x_s's side is never kept, which costs tail sums only",
    ),
    # The k = 0 crossing of solve_J.
    Mutant(
        "k0-crossing-lower-float", CERTIFICATES,
        "            return (lo, hi, tail_lo, tail_hi) if (n + 0.4) * hi >= 0.7 else None",
        "            return (lo, lo, tail_lo, tail_lo) if (n + 0.4) * hi >= 0.7 else None",
        ("tests/test_solve_j_window.py",),
        "the crossing's lower float x* where the bisection returns 0.5 (x* + x*+), "
        "which rounds to x*+ about half the time",
    ),
    Mutant(
        "k0-bracket-unchecked", CERTIFICATES,
        "    lo, hi = 0.0, 1.0\n"
        "    tail_lo = tail_hi = math.nan\n"
        "    for _ in range(_K0_MAX_STEPS):\n",
        "    return x, math.nextafter(x, 1.0), math.nan, math.nan\n"
        "    lo, hi = 0.0, 1.0\n"
        "    tail_lo = tail_hi = math.nan\n"
        "    for _ in range(_K0_MAX_STEPS):\n",
        ("tests/test_solve_j_window.py",),
        "the start and its successor taken as the crossing without a tail sum",
    ),
    Mutant(
        "k0-delta-max-0.99", CERTIFICATES,
        "_K0_DELTA_MAX = 0.49",
        "_K0_DELTA_MAX = 0.99",
        ("tests/test_solve_j_window.py",),
        "the crossing's band up to delta = 0.99: no root moves, as the median "
        "test at hi still declines every crossing where the complement is "
        "summed; killed by the band's tail-sum count, which falls back there, "
        "and by the test of the rule",
    ),
    Mutant(
        "k0-median-test-unchecked", CERTIFICATES,
        "            return (lo, hi, tail_lo, tail_hi) if (n + 0.4) * hi >= 0.7 else None",
        "            return lo, hi, tail_lo, tail_hi",
        ("tests/test_solve_j_window.py",),
        "the crossing kept where binom_tail's median estimate may still pass at "
        "hi: killed only by the test of the rule, with the band raised to 0.99, "
        "as inside the band the estimate always fails there",
    ),
    # The four of the re-anchor's mutation probes.
    Mutant(
        "dqsv-bound-0.99", CERTIFICATES,
        "    fidelity = zeta / q.delta",
        "    fidelity = 0.99 * zeta / q.delta",
        ("tests/test_certificates.py",),
        "the DQSV bound 1% low",
    ),
    Mutant(
        "window-margin-sixth", CERTIFICATES,
        "        return 3.0 * error * max(delta, TAIL_ERROR_FLOOR)\n"
        "    return 3.0 * (error * (1.0 - delta) + _UNIT_ROUNDOFF)",
        "        return 0.5 * error * max(delta, TAIL_ERROR_FLOOR)\n"
        "    return 0.5 * (error * (1.0 - delta) + _UNIT_ROUNDOFF)",
        WINDOW_TESTS,
        "_window_margin at 1/6 of its proof",
    ),
    Mutant(
        "zhat-tie-tol", CERTIFICATES,
        "ZHAT_TIE_TOL = 1e-14",
        "ZHAT_TIE_TOL = 1e-10",
        ("tests/test_certificates.py",),
        "zhat's tie band 10^4 times wider",
    ),
    # The two rules that end valid queries next to delta = 1 in a bound.
    Mutant(
        "kappa-one-at-the-last-knot", CERTIFICATES,
        " if h_z1 < min(delta, h_z) else 0.0",
        " if h_z1 < min(delta, h_z) else 1.0",
        ("tests/test_delta_next_to_one.py",),
        "kappa = 1 where the last knot is not below both delta and h_n: "
        "(136, 83, 1 - 2^-53, 0.7215780981758697) certifies g_n / delta = "
        "0.0073, above the exact 0.00556",
    ),
    Mutant(
        "model-slope-unguarded", CERTIFICATES,
        "        if slope == 0.0:\n"
        "            return x\n",
        "",
        ("tests/test_delta_next_to_one.py",),
        "the float model divides by a slope of 0: ZeroDivisionError at "
        "solve_J(133, 26, 1 - 1e-15)",
    ),
    # Mutants recorded by earlier changes.
    Mutant(
        "pow-exact-384-bits", CERTIFICATES,
        "    if base.bit_length() * exp <= _POW_PREC_BITS:",
        "    if base.bit_length() * exp <= 384:",
        ("tests/test_tail_kernel.py",),
        "_pow_reduced's exact path past its mantissa width",
    ),
    Mutant(
        "direct-sum-error-half", CERTIFICATES,
        "        return (n + 8) * _UNIT_ROUNDOFF",
        "        return (n + 8) * _UNIT_ROUNDOFF / 2",
        ("tests/test_tail_bound.py",),
        "the direct kernel's bound at 1/2 of its proof",
    ),
    Mutant(
        "direct-bound-below-its-band", CERTIFICATES,
        "    if n <= _DIRECT_Z_MAX and delta >= 2.0 * _DIRECT_SUM_MIN:",
        "    if n <= _DIRECT_Z_MAX:",
        ("tests/test_tail_bound.py",),
        "the direct kernel's bound below delta = 2 _DIRECT_SUM_MIN, where a tail "
        "near delta may be redone anchored: no root moves, so it is killed only "
        "by the test of the rule",
    ),
    Mutant(
        "ceiling-zero", CERTIFICATES,
        "    return upper if upper < 0.5 - _SIDE_GUARD else math.inf",
        "    return 0.0",
        ("tests/test_zero_certificate.py",),
        "a Chernoff ceiling of 0 wherever k < n p",
    ),
    Mutant(
        "ceiling-unpadded", CERTIFICATES,
        "    upper = bound * (1.0 + 2.0 * TAIL_REL_ERROR) + TAIL_REL_ERROR * TAIL_ERROR_FLOOR",
        "    upper = bound",
        ("tests/test_zero_certificate.py",),
        "the Chernoff ceiling without the tail contract's padding",
    ),
    Mutant(
        "ceiling-exponent-unrounded", CERTIFICATES,
        "    bound = math.exp(10.0 * _UNIT_ROUNDOFF * size - divergence)",
        "    bound = math.exp(-divergence)",
        ("tests/test_zero_certificate.py",),
        "the Chernoff ceiling without the rounding of its exponent, 10 u size "
        "relative: at k = 0 the bound is exact and falls below the computed tail",
    ),
    Mutant(
        "query-n-unlimited", CERTIFICATES,
        "        if self.n > TAIL_ERROR_Z_MAX:",
        "        if False:",
        ("tests/test_certificates.py", "tests/test_cli.py"),
        "CertificateQuery accepts n beyond the measured tail range",
    ),
    Mutant(
        "hashlib-at-import", "src/qsverify/simulate.py",
        "import json\n",
        "import hashlib\nimport json\n",
        ("tests/test_import_budget.py",),
        "hashlib loaded by every command, not only by write_rounds_csv",
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's old text in its file under ``root``."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> tuple[str, float, str]:
    """("killed" or "survived", seconds, first failing test or "")."""
    with tempfile.TemporaryDirectory(prefix="qsverify-mutant-") as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, Path(tmp))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    verdict = "survived" if proc.returncode == 0 else "killed"
    return verdict, seconds, failed[0].split(" - ")[0] if failed else ""


def main() -> int:
    survived = 0
    for mutant in MUTANTS:
        verdict, seconds, first = run(mutant)
        survived += verdict == "survived"
        print(f"{mutant.name:28s} {verdict:8s} {seconds:6.1f} s  {first}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
