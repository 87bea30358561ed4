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
        "    return min(bound, (2.0 * spread + 4.0) * _UNIT_ROUNDOFF + (z + 1) * _TERM_CUTOFF)",
        "    return 0.5 * min(bound, (2.0 * spread + 4.0) * _UNIT_ROUNDOFF + (z + 1) * _TERM_CUTOFF)",
        WINDOW_TESTS,
        "_shape_error at 1/2 of its proof: killed only by the test of the rule, "
        "where it puts a one-term window's shape bound below its kernel bound; "
        "the anchored sums reach at most 0.34 of the bound against the 50-digit "
        "oracle, so half the bound still holds",
    ),
    Mutant(
        "shape-bound-eighth", CERTIFICATES,
        "    return min(bound, (2.0 * spread + 4.0) * _UNIT_ROUNDOFF + (z + 1) * _TERM_CUTOFF)",
        "    return 0.125 * min(bound, (2.0 * spread + 4.0) * _UNIT_ROUNDOFF + (z + 1) * _TERM_CUTOFF)",
        WINDOW_TESTS,
        "_shape_error at 1/8 of its proof",
    ),
    Mutant(
        "edge-beyond-x_s-unchecked", CERTIFICATES,
        "    return shape, keep_lo, keep_hi",
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
        "anchored-sum-error-half", CERTIFICATES,
        "    return (2 * (hi - lo) + 3) * _UNIT_ROUNDOFF + (z + 1) * _TERM_CUTOFF",
        "    return ((2 * (hi - lo) + 3) * _UNIT_ROUNDOFF + (z + 1) * _TERM_CUTOFF) / 2",
        WINDOW_TESTS,
        "_anchored_sum_error at 1/2 of its proof",
    ),
    Mutant(
        "zhat-tie-tol", CERTIFICATES,
        "ZHAT_TIE_TOL = 1e-14",
        "ZHAT_TIE_TOL = 1e-10",
        ("tests/test_certificates.py",),
        "zhat's tie band 10^4 times wider",
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
        "    return max((z + 8) * _UNIT_ROUNDOFF, anchored)",
        "    return max((z + 8) * _UNIT_ROUNDOFF / 2, anchored)",
        ("tests/test_tail_bound.py",),
        "the direct kernel's bound at 1/2 of its proof",
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
        "relative: survives, as no test puts delta that close above the bound",
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
