"""Valid queries within a few ulps of delta = 1 end in a bound.

There the knot tails and the tail near the SQSV root read within the tie
band of delta, or round to 1.  DQSV's last knot h_{n+1} = B_{n,k}(nu), which
the zhat search never probes, may read at or above delta or level with h_n;
``_dqsv_core`` then takes kappa = 0 and the bound 0.  SQSV's float model of
the tail may meet an iterate outside (0, 1) or a slope of 0 and hands its
start back to the Newton phase.  ``tests/test_cli_fuzz.py`` cannot reach
these queries: it draws n <= 12 and delta <= 0.99.
"""

import json
from fractions import Fraction

import pytest

from qsverify.certificates import CertificateQuery, certificate, solve_J
from qsverify.cli import main
from rational_oracle import dqsv_fidelity_exact
from test_solve_j_window import reference_bisection

LAMBDAS = (1 / 3, 1 / 2, 1e-12, 1.0 - 2.0**-53)
DELTAS = (1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0 - 1e-15, 1.0 - 1e-14)
NS = (1, 2, 3, 4, 5, 7, 9, 12, 16, 22, 30, 41, 57, 78, 100, 101, 136, 180, 220, 250, 291, 320,
      360, 378, 400)

# (n, k, delta, lambda) where DQSV's last knot is not below both delta and
# h_n, with the exact bound at the float inputs where it takes about a second.
LAST_KNOT = {
    (136, 83, 1.0 - 2.0**-53, 0.7215780981758697): True,
    (320, 231, 1.0 - 2.0**-53, 1 / 2): True,
    (291, 213, 1.0 - 2.0**-53, 1 / 2): True,
    (378, 321, 1.0 - 2.0**-53, 1 / 3): False,  # 39 s in the oracle
}
# SQSV solves where the float model once raised: OverflowError from exp(w)
# at (16, 14), ZeroDivisionError from a slope of 0 at (133, 26).
MODEL_ROOTS = {
    (16, 14, 1.0 - 2.0**-53): 0.06885721035970091,
    (133, 26, 1.0 - 1e-15): 0.028223175059893038,
}


def _grid():
    for n in NS:
        ks = {0, 1, n // 8, n // 4, n // 3, n // 2, 2 * n // 3, 3 * n // 4, 7 * n // 8,
              n - 2, n - 1}
        for k in sorted(ks & set(range(n))):
            for delta in DELTAS:
                for lam in LAMBDAS:
                    yield n, k, delta, lam
    yield from LAST_KNOT
    for n, k, delta in MODEL_ROOTS:
        yield n, k, delta, 1 / 3


@pytest.mark.parametrize("protocol", ["sqsv", "dqsv"])
def test_queries_next_to_delta_one_return_a_bound(protocol):
    queries = 0
    for n, k, delta, lam in _grid():
        bound = certificate(CertificateQuery(protocol, n, k, delta, lam)).fidelity_bound
        assert 0.0 <= bound <= 1.0, (n, k, delta, lam)
        queries += 1
    assert queries > 3000


@pytest.mark.parametrize("query", [q for q, fast in LAST_KNOT.items() if fast])
def test_last_knot_bound_is_below_the_exact_bound(query):
    # kappa = 0 at the last knot gives 0 here; kappa = 1, the bound g_n /
    # delta, gives 0.0073 at (136, 83, ...), above the exact 0.00556.
    n, k, delta, lam = query
    bound = certificate(CertificateQuery("dqsv", n, k, delta, lam)).fidelity_bound
    exact = dqsv_fidelity_exact(k, n, Fraction(delta), Fraction(lam))
    assert 0.0 <= bound <= exact


@pytest.mark.parametrize("case, root", MODEL_ROOTS.items())
def test_roots_where_the_float_model_steps_aside(case, root):
    assert solve_J.__wrapped__(*case) == reference_bisection(*case) == root


@pytest.mark.parametrize(
    "argv",
    [
        ("sqsv", "16", "14", "0.9999999999999999", "1/3"),
        ("sqsv", "133", "26", "0.999999999999999", "1/3"),
        ("dqsv", "378", "321", "0.9999999999999999", "1/3"),
    ],
)
def test_certify_next_to_delta_one_exits_0(capsys, argv):
    protocol, n, k, delta, lam = argv
    code = main(["certify", "--protocol", protocol, "--n", n, "--k", k,
                 "--delta", delta, "--lambda", lam])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert 0.0 <= payload["fidelity_bound"] <= 1.0
