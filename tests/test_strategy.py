import logging
import re

import numpy as np
import pytest

from qsverify import strategy
from qsverify.linalg import (
    DensityMatrix,
    expectation,
    overlap,
    phased_singlet,
    projector,
)
from qsverify.strategy import (
    CLAMP_LOG_TOL,
    build_homogeneous_strategy,
    build_singlet_strategy,
    fidelity_from_pass_rate,
    pass_probability,
)
from qsverify.simulate import RandomPlan, run_rounds
from qsverify.sources import ProductSequenceMixture


@pytest.fixture(scope="module")
def strat():
    return build_singlet_strategy()


def random_density(rng) -> DensityMatrix:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


def test_singlet_strategy_parameters(strat):
    assert strat.lam == pytest.approx(1 / 3, abs=1e-15)
    assert strat.nu == 1.0 - strat.lam
    assert strat.labels == ("XX", "YY", "ZZ")
    assert np.allclose(strat.weights, [1 / 3] * 3)


def test_target_passes_with_certainty(strat):
    target = projector(strat.target)
    assert expectation(strat.omega, target) == pytest.approx(1.0, abs=1e-10)
    for t in strat.tests:
        assert expectation(t.proj, target) == pytest.approx(1.0, abs=1e-10)


def test_omega_trace_on_maximally_mixed(strat):
    # tr Omega = 1 + 3 lambda = 2, checked through the mixed-state expectation.
    mixed = DensityMatrix(np.eye(4) / 4)
    assert expectation(strat.omega, mixed) == pytest.approx(0.5, abs=1e-12)
    assert np.trace(strat.omega).real == pytest.approx(2.0, abs=1e-12)


def test_projector_ranks_match_eigendecomposition(strat):
    # Each negative-eigenspace projector must reproduce the eigenspace of the
    # Pauli product it was built from.
    paulis = (
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]]),
    )
    for t, w in zip(strat.tests, paulis):
        rank = int(round(np.trace(t.proj).real))
        eigs = np.linalg.eigvalsh(np.kron(w, w))
        assert rank == int(np.sum(eigs < 0))
        assert rank in (1, 2, 3)


def test_zz_projector_is_diagonal(strat):
    # ZZ = diag(1, -1, -1, 1) in the |00>, |01>, |10>, |11> order, so its
    # -1 eigenspace is spanned by |01> and |10>.
    zz = strat.tests[strat.labels.index("ZZ")].proj
    assert np.array_equal(zz, np.diag([0, 1, 1, 0]))


def test_xx_projector_pairs_flipped_basis_states(strat):
    # XX flips both qubits, |01> <-> |10> and |00> <-> |11>, so (1 - XX)/2 is
    # 1/2 on the diagonal and -1/2 between each flipped pair.
    xx = strat.tests[strat.labels.index("XX")].proj
    want = np.eye(4) / 2
    for a, b in ((0b01, 0b10), (0b00, 0b11)):
        want[a, b] = want[b, a] = -0.5
    assert np.array_equal(xx, want)


def test_homogeneity_on_random_states(strat):
    rng = np.random.default_rng(10)
    for _ in range(10_000):
        s = random_density(rng)
        fid = overlap(strat.target, s)
        assert abs(pass_probability(strat, s) - (strat.lam + strat.nu * fid)) < 1e-10


def test_fidelity_roundtrip_on_random_states(strat):
    rng = np.random.default_rng(11)
    for _ in range(1000):
        s = random_density(rng)
        rate = pass_probability(strat, s)
        assert fidelity_from_pass_rate(rate, strat.lam) == pytest.approx(
            overlap(strat.target, s), abs=1e-10
        )


def test_pass_probability_werner(strat):
    from qsverify.sources import werner_state

    # lambda + nu * F at F = 0.98
    assert pass_probability(strat, werner_state(0.98)) == pytest.approx(
        0.98666666666, abs=1e-5
    )


def iid_rounds(strat, s, n, rounds, seed):
    """SQSV rounds of n tests each on IID copies of ``s``, from the round engine."""
    source = ProductSequenceMixture([1.0], (s,), np.zeros((1, max(n, 2)), dtype=int))
    return run_rounds(source, n, strat, rounds, "sqsv", RandomPlan(seed))


def test_sample_test_target_always_passes(strat):
    table = iid_rounds(strat, projector(strat.target), 10, 20, 12)
    assert np.all(table.failures == 0)
    assert set(np.unique(table.settings)) <= set(range(len(strat.tests)))


def test_sample_test_orthogonal_support_is_deterministic_per_setting(strat):
    # The symmetric state (|01> + |10>)/sqrt(2) sits in the positive
    # eigenspace of XX and YY (fails those tests with certainty) and in the
    # negative eigenspace of ZZ (passes it with certainty).  No state can be
    # orthogonal to all three test projectors since Omega >= 1/3.
    from qsverify.linalg import PureState

    triplet = projector(PureState(np.array([0, 1, 1, 0]) / np.sqrt(2)))
    probs = {t.label: expectation(t.proj, triplet) for t in strat.tests}
    assert probs["XX"] == pytest.approx(0.0, abs=1e-12)
    assert probs["YY"] == pytest.approx(0.0, abs=1e-12)
    assert probs["ZZ"] == pytest.approx(1.0, abs=1e-12)
    # One test per round, so each round's failure count is that test's outcome.
    table = iid_rounds(strat, triplet, 1, 300, 13)
    labels = np.array(strat.labels)[table.settings[:, 0]]
    assert np.array_equal(table.failures == 0, labels == "ZZ")


def test_sample_tests_empirical_rate_mixed(strat):
    mixed = DensityMatrix(np.eye(4) / 4)
    n, rounds = 100, 10_000
    table = iid_rounds(strat, mixed, n, rounds, 14)
    tests = n * rounds
    p = pass_probability(strat, mixed)
    sigma = np.sqrt(p * (1 - p) / tests)
    assert abs((tests - table.failures.sum()) / tests - p) < 4 * sigma


def test_sample_tests_empirical_rate_werner(strat):
    from qsverify.sources import werner_state

    s = werner_state(0.9)
    n, rounds = 100, 10_000
    table = iid_rounds(strat, s, n, rounds, 15)
    tests = n * rounds
    p = pass_probability(strat, s)
    sigma = np.sqrt(p * (1 - p) / tests)
    assert abs((tests - table.failures.sum()) / tests - p) < 4 * sigma


def test_setting_frequencies_follow_weights(strat):
    mixed = DensityMatrix(np.eye(4) / 4)
    table = iid_rounds(strat, mixed, 100, 3000, 16)
    n = table.settings.size
    counts = np.bincount(table.settings.ravel(), minlength=3) / n
    sigma = np.sqrt((1 / 3) * (2 / 3) / n)
    assert np.max(np.abs(counts - 1 / 3)) < 4 * sigma


def test_fidelity_from_pass_rate_examples():
    assert fidelity_from_pass_rate(1.0, 1 / 3) == pytest.approx(1.0, abs=1e-15)
    assert fidelity_from_pass_rate(1 / 3, 1 / 3) == pytest.approx(0.0, abs=1e-15)
    assert fidelity_from_pass_rate(7 / 9, 1 / 3) == pytest.approx(2 / 3, abs=1e-12)
    # below-lambda rates give a negative estimate, reported as-is
    assert fidelity_from_pass_rate(0.2, 1 / 3) < 0
    with pytest.raises(ValueError):
        fidelity_from_pass_rate(0.5, 1.0)


def test_general_homogeneous_strategy():
    rng = np.random.default_rng(17)
    for lam in (0.0, 0.1, 0.5, 0.9):
        strat = build_homogeneous_strategy(phased_singlet(0.0), lam)
        assert strat.lam == lam
        for _ in range(100):
            s = random_density(rng)
            fid = overlap(strat.target, s)
            assert abs(pass_probability(strat, s) - (lam + (1 - lam) * fid)) < 1e-10


def test_strategy_constructor_rejects_inconsistency():
    from qsverify.strategy import HomogeneousStrategy, StrategyTest

    target = phased_singlet(0.0)
    good = build_singlet_strategy()
    with pytest.raises(ValueError):
        HomogeneousStrategy(good.tests, target, 0.5)  # wrong lambda
    bad_tests = (StrategyTest("ALL", np.eye(4), 1.0),)
    with pytest.raises(ValueError):
        HomogeneousStrategy(bad_tests, target, 1 / 3)


def test_strategy_test_rejects_bad_projectors():
    from qsverify.strategy import StrategyTest

    nonherm = np.diag([1.0, 0, 0, 0]).astype(complex)
    nonherm[0, 1] = 1e-3
    for proj in (np.eye(2), np.eye(4) * 2, nonherm):
        with pytest.raises(ValueError):
            StrategyTest("BAD", proj, 1.0)


@pytest.mark.parametrize("func", [pass_probability, strategy.test_pass_probabilities])
def test_clamped_pass_probability_logs_a_warning(strat, monkeypatch, caplog, func):
    # ``logging`` is imported only on this branch; the record must still reach
    # the module's logger at WARNING.
    monkeypatch.setattr(strategy, "expectation", lambda op, s: 1.0 + 10 * CLAMP_LOG_TOL)
    with caplog.at_level(logging.WARNING, logger="qsverify.strategy"):
        value = func(strat, DensityMatrix(np.eye(4) / 4))
    assert np.all(np.asarray(value) == 1.0)
    assert [(r.name, r.levelname) for r in caplog.records] == [("qsverify.strategy", "WARNING")]
    assert "clamped" in caplog.records[0].getMessage()


def _homogeneous_tests(lam):
    return build_homogeneous_strategy(phased_singlet(0.0), lam).tests


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: strategy.StrategyTest("ALL", np.eye(4), 1.5), "test weight 1.5 outside [0, 1]"),
        (lambda: strategy.HomogeneousStrategy(_homogeneous_tests(0.5), phased_singlet(0.0), 1.0),
         "lambda 1.0 outside [0, 1)"),
        (lambda: strategy.HomogeneousStrategy(_homogeneous_tests(0.5)[:1], phased_singlet(0.0),
                                              0.5),
         "test weights sum to 0.5, not 1"),
        (lambda: strategy.HomogeneousStrategy(_homogeneous_tests(0.5), phased_singlet(1.0), 0.5),
         "target state does not pass every test with certainty"),
        (lambda: build_homogeneous_strategy(phased_singlet(0.0), 1.0),
         "lambda 1.0 outside [0, 1)"),
        (lambda: build_homogeneous_strategy(phased_singlet(0.0), -0.1),
         "lambda -0.1 outside [0, 1)"),
        (lambda: fidelity_from_pass_rate(1.5, 1 / 3), "pass rate 1.5 outside [0, 1]"),
    ],
    ids=["test-weight", "lambda", "weight-sum", "target-fails", "build-lambda-one",
         "build-lambda-negative", "pass-rate"],
)
def test_refusals_state_their_reason(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
