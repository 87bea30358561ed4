import math
import re
from functools import partial

import numpy as np
import pytest

from matrix_mixtures import random_mixture
from qsverify import strategy
from qsverify.linalg import overlap, phased_singlet, projector
from qsverify.sources import (
    NoiseSpec,
    ProductSequenceMixture,
    depolarized_state,
    honest_iid,
    maximally_mixed,
    mixture_from_spec,
    parse_angle,
    parse_real,
    parse_state,
    rho1,
    rho2,
    unconditional_fidelity,
    werner_state,
    worst_case_state,
)
from qsverify.strategy import build_singlet_strategy, pass_probability


@pytest.fixture(scope="module")
def strat():
    return build_singlet_strategy()


def same_matrix(a, b) -> bool:
    return np.allclose(a.data, b.data, rtol=0, atol=1e-12)


def states(m, branch):
    """The states of one branch, in system order."""
    return [m.palette[i] for i in m.index[branch]]


def test_werner_extremes(strat):
    ideal = werner_state(1.0)
    assert same_matrix(ideal, projector(phased_singlet(0.0)))
    mixed = werner_state(0.25)
    assert same_matrix(mixed, maximally_mixed())
    with pytest.raises(ValueError):
        werner_state(0.2)


def test_werner_pass_probability(strat):
    assert pass_probability(strat, werner_state(0.98)) == pytest.approx(
        1 / 3 + (2 / 3) * 0.98, abs=1e-6
    )


def test_honest_iid_structure(strat):
    m = honest_iid(6, NoiseSpec(0.98))
    assert m.num_systems == 6
    assert m.weights.tolist() == [1.0]
    assert m.index.shape == (1, 6)
    for s in states(m, 0):
        assert overlap(strat.target, s) == pytest.approx(0.98, abs=1e-12)
    with pytest.raises(ValueError):
        honest_iid(1)
    with pytest.raises(ValueError):
        honest_iid(5, NoiseSpec(0.1))


def test_rho1_branch_weights_and_reduced_fidelity(strat):
    m = rho1(4)
    assert m.weights.tolist() == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
    assert unconditional_fidelity(m, strat.target) == pytest.approx(0.75, abs=1e-10)
    noisy = rho1(4, NoiseSpec(0.98))
    assert unconditional_fidelity(noisy, strat.target) == pytest.approx(
        (2 / 3) * 0.98 + (1 / 3) * 0.25, abs=1e-4
    )


def test_rho2_phi_zero_matches_honest(strat):
    m = rho2(3, 0.0)
    honest = honest_iid(4)
    for b in range(len(m.weights)):
        for s, h in zip(states(m, b), states(honest, 0)):
            assert same_matrix(s, h)


def test_rho2_pi_odd_copy_orthogonal(strat):
    # <S | S(pi)> = 0, so the rotated copy carries zero target fidelity
    assert abs(np.vdot(phased_singlet(0.0).vec, phased_singlet(math.pi).vec)) < 1e-12
    m = rho2(5, math.pi)
    assert len(m.weights) == 6
    assert unconditional_fidelity(m, strat.target) == pytest.approx(5 / 6, abs=1e-10)
    for slot, w in enumerate(m.weights):
        assert w == pytest.approx(1 / 6, abs=1e-15)
        assert overlap(strat.target, states(m, slot)[slot]) == pytest.approx(0.0, abs=1e-10)


def test_rho2_intermediate_phase_fidelity(strat):
    # |<S|S(phi)>|^2 = cos^2(phi/2)
    for phi in (0.3, math.pi / 2, 2.4):
        m = rho2(4, phi)
        expected = (4 + math.cos(phi / 2) ** 2) / 5
        assert unconditional_fidelity(m, strat.target) == pytest.approx(expected, abs=1e-10)


def test_rho2_permutation_covariance():
    # permuting the system slots maps the branch set onto itself
    m = rho2(4, 1.1)
    rng = np.random.default_rng(0)
    perm = rng.permutation(5)

    def branch_keys(index):
        return sorted(map(tuple, index.tolist()))

    assert branch_keys(m.index) == branch_keys(m.index[:, perm])


def test_all_factors_are_valid_density_matrices():
    for m in (rho1(3, NoiseSpec(0.9)), rho2(3, 2.0, NoiseSpec(0.8)), honest_iid(4)):
        assert np.all(m.weights >= 0)
        assert set(m.index.ravel().tolist()) == set(range(len(m.palette)))
        for s in m.palette:
            eigs = np.linalg.eigvalsh(s.data)
            assert eigs.min() > -1e-10
            assert abs(np.trace(s.data) - 1) < 1e-10


def test_mixture_validation():
    mixed = (maximally_mixed(),)
    with pytest.raises(ValueError):
        ProductSequenceMixture([0.5], mixed, np.zeros((1, 2), dtype=int))  # weights don't sum to 1
    with pytest.raises(ValueError):
        ProductSequenceMixture([1.0], mixed, np.zeros((1, 1), dtype=int))  # too short
    with pytest.raises(ValueError):
        ProductSequenceMixture([0.5, 0.5], mixed, np.zeros((1, 3), dtype=int))  # rows != weights
    with pytest.raises(ValueError, match="inconsistent lengths"):
        mixture_from_spec({"branches": [
            {"weight": 0.5, "states": ["mixed", "mixed"]},
            {"weight": 0.5, "states": ["mixed", "mixed", "mixed"]},
        ]})


def test_mixture_rejects_nan_weights():
    # abs(nan - 1) > tol is False, so the sum check must be written to fail on NaN.
    two = np.zeros((2, 2), dtype=int)
    for weights in ([math.nan, 0.5], [math.nan, math.nan], [math.inf, -math.inf]):
        with pytest.raises(ValueError):
            ProductSequenceMixture(weights, (maximally_mixed(),), two)
    with pytest.raises(ValueError, match="branch weights sum to nan"):
        ProductSequenceMixture([math.nan], (maximally_mixed(),), np.zeros((1, 2), dtype=int))
    for value in (math.nan, math.inf, -math.inf, "nan", "inf"):
        with pytest.raises(ValueError, match="expected a finite number"):
            parse_real(value)
        with pytest.raises(ValueError, match="expected a finite number"):
            parse_angle(value)
    spec = {"branches": [{"weight": math.nan, "states": ["singlet", "singlet"]}]}
    with pytest.raises(ValueError, match=r"branches\[0\]\.weight: expected a finite number"):
        mixture_from_spec(spec)
    with pytest.raises(ValueError, match="divides by zero"):
        parse_angle("pi/0")


def test_mixture_index_is_checked_before_narrowing():
    pal = (maximally_mixed(), werner_state(0.9))
    # 256 and -255 would wrap to the valid entries 0 and 1 in uint8.
    for bad in ([[0, 256]], [[0, -255]], [[0, 2]], [[-1, 0]]):
        with pytest.raises(ValueError, match="index entries"):
            ProductSequenceMixture([1.0], pal, np.array(bad))
    for bad in (np.zeros((1, 2)), np.zeros(2, dtype=int), np.zeros((1, 2), dtype=bool)):
        with pytest.raises(ValueError, match="index must be"):
            ProductSequenceMixture([1.0], pal, bad)
    with pytest.raises(ValueError, match="DensityMatrix"):
        ProductSequenceMixture([1.0], (maximally_mixed(), "singlet"), np.zeros((1, 2), dtype=int))
    raw = np.array([[0, 1, 1]])
    m = ProductSequenceMixture([1.0], pal, raw)
    assert m.index.dtype == np.uint8 and m.index.tolist() == [[0, 1, 1]]
    assert not m.index.flags.writeable and not m.weights.flags.writeable
    raw[0, 0] = 1  # the mixture keeps its own copy
    assert m.index.tolist() == [[0, 1, 1]]
    wide = ProductSequenceMixture([1.0], (maximally_mixed(),) * 300, np.array([[0, 299]]))
    assert wide.index.dtype == np.uint16
    for m in (honest_iid(5), rho1(4), rho2(4, 1.0), mixture_from_spec(
        {"branches": [{"weight": 1, "states": ["singlet", "mixed"]}]}
    )):
        assert m.index.dtype == np.uint8


def test_ideal_singlet_branches_pass_surely(strat):
    # rho1's singlet branch, every rho2 branch, and the honest source all
    # consist of perfect singlet copies when phi = 0 and prep is ideal
    sources_states = states(rho1(3), 0)
    for m in (rho2(3, 0.0), honest_iid(4)):
        for b in range(len(m.weights)):
            sources_states.extend(states(m, b))
    for s in sources_states:
        assert pass_probability(strat, s) == pytest.approx(1.0, abs=1e-10)


def test_worst_case_state_saturates_pass_probability(strat):
    for eps in (0.0, 0.1, 0.5, 1.0):
        tau = worst_case_state(eps, strat)
        assert pass_probability(strat, tau) == pytest.approx(
            1.0 - strat.nu * eps, abs=1e-10
        )
        assert overlap(strat.target, tau) == pytest.approx(1.0 - eps, abs=1e-10)


def test_depolarized_phased_singlet_self_fidelity():
    phi = 2.1
    s = depolarized_state(phased_singlet(phi), 0.9)
    assert overlap(phased_singlet(phi), s) == pytest.approx(0.9, abs=1e-12)


def test_parse_angle():
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
    assert parse_angle("3pi/4") == pytest.approx(3 * math.pi / 4)
    assert parse_angle("0.5") == 0.5
    assert parse_angle(1.25) == 1.25
    assert parse_angle("-pi") == pytest.approx(-math.pi)
    # A YAML ``yes`` is a bool, not the angle 1.
    with pytest.raises(ValueError, match="expected a number, got True"):
        parse_angle(True)


def test_parse_state_descriptors(strat):
    assert same_matrix(parse_state("singlet"), projector(strat.target))
    assert same_matrix(parse_state("mixed"), maximally_mixed())
    assert same_matrix(parse_state("werner(0.9)"), werner_state(0.9))
    assert same_matrix(parse_state("singlet_phi(pi)"), projector(phased_singlet(math.pi)))
    with pytest.raises(ValueError):
        parse_state("bogus(3)")
    with pytest.raises(ValueError):
        parse_state("werner")


def test_mixture_from_spec(strat):
    spec = {
        "branches": [
            {"weight": 0.25, "states": ["singlet", "werner(0.9)", "mixed"]},
            {"weight": 0.75, "states": ["singlet_phi(pi/2)", "singlet", "singlet"]},
        ]
    }
    m = mixture_from_spec(spec)
    assert m.num_systems == 3
    assert m.weights.tolist() == [0.25, 0.75]
    with pytest.raises(ValueError):
        mixture_from_spec({"branches": []})
    with pytest.raises(ValueError):
        mixture_from_spec({"branches": [{"weight": 1.0}]})
    with pytest.raises(ValueError, match="label"):
        mixture_from_spec({"branches": [dict(spec["branches"][0], label="x")]})
    with pytest.raises(ValueError, match=r"branches\[0\]\.weight: expected a number, got True"):
        mixture_from_spec({"branches": [dict(spec["branches"][0], weight=True)]})


def test_tabulate_calls_fn_once_per_distinct_state():
    calls = []

    def fn(s):
        calls.append(s)
        return len(calls)

    m = rho2(50, math.pi / 3)
    table = m.tabulate(fn)[m.index]
    assert table.shape == (51, 51)
    assert len(calls) == 2
    assert np.array_equal(np.diag(table), np.full(51, table[0, 0]))
    assert np.array_equal(table[0, 1:], np.full(50, table[0, 1]))

    # Each distinct descriptor is one palette entry, so it is evaluated once.
    spec = {
        "branches": [
            {"weight": 0.5, "states": ["singlet", "werner(0.9)", "singlet", "mixed"]},
            {"weight": 0.5, "states": ["mixed", "singlet_phi(pi/2)", "werner(0.9)", "singlet"]},
        ]
    }
    calls.clear()
    mixture_from_spec(spec).tabulate(fn)
    assert len(calls) == len({d for b in spec["branches"] for d in b["states"]}) == 4


def test_tabulate_matches_per_state_evaluation(strat):
    m = random_mixture(6, np.random.default_rng(11))
    probs = m.tabulate(partial(strategy.test_pass_probabilities, strat))
    a = m.tabulate(partial(pass_probability, strat))
    fid = m.tabulate(partial(overlap, strat.target))
    assert probs.shape == (len(m.palette), len(strat.tests))
    assert a.shape == fid.shape == (len(m.palette),)
    probs, a, fid = probs[m.index], a[m.index], fid[m.index]
    assert probs.shape == (len(m.weights), 7, len(strat.tests))
    for b in range(len(m.weights)):
        for i, s in enumerate(states(m, b)):
            assert np.array_equal(probs[b, i], strategy.test_pass_probabilities(strat, s))
            assert a[b, i] == pass_probability(strat, s)
            assert fid[b, i] == overlap(strat.target, s)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda s: ProductSequenceMixture([[1.0]], (maximally_mixed(),), np.zeros((1, 2), int)),
         "mixture needs a non-empty 1-D array of branch weights"),
        (lambda s: ProductSequenceMixture([], (maximally_mixed(),), np.zeros((0, 2), int)),
         "mixture needs a non-empty 1-D array of branch weights"),
        (lambda s: ProductSequenceMixture([1.5, -0.5], (maximally_mixed(),),
                                          np.zeros((2, 2), int)),
         "branch weights must be non-negative"),
        (lambda s: rho1(0), "need n >= 1, got 0"),
        (lambda s: rho2(0, math.pi), "need n >= 1, got 0"),
        (lambda s: worst_case_state(1.5, s), "epsilon 1.5 outside [0, 1]"),
        (lambda s: worst_case_state(-0.5, s), "epsilon -0.5 outside [0, 1]"),
        (lambda s: parse_state("Singlet"), "unparseable state descriptor 'Singlet'"),
        (lambda s: parse_state("singlet(1)"), "singlet takes no argument"),
        (lambda s: parse_state("mixed(0.5)"), "mixed takes no argument"),
        (lambda s: parse_state("singlet_phi"), "singlet_phi requires a phase argument"),
    ],
    ids=["2-d-weights", "no-weights", "negative-weight", "rho1", "rho2", "epsilon-above",
         "epsilon-below", "unparseable", "singlet-arg", "mixed-arg", "singlet-phi-no-arg"],
)
def test_refusals_state_their_reason(strat, build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(strat)
