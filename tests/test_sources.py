import math
from functools import partial

import numpy as np
import pytest

from matrix_mixtures import random_mixture
from qsverify import strategy
from qsverify.linalg import overlap, phased_singlet, projector
from qsverify.sources import (
    NoiseSpec,
    ProductSequence,
    ProductSequenceMixture,
    depolarized_state,
    honest_iid,
    maximally_mixed,
    mixture_from_spec,
    parse_angle,
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


def test_werner_extremes(strat):
    ideal = werner_state(1.0)
    assert ideal.mat.allclose(projector(phased_singlet(0.0)).mat, tol=1e-12)
    mixed = werner_state(0.25)
    assert mixed.mat.allclose(maximally_mixed().mat, tol=1e-12)
    with pytest.raises(ValueError):
        werner_state(0.2)


def test_werner_pass_probability(strat):
    assert pass_probability(strat, werner_state(0.98)) == pytest.approx(
        1 / 3 + (2 / 3) * 0.98, abs=1e-6
    )


def test_honest_iid_structure(strat):
    m = honest_iid(6, NoiseSpec(0.98))
    assert m.num_systems == 6
    assert len(m.branches) == 1
    w, seq = m.branches[0]
    assert w == 1.0
    for s in seq.states:
        assert overlap(strat.target, s) == pytest.approx(0.98, abs=1e-12)
    with pytest.raises(ValueError):
        honest_iid(1)
    with pytest.raises(ValueError):
        honest_iid(5, NoiseSpec(0.1))


def test_rho1_branch_weights_and_reduced_fidelity(strat):
    m = rho1(4)
    assert [w for w, _ in m.branches] == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
    assert unconditional_fidelity(m, strat.target) == pytest.approx(0.75, abs=1e-10)
    noisy = rho1(4, NoiseSpec(0.98))
    assert unconditional_fidelity(noisy, strat.target) == pytest.approx(
        (2 / 3) * 0.98 + (1 / 3) * 0.25, abs=1e-4
    )


def test_rho2_phi_zero_matches_honest(strat):
    m = rho2(3, 0.0)
    honest = honest_iid(4)
    for _, seq in m.branches:
        for s, h in zip(seq.states, honest.branches[0][1].states):
            assert s.mat.allclose(h.mat, tol=1e-12)


def test_rho2_pi_odd_copy_orthogonal(strat):
    # <S | S(pi)> = 0, so the rotated copy carries zero target fidelity
    assert abs(np.vdot(phased_singlet(0.0).vec, phased_singlet(math.pi).vec)) < 1e-12
    m = rho2(5, math.pi)
    assert len(m.branches) == 6
    assert unconditional_fidelity(m, strat.target) == pytest.approx(5 / 6, abs=1e-10)
    for slot, (w, seq) in enumerate(m.branches):
        assert w == pytest.approx(1 / 6, abs=1e-15)
        assert overlap(strat.target, seq.states[slot]) == pytest.approx(0.0, abs=1e-10)


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

    def branch_key(seq):
        return tuple(s.mat.data.round(9).tobytes() for s in seq.states)

    original = sorted(branch_key(seq) for _, seq in m.branches)
    permuted = sorted(
        branch_key(ProductSequence(tuple(seq.states[i] for i in perm)))
        for _, seq in m.branches
    )
    assert original == permuted


def test_all_factors_are_valid_density_matrices():
    for m in (rho1(3, NoiseSpec(0.9)), rho2(3, 2.0, NoiseSpec(0.8)), honest_iid(4)):
        for w, seq in m.branches:
            assert w >= 0
            for s in seq.states:
                eigs = np.linalg.eigvalsh(s.mat.data)
                assert eigs.min() > -1e-10
                assert abs(np.trace(s.mat.data) - 1) < 1e-10


def test_mixture_validation():
    seq = ProductSequence((maximally_mixed(), maximally_mixed()))
    with pytest.raises(ValueError):
        ProductSequenceMixture(((0.5, seq),))  # weights don't sum to 1
    with pytest.raises(ValueError):
        ProductSequence((maximally_mixed(),))  # too short
    long_seq = ProductSequence((maximally_mixed(),) * 3)
    with pytest.raises(ValueError):
        ProductSequenceMixture(((0.5, seq), (0.5, long_seq)))  # unequal lengths


def test_ideal_singlet_branches_pass_surely(strat):
    # rho1's singlet branch, every rho2 branch, and the honest source all
    # consist of perfect singlet copies when phi = 0 and prep is ideal
    singlet_branch = rho1(3).branches[0][1]
    sources_states = list(singlet_branch.states)
    for _, seq in rho2(3, 0.0).branches:
        sources_states.extend(seq.states)
    sources_states.extend(honest_iid(4).branches[0][1].states)
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
    assert parse_state("singlet").mat.allclose(projector(strat.target).mat)
    assert parse_state("mixed").mat.allclose(maximally_mixed().mat)
    assert parse_state("werner(0.9)").mat.allclose(werner_state(0.9).mat)
    assert parse_state("singlet_phi(pi)").mat.allclose(
        projector(phased_singlet(math.pi)).mat, tol=1e-12
    )
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

    table = rho2(50, math.pi / 3).tabulate(fn)
    assert table.shape == (51, 51)
    assert len(calls) == 2
    assert np.array_equal(np.diag(table), np.full(51, table[0, 0]))

    # parse_state builds a new object for every descriptor it reads; keying by
    # content still evaluates each distinct descriptor once.
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
    assert probs.shape == (len(m.branches), 7, len(strat.tests))
    assert a.shape == fid.shape == (len(m.branches), 7)
    for b, (_, seq) in enumerate(m.branches):
        for i, s in enumerate(seq.states):
            assert np.array_equal(probs[b, i], strategy.test_pass_probabilities(strat, s))
            assert a[b, i] == pass_probability(strat, s)
            assert fid[b, i] == overlap(strat.target, s)
