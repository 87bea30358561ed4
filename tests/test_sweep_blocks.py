"""The soundness sweep in blocks against the per-trial sweep it replaced.

``sweep_reference`` keeps the per-trial draw and loop verbatim.  Both run on
generators seeded alike, and the reports (argmin record and labels included)
and the generators' final states must be equal: for every n <= 12 the
reference admits, over more than one block, and on bit generators other than
PCG64, so the draws do not hinge on one generator's buffering.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import MT19937, PCG64, Generator, Philox

import sweep_reference
from qsverify import exact
from qsverify.exact import SWEEP_BLOCK_TRIALS, dqsv_soundness_sweep


def _plain(state):
    """A bit-generator state with its arrays as lists, so == compares it."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def _both(n, k, trials, make_rng):
    rng, ref_rng = make_rng(), make_rng()
    got = dqsv_soundness_sweep(n, k, 1 / 3, trials, rng)
    want = sweep_reference.dqsv_soundness_sweep(n, k, 1 / 3, trials, ref_rng)
    return got, want, _plain(rng.bit_generator.state), _plain(ref_rng.bit_generator.state)


@pytest.mark.parametrize("bit_generator", [PCG64, MT19937, Philox], ids=lambda g: g.__name__)
@pytest.mark.parametrize("n", range(1, 13))
def test_blocked_sweep_equals_per_trial_sweep(n, bit_generator):
    for k in sorted({0, 1, n - 1} & set(range(n))):
        got, want, state, ref_state = _both(
            n, k, SWEEP_BLOCK_TRIALS + 1, lambda: Generator(bit_generator(100 * n + k))
        )
        assert got == want, (n, k)
        assert state == ref_state, (n, k)
        assert got["checked"] == 0 or got["argmin"]["branches"][0]["states"]


def test_blocked_sweep_equals_per_trial_sweep_on_violations(monkeypatch):
    # A certificate raised by 0.5 is beaten by most sources, so the violation
    # records, whose labels are formatted only when kept, are compared too.
    certify = exact.dqsv_certificate

    def raised(q):
        return SimpleNamespace(fidelity_bound=certify(q).fidelity_bound + 0.5)

    monkeypatch.setattr(exact, "dqsv_certificate", raised)
    monkeypatch.setattr(sweep_reference, "dqsv_certificate", raised)
    got, want, state, ref_state = _both(
        9, 1, 2 * SWEEP_BLOCK_TRIALS, lambda: np.random.default_rng(8)
    )
    assert len(got["violations"]) > SWEEP_BLOCK_TRIALS
    assert got == want
    assert state == ref_state


def test_sweep_memory_does_not_grow_with_trials():
    # The first sweep also fills the certificate memos; measure after it.
    dqsv_soundness_sweep(12, 2, 1 / 3, SWEEP_BLOCK_TRIALS, np.random.default_rng(4))
    peaks = []
    for blocks in (2, 8):
        tracemalloc.start()
        dqsv_soundness_sweep(12, 2, 1 / 3, blocks * SWEEP_BLOCK_TRIALS, np.random.default_rng(5))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks
