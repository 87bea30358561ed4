"""Random adversarial mixtures built as validated density matrices.

``random_mixture`` draws exactly what ``qsverify.exact._random_fidelities``
draws, in the same order, but builds every copy as a 4x4 ``DensityMatrix``.
Tests use it to check the closed-form fidelity draws against ``overlap`` and
to run the exact statistics on Werner and rotated matrices against the
tr(Omega s) enumeration oracle.
"""

import math

import numpy as np

from qsverify.linalg import phased_singlet
from qsverify.sources import ProductSequenceMixture, depolarized_state, werner_state


def random_mixture_and_labels(
    n: int, rng: np.random.Generator
) -> tuple[ProductSequenceMixture, list[str]]:
    """A random mixture of 1 to 8 product sequences of Werner and rotated-singlet
    states, and one label per branch.

    Every drawn copy is its own palette entry, so ``index`` is ``arange``.
    """
    n_branches = int(rng.integers(1, 9))
    weights = rng.dirichlet(np.ones(n_branches))
    palette = []
    labels = []
    for b in range(n_branches):
        desc = []
        for _ in range(n + 1):
            if rng.random() < 0.5:
                f = float(rng.uniform(0.25, 1.0))
                palette.append(werner_state(f))
                desc.append(f"werner({f:.4f})")
            else:
                phi = float(rng.uniform(0.0, 2.0 * math.pi))
                f = float(rng.uniform(0.25, 1.0))
                palette.append(depolarized_state(phased_singlet(phi), f))
                desc.append(f"phi({phi:.4f},F={f:.4f})")
        labels.append("|".join(desc))
    index = np.arange(len(palette)).reshape(n_branches, n + 1)
    return ProductSequenceMixture(weights, tuple(palette), index), labels


def random_mixture(n: int, rng: np.random.Generator) -> ProductSequenceMixture:
    """``random_mixture_and_labels`` without the labels."""
    return random_mixture_and_labels(n, rng)[0]
