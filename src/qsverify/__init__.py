"""Quantum state verification for the two-qubit singlet.

Certificates for the standard (IID) and defensive (adversarial) protocols
under the homogeneous Pauli strategy, source models for honest and correlated
preparations, exact reference statistics at small size, and a seeded Monte
Carlo protocol simulator.
"""

from .certificates import (
    Certificate,
    CertificateQuery,
    DqsvIntermediates,
    NumericalConsistencyError,
    binom_tail,
    dqsv_certificate,
    dqsv_intermediates,
    solve_J,
    sqsv_certificate,
)
from .exact import (
    ExactStats,
    dqsv_soundness_sweep,
    exact_stats,
    exact_stats_bruteforce,
    sqsv_worst_case_scan,
)
from .linalg import (
    DensityMatrix,
    PureState,
    expectation,
    phased_singlet,
    projector,
)
from .simulate import (
    ExperimentSummary,
    RandomPlan,
    RoundTable,
    rounds_until_accepted,
    run_rounds,
    scaling_experiment,
    summarize,
)
from .sources import (
    NoiseSpec,
    ProductSequenceMixture,
    honest_iid,
    mixture_from_spec,
    rho1,
    rho2,
    unconditional_fidelity,
    werner_state,
    worst_case_state,
)
from .strategy import (
    HomogeneousStrategy,
    build_homogeneous_strategy,
    build_singlet_strategy,
    fidelity_from_pass_rate,
    pass_probability,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateQuery",
    "DensityMatrix",
    "DqsvIntermediates",
    "ExactStats",
    "ExperimentSummary",
    "HomogeneousStrategy",
    "NoiseSpec",
    "NumericalConsistencyError",
    "ProductSequenceMixture",
    "PureState",
    "RandomPlan",
    "RoundTable",
    "binom_tail",
    "build_homogeneous_strategy",
    "build_singlet_strategy",
    "dqsv_certificate",
    "dqsv_intermediates",
    "dqsv_soundness_sweep",
    "exact_stats",
    "exact_stats_bruteforce",
    "expectation",
    "fidelity_from_pass_rate",
    "honest_iid",
    "mixture_from_spec",
    "pass_probability",
    "phased_singlet",
    "projector",
    "rho1",
    "rho2",
    "rounds_until_accepted",
    "run_rounds",
    "scaling_experiment",
    "solve_J",
    "sqsv_certificate",
    "sqsv_worst_case_scan",
    "summarize",
    "unconditional_fidelity",
    "werner_state",
    "worst_case_state",
]
