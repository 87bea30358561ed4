"""Preconfigured experiment grids that regenerate the packaged datasets.

fig3  Correlated two-branch source (rho1, N = 100): acceptance probability,
      unconditional and conditional true fidelities, and both certificates
      evaluated at delta = p_hat(k) for a range of failure thresholds k.
      Shows the IID certificate failing on a correlated source while the
      defensive certificate stays a valid lower bound.

fig4  Rotated-copy source (rho2): exact acceptance probability and
      conditional fidelity from the reference computation over two grids
      (phase sweep at N = 5 and size sweep at phi = pi, both at k = 1),
      against both certificates at delta = p_k.

fig5  Honest noisy source: certificate infidelity versus the number of tests
      on one growing run, single-round and round-averaged.

Each function returns plain row dictionaries; ``write_csv`` renders them with
the schema-version header and the columns that ``FIGURES`` lists for the
figure.  Output is bit-stable for a fixed seed: floats are formatted with 12
significant digits and no timestamps enter the data files.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from .certificates import CertificateQuery, certificate, dqsv_certificate, sqsv_certificate
from .exact import exact_stats
from .simulate import (
    RandomPlan,
    run_rounds,
    scaling_experiment,
    summarize,
)
from .sources import NoiseSpec, rho1, rho2, unconditional_fidelity
from .strategy import build_singlet_strategy

FIG3_N = 100
FIG4_K = 1
FIG4_N_FIXED = 5  # the N of the phase grid
FIG4_PHI_GRID = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)
FIG4_N_GRID = tuple(range(2, 11))
FIG4_PHI_FIXED = math.pi  # the phase of the size grid
FIG5_N_MAX = 1000

# Per figure: the schema of its CSV and its columns.
FIGURES = {
    "fig3": ("qsverify.fig3/2", [
        "k",
        "sqsv_p_hat", "sqsv_p_lo95",
        "sqsv_bound_at_p_hat", "sqsv_bound_at_p_lo95",
        "uncond_fidelity_truth", "uncond_fidelity_measured", "uncond_measured_stderr",
        "dqsv_p_hat", "dqsv_p_lo95",
        "dqsv_bound_at_p_hat", "dqsv_bound_at_p_lo95",
        "cond_fidelity_truth", "cond_truth_stderr",
        "cond_fidelity_measured", "cond_measured_stderr",
    ]),
    "fig4": ("qsverify.fig4/3", [
        "grid", "n", "phi", "k",
        "p_k_exact", "F_k_exact", "uncond_fidelity_exact",
        "sqsv_bound_at_p_k", "dqsv_bound_at_p_k", "dqsv_slack",
    ]),
    "fig5": ("qsverify.fig5/2", [
        "n",
        "k_single", "eps_sqsv_single", "eps_dqsv_single",
        "k_mean", "eps_sqsv_avg", "eps_dqsv_avg",
    ]),
}


def fig3_rows(
    seed: int = 42,
    rounds: int = 200,
    k_max: int = 10,
    prep_fidelity: float = 1.0,
) -> list[dict]:
    """Per-k comparison of both protocols on the two-branch correlated source."""
    strat = build_singlet_strategy()
    lam = strat.lam
    n = FIG3_N
    source = rho1(n, NoiseSpec(prep_fidelity))
    sq = run_rounds(
        source, n, strat, rounds, "sqsv", RandomPlan.for_experiment(seed, "fig3-sqsv")
    )
    dq = run_rounds(
        source, n, strat, rounds, "dqsv", RandomPlan.for_experiment(seed, "fig3-dqsv")
    )
    rows = []
    for k in range(k_max + 1):
        s_sum = summarize(sq, k, strat, "sqsv")
        d_sum = summarize(dq, k, strat, "dqsv")
        row = {"k": k}
        for proto, summ in (("sqsv", s_sum), ("dqsv", d_sum)):
            for tag, d in (("p_hat", summ.p_hat), ("p_lo95", summ.p_hat_ci[0])):
                row[f"{proto}_{tag}"] = d
                row[f"{proto}_bound_at_{tag}"] = (
                    certificate(CertificateQuery(proto, n, k, d, lam)).fidelity_bound
                    if d > 0.0 else float("nan")
                )
        row["uncond_fidelity_truth"] = s_sum.unconditional_fidelity_truth
        row["uncond_fidelity_measured"] = s_sum.unconditional_fidelity_measured
        row["uncond_measured_stderr"] = s_sum.unconditional_measured_stderr
        row["cond_fidelity_truth"] = d_sum.conditional_fidelity_truth
        row["cond_truth_stderr"] = d_sum.conditional_truth_stderr
        row["cond_fidelity_measured"] = d_sum.conditional_fidelity_measured
        row["cond_measured_stderr"] = d_sum.conditional_measured_stderr
        rows.append(row)
    return rows


def fig4_rows(prep_fidelity: float = 1.0) -> list[dict]:
    """Exact certificates-versus-truth grids for the rotated-copy source."""
    strat = build_singlet_strategy()
    k = FIG4_K

    def one(grid: str, n: int, phi: float) -> dict:
        source = rho2(n, phi, NoiseSpec(prep_fidelity))
        stats = exact_stats(source, k, strat)
        query = (n, k, stats.p_k, strat.lam)
        dq = dqsv_certificate(CertificateQuery("dqsv", *query)).fidelity_bound
        return {
            "grid": grid,
            "n": n,
            "phi": phi,
            "k": k,
            "p_k_exact": stats.p_k,
            "F_k_exact": stats.F_k,
            "uncond_fidelity_exact": unconditional_fidelity(source, strat.target),
            "sqsv_bound_at_p_k": sqsv_certificate(CertificateQuery("sqsv", *query)).fidelity_bound,
            "dqsv_bound_at_p_k": dq,
            "dqsv_slack": (stats.F_k - dq) if stats.F_k is not None else float("nan"),
        }

    return [one("phi", FIG4_N_FIXED, phi) for phi in FIG4_PHI_GRID] + [
        one("n", n, FIG4_PHI_FIXED) for n in FIG4_N_GRID
    ]


def default_fig5_grid(n_max: int = FIG5_N_MAX) -> list[int]:
    # Deduplicated as Python ints: np.unique on floats would import numpy.ma.
    grid = {int(v) for v in np.round(np.logspace(0, math.log10(n_max), 28))}
    grid.update(anchor for anchor in (10, 100, n_max) if anchor <= n_max)
    return sorted(grid)


def fig5_rows(
    seed: int = 42,
    fidelity: float = 0.99,
    delta: float = 0.05,
    avg_rounds: int = 80,
) -> list[dict]:
    """Certificate infidelity versus N on an honest noisy run.

    The single-round columns use round 0 of the same run that the averaged
    columns aggregate over.
    """
    strat = build_singlet_strategy()
    result = scaling_experiment(
        NoiseSpec(fidelity), delta, default_fig5_grid(), strat,
        RandomPlan.for_experiment(seed, "fig5"), rounds=avg_rounds,
    )
    return [
        {
            "n": n,
            "k_single": int(result["k"][0, j]),
            "eps_sqsv_single": float(result["eps_sqsv"][0, j]),
            "eps_dqsv_single": float(result["eps_dqsv"][0, j]),
            "k_mean": float(result["k"][:, j].mean()),
            "eps_sqsv_avg": float(result["eps_sqsv"][:, j].mean()),
            "eps_dqsv_avg": float(result["eps_dqsv"][:, j].mean()),
        }
        for j, n in enumerate(result["n_grid"])
    ]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


def write_csv(path, schema: str, columns: list[str], rows: list[dict]) -> None:
    """Render rows with a schema-version header line; no timestamps."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema={schema}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row.get(c)) for c in columns) + "\n")


def write_manifest(path, config: dict) -> None:
    """Run metadata; the timestamp lives here, never in the data files."""
    payload = dict(config)
    payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
