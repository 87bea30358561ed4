import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qsverify
from qsverify import certificates, cli
from qsverify.cli import main, parse_lambda


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected a flag
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_lambda_forms():
    assert parse_lambda("1/3") == pytest.approx(1 / 3, abs=1e-16)
    assert parse_lambda("0.25") == 0.25
    assert parse_lambda(0.5) == 0.5


def test_certify_sqsv_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "certify", "--protocol", "sqsv", "--n", "10", "--k", "0",
        "--delta", "0.05", "--lambda", "0.333333333333",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fidelity_bound"] == pytest.approx(0.611701, abs=2e-6)
    assert payload["fidelity_bound"] + payload["infidelity_bound"] == 1.0


def test_certify_dqsv_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "certify", "--protocol", "dqsv", "--n", "1", "--k", "0",
        "--delta", "0.6666666667", "--lambda", "1/3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fidelity_bound"] == pytest.approx(0.25, abs=1e-8)


def test_certify_degenerate_dqsv(capsys):
    code, out, _ = run_cli(
        capsys,
        "certify", "--protocol", "dqsv", "--n", "10", "--k", "0",
        "--delta", "1e-9", "--lambda", "0.3333333333",
    )
    assert code == 0
    assert json.loads(out)["fidelity_bound"] == 0.0


def test_certify_zero_sqsv_near_one(capsys):
    # B_{n,k}(nu) >= delta, so J >= nu and the bound is 0; the root J itself
    # lies so near 1 that bisection cannot meet its residual check there.
    code, out, _ = run_cli(
        capsys,
        "certify", "--protocol", "sqsv", "--n", "1000000", "--k", "999990",
        "--delta", "0.05", "--lambda", "1/3",
    )
    assert code == 0
    assert json.loads(out)["fidelity_bound"] == 0.0


def test_certify_intermediates(capsys):
    code, out, _ = run_cli(
        capsys,
        "certify", "--protocol", "dqsv", "--n", "5", "--k", "1",
        "--delta", "0.9", "--lambda", "1/3", "--intermediates",
    )
    assert code == 0
    inter = json.loads(out)["intermediates"]
    assert len(inter["h"]) == 7
    assert inter["h"][0] == 1.0
    assert 0 <= inter["zhat"] <= 5
    assert 0 <= inter["kappa"] <= 1


@pytest.mark.parametrize(
    "n, k, lam, bound",
    [("136", "83", "0.7215780981758697", 54 / 137), ("3", "0", "0.9999999999999999", 1.0)],
)
def test_certify_dqsv_at_delta_one_is_the_closed_form(capsys, n, k, lam, bound):
    # At delta = 1 the bound is g_k = (n - k + 1)/(n + 1) with zhat = k and
    # kappa = 1.  Both queries have knots past k that round to equal floats,
    # which a knot search at this delta would reach.
    argv = ("certify", "--protocol", "dqsv", "--n", n, "--k", k, "--delta", "1", "--lambda", lam)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["fidelity_bound"] == bound
    code, out, _ = run_cli(capsys, *argv, "--intermediates")
    assert code == 0
    inter = json.loads(out)["intermediates"]
    assert (inter["zhat"], inter["kappa"]) == (int(k), 1.0)


def test_certify_intermediates_degenerate_is_null(capsys, monkeypatch):
    calls = []
    tail = certificates.binom_tail
    for module in (certificates, cli):
        monkeypatch.setattr(module, "binom_tail", lambda *a: calls.append(a) or tail(*a))
    code, out, _ = run_cli(
        capsys,
        "certify", "--protocol", "dqsv", "--n", "10", "--k", "0",
        "--delta", "1e-9", "--lambda", "1/3", "--intermediates",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fidelity_bound"] == 0.0
    assert payload["intermediates"] is None
    # the degenerate test B_{10,0}(nu) >= delta is evaluated once, for the certificate
    assert len(calls) == 1


def test_certify_intermediates_are_read_only_for_dqsv(capsys):
    code, out, err = run_cli(
        capsys,
        "certify", "--protocol", "sqsv", "--n", "10", "--k", "0",
        "--delta", "0.05", "--lambda", "1/3", "--intermediates",
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: --intermediates: expected a DQSV query, got 'sqsv'"]


def test_certify_intermediates_refuse_n_beyond_their_limit(capsys, monkeypatch):
    # One knot tail per knot: the query is refused before any tail is summed.
    def refuse(*args):
        raise AssertionError("a tail was summed")

    monkeypatch.setattr(certificates, "binom_tail", refuse)
    n = certificates.INTERMEDIATES_N_MAX + 1
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        "certify", "--protocol", "dqsv", "--n", str(n), "--k", "5",
        "--delta", "0.05", "--lambda", "1/3", "--intermediates",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: --intermediates: n = {n} exceeds {certificates.INTERMEDIATES_N_MAX}, "
        "the largest table computed in about a second"
    ]


@pytest.mark.parametrize("protocol", ["sqsv", "dqsv"])
def test_certify_refuses_n_beyond_the_tail_contract(capsys, protocol):
    # The query is refused before any tail is summed: no sieve, no output.
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        "certify", "--protocol", protocol, "--n", str(certificates.TAIL_ERROR_Z_MAX + 1),
        "--k", "0", "--delta", "0.05", "--lambda", "1/3",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: n = {certificates.TAIL_ERROR_Z_MAX + 1} exceeds "
        f"{certificates.TAIL_ERROR_Z_MAX}, the measured tail range"
    ]


def test_certify_validation_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "certify", "--protocol", "sqsv", "--n", "3", "--k", "5",
        "--delta", "0.05", "--lambda", "1/3",
    )
    assert code == 2
    assert "error" in err


def test_certify_rejects_lambda_zero_for_dqsv(capsys):
    code, _, err = run_cli(
        capsys,
        "certify", "--protocol", "dqsv", "--n", "3", "--k", "0",
        "--delta", "0.05", "--lambda", "0",
    )
    assert code == 2


def test_simulate_with_config_and_files(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(
        "protocol: dqsv\n"
        "n: 5\n"
        "k: 1\n"
        "seed: 11\n"
        "rounds: 300\n"
        "source:\n"
        "  model: rho2\n"
        "  phi: pi\n"
        "  fidelity: 1.0\n"
    )
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(config), "--out-dir", str(out_dir)
    )
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["schema"] == "qsverify.summary/2"
    assert summary["rounds"] == 300
    assert summary["p_hat"] == 1.0  # only one copy can fail at k = 1
    lines = (out_dir / "rounds.csv").read_text().splitlines()
    assert len(lines) == 302
    stdout_summary = json.loads(out)
    assert stdout_summary["p_hat"] == 1.0


def test_simulate_deterministic_files(tmp_path, capsys, fresh_certificate_caches):
    config = tmp_path / "run.yaml"
    config.write_text(
        "protocol: sqsv\nn: 20\nk: 2\nseed: 5\nrounds: 100\n"
        "source:\n  model: rho1\n  fidelity: 0.98\n"
    )
    outa, outb = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, "simulate", "--config", str(config), "--out-dir", str(outa))[0] == 0
    fresh_certificate_caches()  # the second run recomputes instead of replaying the memo
    assert run_cli(capsys, "simulate", "--config", str(config), "--out-dir", str(outb))[0] == 0
    assert (outa / "summary.json").read_bytes() == (outb / "summary.json").read_bytes()
    assert (outa / "rounds.csv").read_bytes() == (outb / "rounds.csv").read_bytes()


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The three reference runs and the full sha256 of their rounds.csv and
# summary.json under round stream v2 (chunked, see the simulate module
# docstring).  A change to the round draws must change these together with
# the rounds.csv schema version.
PINNED_RUNS = {
    "dqsv-rho1-fixed": (
        "protocol: dqsv\nn: 20\nk: 1\nseed: 123\nrounds: 500\n"
        "source:\n  model: rho1\n  fidelity: 0.97\n",
        "b194f310f44087969c29bc68a6039d128930c29018dfe292a22ea047ab073018",
        "5ebf1335b4fdb896e278f847d4b77c05023fed472ca2cf264909918a13cc0920",
    ),
    "sqsv-rho2-fixed": (
        "protocol: sqsv\nn: 30\nk: 2\nseed: 99\nrounds: 400\n"
        "source:\n  model: rho2\n  phi: pi/2\n  fidelity: 0.98\n",
        "1ce167abb6fb688856feadfe4ca5e3779cd624e1b2c84d7b48c1bc20840892b9",
        "87e91f31af14ec337477361ff4d1bacb1c235bcb92851bff29b7bd061a32f2ee",
    ),
    "dqsv-rho2-acceptances": (
        "protocol: dqsv\nn: 100\nk: 0\nseed: 7\n"
        "stopping:\n  mode: acceptances\n  target_acceptances: 300\n"
        "source:\n  model: rho2\n  phi: 3pi/4\n",
        "43fafb3fb8ef3b64afc60c394bc8bd4d909bd86e373ce456d6edac2bd420aabd",
        "e60419ace71cf23f4cffae1c77ed3169ef028c48eb982ab0ae3e1a94bbb88cae",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_simulate_round_stream_is_pinned(tmp_path, capsys, name):
    text, rounds_digest, summary_digest = PINNED_RUNS[name]
    (tmp_path / "run.yaml").write_text(text)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "simulate", "--config", str(tmp_path / "run.yaml"), "--out-dir", str(out_dir)
    )
    assert code == 0
    assert sha256(out_dir / "rounds.csv") == rounds_digest
    assert sha256(out_dir / "summary.json") == summary_digest


# The sha256 of each dataset at the default arguments.  A change must leave
# them as they are or bump the figure's schema version.
PINNED_FIGURES = {
    "fig3": "2d6d5f96de8b963c63d5a43afaa25ca7970b604f716c921f55d83972141ee454",
    "fig4": "ac6abf78c35b4c917c06ead193742ab65d18b0913ed968da53abac98a19fe48d",
    "fig5": "816cabb9f26ac692879672abb60748b448f1ffe597d153b4ddaa4cf861c97f71",
}


@pytest.mark.parametrize("figure", list(PINNED_FIGURES))
def test_reproduce_datasets_are_pinned(tmp_path, capsys, figure):
    code, _, _ = run_cli(capsys, "reproduce", figure, "--out-dir", str(tmp_path))
    assert code == 0
    assert sha256(tmp_path / f"{figure}.csv") == PINNED_FIGURES[figure]


# The sha256 of `certify --intermediates` stdout: the certificate, the full
# h and g tables, zhat, kappa and zeta_tilde, bit for bit.
PINNED_CERTIFICATES = {
    ("100", "3", "0.05", "1/3"): "5a518505727f5c88e7fc4188042290dac59afc79e81a4b09f53e3487551af151",
    ("1000", "20", "1e-6", "0.2"): "e4686693a29f5ffe6e6034fca8741d0a89ec0fcda52a43e70164bf40d7e1e776",
    ("12", "2", "0.3", "1/3"): "6c4ea769d2eee51d853a2ed1ce80d473f24717db25e8bbd7097b3240e0e938bf",
    ("40", "5", "1e-40", "0.01"): "dfa2ec13dc9cb3c473214fdeacd03bb815707b3c90dad5377a75814840e26b8a",
}


@pytest.mark.parametrize("query", list(PINNED_CERTIFICATES))
def test_certify_intermediates_are_pinned(capsys, query):
    n, k, delta, lam = query
    code, out, _ = run_cli(
        capsys, "certify", "--protocol", "dqsv", "--n", n, "--k", k, "--delta", delta,
        "--lambda", lam, "--intermediates",
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_CERTIFICATES[query]


@pytest.mark.parametrize("blocked", ["summary.json", "rounds.csv", "fig4.csv", "manifest.json"])
def test_output_path_taken_by_a_directory_exits_2(tmp_path, capsys, monkeypatch, blocked):
    simulate = blocked in ("summary.json", "rounds.csv")
    argv = ("simulate", "--config", "run.yaml") if simulate else ("reproduce", "fig4")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.yaml").write_text(
        "protocol: sqsv\nn: 5\nk: 0\nrounds: 10\nsource:\n  model: honest\n"
    )
    (tmp_path / "out" / blocked).mkdir(parents=True)
    code, _, err = run_cli(capsys, *argv, "--out-dir", "out")
    assert code == 2
    assert err.startswith("error: out_dir: ") and blocked in err


def test_simulate_flag_overrides(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(
        "protocol: sqsv\nn: 10\nk: 0\nseed: 5\nrounds: 50\n"
        "source:\n  model: honest\n  fidelity: 1.0\n"
    )
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys,
        "simulate", "--config", str(config), "--out-dir", str(out_dir),
        "--rounds", "75",
    )
    assert code == 0
    assert json.loads(out)["rounds"] == 75


def test_simulate_invalid_config_diagnostics(tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    head = "protocol: dqsv\nn: 3\nk: 1\nsource:\n  model: honest\n"
    accept = "stopping:\n  mode: acceptances\n"
    # An empty document loads as None, read as a config with no keys.
    empty = ("error: n: required\nerror: rounds: required\n"
             "error: source: required mapping with a 'model' key\n")
    cases = [
        ("", empty),
        ("~\n", empty),
        ("protocol: dqsv\nn: 3\nk: 7\nrounds: 10\nsource:\n  model: honest\n",
         "n: must be >= k + 1"),
        (head + "rounds: 0\n", "rounds: must be >= 1"),
        (head + "rounds: ten\n", "rounds: expected an integer"),
        (head + accept + "  target_acceptances: abc\n",
         "stopping.target_acceptances: expected an integer"),
        (head + accept + "  target_acceptances: 0\n",
         "stopping.target_acceptances: must be >= 1"),
        (head + accept + "  target_acceptances: 5\n  max_rounds: 1.5x\n",
         "stopping.max_rounds: expected an integer"),
        (head + accept + "  target_acceptances: 5\n  max_rounds: 0\n",
         "stopping.max_rounds: must be >= 1"),
        ("n: [3\n", "config: while parsing"),
        (b"n: 3\xff\n", "config: 'utf-8' codec can't decode"),
        (head + "rounds: 10\nseed: 2024-13-45\n", "config: month must be in 1..12"),
        (head.replace("n: 3", "n: 3.7") + "rounds: 10\n", "n: expected an integer, got 3.7"),
        (head + "rounds: 5.9\n", "rounds: expected an integer, got 5.9"),
        (head + "rounds: 10\nseed: 1.5\n", "seed: expected an integer, got 1.5"),
        (head.replace("n: 3", "n: yes") + "rounds: 10\n", "n: expected an integer, got True"),
        (head.replace("k: 1", "k: no") + "rounds: 10\n", "k: expected an integer, got False"),
        (head.replace("honest", "rho1") + "  fidelity: yes\nrounds: 10\n",
         "source.fidelity: expected a number, got True"),
        (head.replace("honest", "rho2") + "  phi: yes\nrounds: 10\n",
         "source.phi: expected a number, got True"),
        (head.replace("honest", "custom") + "  branches:\n"
         "    - {weight: yes, states: [singlet, singlet, singlet, singlet]}\nrounds: 10\n",
         "source: branches[0].weight: expected a number, got True"),
        (head.replace("honest", "custom") + "  branches:\n"
         "    - {weight: .nan, states: [singlet, singlet, singlet, singlet]}\nrounds: 10\n",
         "source: branches[0].weight: expected a finite number, got nan"),
        (head.replace("honest", "rho2") + "  phi: .nan\nrounds: 10\n",
         "source.phi: expected a finite number, got nan"),
        (head.replace("honest", "rho2") + "  phi: pi/0\nrounds: 10\n",
         "source.phi: angle 'pi/0' divides by zero"),
        (head.replace("honest", "rho1") + "  fidelity: .inf\nrounds: 10\n",
         "source.fidelity: expected a finite number, got inf"),
        (head.replace("honest", "rho1") + "  fidelity: 1.5\nrounds: 10\n",
         "source.fidelity: fidelity 1.5 outside [1/4, 1]"),
        (head.replace("honest", "rho1") + "  fidelity: 0.1\nrounds: 10\n",
         "source.fidelity: fidelity 0.1 outside [1/4, 1]"),
        (head.replace("honest", "rho2") + "rounds: 10\n", "source.phi: required for rho2"),
        (head.replace("honest", "custom") + "  branches:\n"
         "    - {weight: 1, states: [singlet, singlet, singlet]}\nrounds: 10\n",
         "source.branches: sequences have 3 systems, need exactly 4"),
        (head.replace("honest", "custom") + "  branches:\n"
         "    - {weight: 1, states: null}\nrounds: 10\n",
         "source: branches[0].states: expected a list of descriptor strings"),
        (head.replace("honest", "custom") + "  branches:\n"
         "    - {weight: 1, states: [1, 2, 3]}\nrounds: 10\n",
         "source: branches[0].states: expected a list of descriptor strings"),
    ]
    for text, message in cases:
        config.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(config), "--out-dir", str(tmp_path / "o")
        )
        assert code == 2, text
        assert message in err, (text, err)
    assert not (tmp_path / "o").exists()


CUSTOM_SOURCE_ERRORS = [
    ("branches: 5", "source: branches: expected a non-empty list"),
    ("branches: [1]", "source: branches[0]: expected a mapping of weight and states"),
    ("branches:\n    - {weight: 1, states: [singlet, bogus, singlet, singlet]}",
     "source: branches[0].states[1]: unknown state descriptor 'bogus'"),
    ("branches:\n    - {weight: 1, states: [singlet, singlet, singlet, singlet]}"
     "\n    - {weight: 0, states: [singlet, singlet, 'werner(2)', 'werner(2)']}",
     "source: branches[1].states[2]: fidelity 2.0 outside [1/4, 1]"),
]


@pytest.mark.parametrize("branches, message", CUSTOM_SOURCE_ERRORS,
                         ids=["int", "int-branch", "unknown-state", "bad-fidelity"])
def test_custom_source_errors_name_their_field(tmp_path, capsys, branches, message):
    config = tmp_path / "bad.yaml"
    config.write_text(
        "protocol: dqsv\nn: 3\nk: 1\nrounds: 10\nsource:\n  model: custom\n  " + branches + "\n"
    )
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(config), "--out-dir", str(tmp_path / "o")
    )
    assert code == 2
    assert message in err
    assert "Traceback" not in err and out == ""
    assert not (tmp_path / "o").exists()


RHO1 = "source:\n  model: rho1\n"
CUSTOM = (
    "source:\n  model: custom\n  branches:\n"
    "    - {weight: 1, states: [singlet, singlet, singlet, singlet]}\n"
)

UNREAD_KEY_CASES = [
    (RHO1 + "sed: 9\n", "sed: unknown key"),
    (RHO1 + "stopping:\n  max_round: 9\n", "stopping.max_round: unknown key"),
    (RHO1 + "stopping: 9\n", "stopping: expected a mapping"),
    (RHO1 + "  fidelty: 0.5\n", "source.fidelty: unknown key"),
    (RHO1 + "  note: 2024-01-01\n", "source.note: unknown key"),
    (RHO1 + "  phi: pi\n", "source.phi: unknown key"),
    (RHO1 + "  branches: []\n", "source.branches: unknown key"),
    (RHO1 + "out_dir: 5\n", "out_dir: expected a string, got 5"),
    (CUSTOM + "  fidelity: 0.9\n", "source.fidelity: unknown key"),
    (CUSTOM.replace("}", ", label: x}"), "source: branches[0]: need the keys weight and states"),
]


@pytest.mark.parametrize(
    "text, key", UNREAD_KEY_CASES, ids=[key.split(": ")[-2] for _, key in UNREAD_KEY_CASES]
)
def test_simulate_rejects_unread_config_keys(tmp_path, capsys, monkeypatch, text, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.yaml").write_text("protocol: sqsv\nn: 4\nk: 0\nrounds: 10\n" + text)
    code, out, err = run_cli(capsys, "simulate", "--config", "bad.yaml")
    assert code == 2
    assert key in err
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["bad.yaml"]


ACCEPTANCES = "stopping:\n  mode: acceptances\n  target_acceptances: 4\n"

# Each count is read by one stopping mode; setting it under the other exits 2.
STOPPING_MODE_CASES = {
    "rounds-under-acceptances": (ACCEPTANCES + "rounds: 10\n", (),
                                 "rounds: not read in stopping mode acceptances"),
    "flag-rounds-under-acceptances": (ACCEPTANCES, ("--rounds", "10"),
                                      "rounds: not read in stopping mode acceptances"),
    "target-under-fixed": ("rounds: 10\nstopping:\n  target_acceptances: 4\n", (),
                           "stopping.target_acceptances: unknown key"),
    "max-rounds-under-fixed": ("rounds: 10\nstopping:\n  mode: fixed\n  max_rounds: 3\n", (),
                               "stopping.max_rounds: unknown key"),
    "stopping-rounds": ("stopping:\n  rounds: 7\n", (), "stopping.rounds: unknown key"),
    "stopping-rounds-under-acceptances": (ACCEPTANCES + "  rounds: 7\n", (),
                                          "stopping.rounds: unknown key"),
}


@pytest.mark.parametrize("case", list(STOPPING_MODE_CASES))
def test_counts_of_the_other_stopping_mode_exit_2(tmp_path, capsys, case):
    text, flags, message = STOPPING_MODE_CASES[case]
    (tmp_path / "run.yaml").write_text(
        "protocol: sqsv\nn: 4\nk: 0\nsource:\n  model: honest\n" + text
    )
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(tmp_path / "run.yaml"),
        "--out-dir", str(tmp_path / "o"), *flags,
    )
    assert code == 2
    assert message in err
    assert out == "" and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "target, argv",
    [
        ("certificate", ("certify", "--protocol", "sqsv", "--n", "10", "--k", "0",
                         "--delta", "0.05", "--lambda", "1/3")),
        ("summarize", ("simulate", "--config", "run.yaml")),
        ("fig4_rows", ("reproduce", "fig4")),
        ("dqsv_soundness_sweep", ("oracle-check", "dqsv-sweep", "--n", "4", "--trials", "5")),
    ],
)
def test_numerical_consistency_failure_exits_3(tmp_path, capsys, monkeypatch, target, argv):
    from qsverify import cli, reproduce

    def fail(*args, **kwargs):
        raise cli.NumericalConsistencyError("injected")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.yaml").write_text(
        "protocol: sqsv\nn: 4\nk: 0\nrounds: 10\nsource:\n  model: rho1\n"
    )
    # The CLI reaches a figure's rows function through the reproduce module.
    monkeypatch.setattr(reproduce if target.endswith("_rows") else cli, target, fail)
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert "numerical consistency failure: injected" in err
    assert "Traceback" not in err


def test_threads_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--threads", "2", "--n", "5", "--rounds", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, field",
    [
        (("reproduce", "fig3", "--rounds", "-5"), "--rounds"),
        (("reproduce", "fig3", "--rounds", "0"), "--rounds"),
        (("reproduce", "fig5", "--avg-rounds", "0"), "--avg-rounds"),
        (("reproduce", "fig5", "--delta", "0"), "--delta"),
        (("reproduce", "fig3", "--k-max", "100"), "--k-max"),
        (("reproduce", "fig3", "--fidelity", "1.5"), "--fidelity"),
        (("reproduce", "fig5", "--fidelity", "0.1"), "--fidelity"),
        (("reproduce", "fig3", "--seed", "-1"), "--seed"),
        (("certify", "--protocol", "sqsv", "--n", "10", "--k", "0",
          "--delta", "0.05", "--lambda", "1/0"), "lambda"),
        (("certify", "--protocol", "dqsv", "--n", "10", "--k", "0",
          "--delta", "0.05", "--lambda", "abc"), "lambda"),
        (("oracle-check", "sqsv", "--grid-size", "1"), "--grid-size"),
        (("oracle-check", "sqsv", "--grid-size", "999"), "--grid-size"),
        (("oracle-check", "dqsv-sweep", "--trials", "-3"), "--trials"),
        (("oracle-check", "dqsv-sweep", "--trials", "0"), "--trials"),
        (("oracle-check", "factorization", "--budget", "1"), "--budget"),
        (("oracle-check", "factorization", "--budget", "13"), "--budget"),
        (("oracle-check", "dqsv-sweep", "--seed", "-1"), "--seed"),
        (("oracle-check", "dqsv-sweep", "--seed", str(2**64)), "--seed"),
        (("oracle-check", "dqsv-sweep", "--n", "0"), "--n"),
        (("oracle-check", "dqsv-sweep", "--n", "1001"), "--n"),
        (("oracle-check", "dqsv-sweep", "--n", "1"), "k"),
        (("oracle-check", "dqsv-sweep", "--k", "-1"), "--k"),
        (("oracle-check", "dqsv-sweep", "--n", "6", "--k", "6"), "k"),
        (("oracle-check", "dqsv-sweep", "--lambda", "0"), "lambda"),
        (("oracle-check", "dqsv-sweep", "--lambda", "1.5"), "lambda"),
        (("oracle-check", "dqsv-sweep", "--lambda", "nan"), "lambda"),
    ],
)
def test_bad_arguments_exit_2_naming_the_field(tmp_path, capsys, argv, field):
    out_dir = tmp_path / "o"
    if argv[0] in ("simulate", "reproduce"):
        argv += ("--out-dir", str(out_dir))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert field in err
    assert "Traceback" not in err
    assert out == ""
    assert not out_dir.exists()


def test_figure_fidelity_is_checked_by_the_library_rule(tmp_path, capsys):
    # --fidelity parses through sources.check_fidelity, so it reads as simulate's.
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "reproduce", "fig5", "--fidelity", "0.1",
                             "--out-dir", str(out_dir))
    assert code == 2
    assert err.splitlines()[-1].endswith(
        "error: argument --fidelity: fidelity 0.1 outside [1/4, 1]; not a state below 1/4")
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "--protocol", "sqsv", "--n", "10", "--k", "0",
         "--delta", "0.05", "--lambda", "1/3", "--seed", "1"),
        ("certify", "--protocol", "sqsv", "--n", "10", "--k", "0",
         "--delta", "0.05", "--lambda", "1/3", "--out-dir", "x"),
        ("certify", "--protocol", "sqsv", "--n", "10", "--k", "0",
         "--delta", "0.05", "--lambda", "1/3", "--format", "csv"),
        ("oracle-check", "binom", "--out-dir", "x"),
        ("oracle-check", "binom", "--format", "json"),
        ("reproduce", "fig4", "--format", "csv"),
    ],
)
def test_unread_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_simulate_custom_source(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(
        "protocol: dqsv\n"
        "n: 2\n"
        "k: 0\n"
        "seed: 3\n"
        "rounds: 200\n"
        "source:\n"
        "  model: custom\n"
        "  branches:\n"
        "    - weight: 0.5\n"
        "      states: [singlet, singlet, singlet]\n"
        "    - weight: 0.5\n"
        "      states: [mixed, mixed, mixed]\n"
    )
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(config), "--out-dir", str(out_dir)
    )
    assert code == 0
    summary = json.loads(out)
    assert 0.5 < summary["p_hat"] < 1.0


def test_simulate_zero_accept_exit_code(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(
        "protocol: dqsv\nn: 40\nk: 0\nseed: 1\nrounds: 30\n"
        "source:\n  model: honest\n  fidelity: 0.25\n"
    )
    code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                           "--out-dir", str(config.parent / "o"))
    assert code == 4
    assert "no accepted rounds" in err


def test_simulate_acceptance_stopping(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(
        "protocol: dqsv\nn: 5\nk: 1\nseed: 2\n"
        "stopping:\n  mode: acceptances\n  target_acceptances: 120\n  max_rounds: 100000\n"
        "source:\n  model: rho2\n  phi: pi\n"
    )
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(config), "--out-dir", str(out_dir)
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["accepted"] == 120
    rows = (out_dir / "rounds.csv").read_text().splitlines()[2:]
    assert len(rows) == summary["rounds"]
    assert sum(row.split(",")[3] == "1" for row in rows) == 120
    assert rows[-1].split(",")[3] == "1"
    # The same rounds as a fixed-count run on the same seed, cut at the stop.
    fixed = tmp_path / "fixed.yaml"
    fixed.write_text(
        f"protocol: dqsv\nn: 5\nk: 1\nseed: 2\nrounds: {summary['rounds'] + 20}\n"
        "source:\n  model: rho2\n  phi: pi\n"
    )
    code, _, _ = run_cli(
        capsys, "simulate", "--config", str(fixed), "--out-dir", str(tmp_path / "f")
    )
    assert code == 0
    fixed_rows = (tmp_path / "f" / "rounds.csv").read_text().splitlines()[2:]
    assert rows == fixed_rows[: summary["rounds"]]


def test_simulate_acceptance_mode_single_pass(tmp_path, capsys, monkeypatch):
    # One tabulation per run, and each chunk of rounds is drawn once, in order.
    from qsverify import simulate
    from qsverify.sources import ProductSequenceMixture

    tables, streams = [], []
    tabulate = ProductSequenceMixture.tabulate
    chunk_rng = simulate.RandomPlan.chunk_rng

    def counting_tabulate(self, fn):
        tables.append(fn.func.__name__)
        return tabulate(self, fn)

    def counting_rng(self, chunk):
        streams.append(chunk)
        return chunk_rng(self, chunk)

    monkeypatch.setattr(ProductSequenceMixture, "tabulate", counting_tabulate)
    monkeypatch.setattr(simulate.RandomPlan, "chunk_rng", counting_rng)
    config = tmp_path / "run.yaml"
    config.write_text(
        "protocol: dqsv\nn: 8\nk: 0\nseed: 4\n"
        "stopping:\n  mode: acceptances\n  target_acceptances: 300\n"
        "source:\n  model: rho2\n  phi: 3pi/4\n"
    )
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")
    )
    assert code == 0
    summary = json.loads(out)
    assert sorted(tables) == ["overlap", "test_pass_probabilities"]
    assert summary["rounds"] > simulate.CHUNK_ROUNDS
    assert streams == list(range(-(-summary["rounds"] // simulate.CHUNK_ROUNDS)))


def test_reproduce_fig4_columns(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "reproduce", "fig4", "--out-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "fig4.csv").read_text().splitlines()
    assert lines[0] == "# schema=qsverify.fig4/3"
    header = lines[1].split(",")
    assert header[:4] == ["grid", "n", "phi", "k"]
    assert len(lines) == 2 + 5 + 9  # 5 phase points + 9 size points
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["figure"] == "fig4"
    assert "generated_at" in manifest


# Each manifest records the flags its figure reads, defaults included, and
# nothing else: fig4 reads no seed, and its k is a constant of the figure.
MANIFESTS = {
    "fig3": (("--rounds", "20", "--k-max", "1"),
             {"seed": 42, "rounds": 20, "k_max": 1, "prep_fidelity": 1.0}),
    "fig4": ((), {"prep_fidelity": 1.0}),
    "fig5": (("--avg-rounds", "2"), {"seed": 42, "fidelity": 0.99, "delta": 0.05, "avg_rounds": 2}),
}


@pytest.mark.parametrize("figure", list(MANIFESTS))
def test_manifest_records_the_flags_the_figure_reads(tmp_path, capsys, figure):
    flags, read = MANIFESTS[figure]
    code, _, _ = run_cli(capsys, "reproduce", figure, *flags, "--out-dir", str(tmp_path))
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest.pop("generated_at")
    assert manifest == {"figure": figure, **read, "files": [f"{figure}.csv"]}


def test_reproduce_fig5_ideal_closed_form_column(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "reproduce", "fig5", "--fidelity", "1.0", "--avg-rounds", "3",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "fig5.csv").read_text().splitlines()
    header = lines[1].split(",")
    for row in lines[2:]:
        cells = dict(zip(header, row.split(",")))
        n = int(cells["n"])
        assert int(cells["k_single"]) == 0
        expected = 1.5 * (1 - 0.05 ** (1 / n))
        assert float(cells["eps_sqsv_single"]) == pytest.approx(
            min(1.0, expected), rel=1e-9
        )


def test_reproduce_fig5_deterministic(tmp_path, capsys, fresh_certificate_caches):
    a, b = tmp_path / "a", tmp_path / "b"
    code1, _, _ = run_cli(
        capsys, "reproduce", "fig5", "--seed", "42", "--out-dir", str(a),
        "--avg-rounds", "5",
    )
    fresh_certificate_caches()  # the second run recomputes instead of replaying the memo
    code2, _, _ = run_cli(
        capsys, "reproduce", "fig5", "--seed", "42", "--out-dir", str(b),
        "--avg-rounds", "5",
    )
    assert code1 == code2 == 0
    assert (a / "fig5.csv").read_bytes() == (b / "fig5.csv").read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("generated_at"), mb.pop("generated_at")
    assert ma == mb


def test_oracle_check_binom(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "binom")
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []


def test_oracle_check_sweep_small(capsys):
    code, out, _ = run_cli(
        capsys, "oracle-check", "dqsv-sweep", "--n", "4", "--k", "1",
        "--trials", "60", "--seed", "7",
    )
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []
    assert report["checked"] > 0


def test_oracle_check_sweep_beyond_the_enumeration_budget(capsys):
    # The sweep enumerates nothing, so its --n reaches past MAX_ENUM_TESTS.
    code, out, _ = run_cli(capsys, "oracle-check", "dqsv-sweep", "--n", "100", "--trials", "20")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 100 and report["violations"] == []


# The sha256 of `oracle-check` stdout: each suite's report, bit for bit.  The
# last sweep sits where binom_tail(n, k, 1 - lambda) rounds to 1, so every
# trial is skipped.
PINNED_ORACLE_CHECKS = {
    ("binom",): "030df9ec25b1c066b332ab2d8d22f9187ef637bec803949f783812dd12ccc44c",
    ("sqsv",): "65a57b1cd8956713278128dbc375560b3daf9815866352a8715a74ef75b8db1c",
    ("factorization", "--budget", "8"):
        "81b05d22febd2ac4692c869b914b038f600d319ed8cc2caaf25702bb25d76dea",
    ("dqsv-sweep", "--n", "12", "--k", "1", "--trials", "200", "--seed", "3"):
        "bec45ad2ed8630376db3aa3764edbb6fa5f48c18122278dbeb176fd103737e94",
    ("dqsv-sweep", "--n", "6", "--k", "2", "--trials", "400", "--seed", "9"):
        "17448da4fb76da622b18e90669e8e3fd6e2ae34333c3bde944642a27dab53f44",
    ("dqsv-sweep", "--n", "100", "--k", "99", "--trials", "50", "--seed", "1"):
        "7a2f12fec8ce25acf7e567307b41208634325b753bf14a0cb0e9c00bb821e03e",
}


@pytest.mark.parametrize("argv", list(PINNED_ORACLE_CHECKS), ids=" ".join)
def test_oracle_check_reports_are_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, "oracle-check", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_ORACLE_CHECKS[argv]


def test_oracle_check_factorization_small(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "factorization", "--budget", "4")
    assert code == 0
    assert json.loads(out)["violations"] == []


# Every flag that `reproduce` or `oracle-check` once took for all of its
# figures or suites, with an in-range value, and the ones each figure or suite
# reads.  Any other flag exits 2 before work starts.
FORMER_FLAGS = {
    "reproduce": {"--seed": "5", "--rounds": "7", "--fidelity": "0.9", "--k-max": "3",
                  "--delta": "0.3", "--avg-rounds": "3", "--out-dir": "o"},
    "oracle-check": {"--seed": "5", "--n": "6", "--k": "1", "--lambda": "1/3", "--trials": "5",
                     "--grid-size": "2000", "--budget": "4"},
}
READ_FLAGS = {
    ("reproduce", "fig3"): ("--seed", "--rounds", "--k-max", "--fidelity", "--out-dir"),
    ("reproduce", "fig4"): ("--fidelity", "--out-dir"),
    ("reproduce", "fig5"): ("--seed", "--fidelity", "--delta", "--avg-rounds", "--out-dir"),
    ("oracle-check", "binom"): (),
    ("oracle-check", "sqsv"): ("--grid-size",),
    ("oracle-check", "factorization"): ("--budget",),
    ("oracle-check", "dqsv-sweep"): ("--n", "--k", "--lambda", "--trials", "--seed"),
}
UNREAD_FLAGS = [
    (command, name, flag)
    for (command, name), read in READ_FLAGS.items()
    for flag in FORMER_FLAGS[command] if flag not in read
]


@pytest.mark.parametrize("command, name, flag", UNREAD_FLAGS,
                         ids=[f"{name} {flag}" for _, name, flag in UNREAD_FLAGS])
def test_unread_figure_and_suite_flags_exit_2(tmp_path, capsys, monkeypatch, command, name,
                                              flag):
    monkeypatch.chdir(tmp_path)
    argv = [command, name, flag, FORMER_FLAGS[command][flag]]
    if "--out-dir" in READ_FLAGS[command, name]:
        argv += ["--out-dir", "o"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"unrecognized arguments: {flag}" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_sweep_k_range_is_the_sweeps_error(capsys):
    # The CLI leaves k <= n - 1 to dqsv_soundness_sweep and reports its error.
    code, out, err = run_cli(capsys, "oracle-check", "dqsv-sweep", "--n", "6", "--k", "6")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: k = 6 outside [0, N - 1] for N = 6"]


_VIOLATING_BINOM_SUITE = (
    "import sys; from qsverify import cli; "
    "cli._check_binom_suite = lambda: {'suite': 'binom', 'violations': ['forced']}; "
    "sys.exit(cli.main(['oracle-check', 'binom']))"
)


@pytest.mark.parametrize(
    "args, code",
    [
        (("-m", "qsverify.cli", "certify", "--protocol", "sqsv", "--n", "10", "--k", "1",
          "--delta", "0.05", "--lambda", "1/3"), 0),
        (("-m", "qsverify.cli", "oracle-check", "binom"), 0),
        (("-c", _VIOLATING_BINOM_SUITE), 5),
    ],
    ids=["certify", "oracle-check-binom", "oracle-violation"],
)
def test_closed_stdout_ends_without_traceback(args, code):
    # The read end of stdout's pipe is closed before the child starts, so
    # its first write fails; it still exits with the command's own code.
    src = str(Path(qsverify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *args], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300
        )
    finally:
        os.close(write_end)
    assert proc.stderr.decode() == ""
    assert proc.returncode == code
