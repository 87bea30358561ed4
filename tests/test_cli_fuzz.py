"""Property tests: no command line and no config file makes ``main`` raise.

Every input must end in one of the documented exit codes, either returned by
``main`` or raised by argparse as ``SystemExit``. The subcommands, nested ones
such as ``reproduce fig3`` included, and the flags of each are read from
``build_parser()``, so a new figure, suite or flag is fuzzed without editing
this file. In-range values of the flags that set a run's length are capped small
so that each example stays cheap.
"""

import argparse
import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qsverify.cli import build_parser, main

EXIT_CODES = {0, 2, 3, 4, 5}

# Flags whose value sets the run time: always passed, in-range values capped.
CAPS = {"--n": 12, "--rounds": 50, "--trials": 5, "--avg-rounds": 3, "--budget": 4,
        "--grid-size": 1001}
# In-range and rejected values of the flags that take a path.
PATHS = {
    "--config": (["run.yaml"], ["missing.yaml", ".", ""]),
    "--out-dir": (["out", "out/nested", ""], ["run.yaml", "run.yaml/out"]),
}

# Candidate values: each flag's parser sorts them into in-range and rejected ones.
CANDIDATES = [str(i) for i in range(14)] + [
    "-1", "999", "1000", "1001", str(2**64 - 1), str(2**64),
    "0.05", "0.2499", "0.25", "0.5", "0.99", "1.0", "1.0001", "1e3", "1/3", "1/0", "0/0",
    "nan", "inf", "-inf", "", " ", "abc", "0x10", "3pi/4", "--", "-",
]

FUZZ = settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

RUN_YAML = "protocol: dqsv\nn: 4\nk: 1\nseed: 1\nrounds: 10\nsource: {model: rho2, phi: pi}\n"


def _in_range(action: argparse.Action, text: str) -> bool:
    try:
        value = action.type(text) if action.type else text
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return False
    return action.choices is None or value in action.choices


def _value(action: argparse.Action):
    """Mostly an in-range value, sometimes one that the flag must reject."""
    flag = action.option_strings[0] if action.option_strings else action.dest
    if flag in PATHS:
        good, bad = PATHS[flag]
    else:
        candidates = [*CANDIDATES, *(action.choices or ())]
        good = [v for v in candidates if _in_range(action, v)
                and not (flag in CAPS and int(v) > CAPS[flag])]
        bad = [v for v in candidates if not _in_range(action, v)]
    return st.integers(0, 4).flatmap(lambda roll: st.sampled_from(bad if roll == 4 else good))


@st.composite
def _argv(draw):
    """Subcommand names from the top level down, then the flags of the last one."""
    argv, parser = [], build_parser()
    while subcommands := [a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction)]:
        name = draw(_value(subcommands[0]))
        argv.append(name)
        if name not in subcommands[0].choices:
            return argv
        parser = subcommands[0].choices[name]
    for action in parser._actions:
        if not action.option_strings:
            argv.append(draw(_value(action)))
        elif action.option_strings[0] == "-h":
            continue
        elif action.nargs == 0:
            if draw(st.booleans()):
                argv.append(action.option_strings[0])
        elif (action.required or action.option_strings[0] in CAPS | PATHS
              or draw(st.booleans())):
            argv += [action.option_strings[0], draw(_value(action))]
    return argv


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@FUZZ
@given(argv=_argv())
def test_fuzzed_argv_exits_with_a_documented_code(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.yaml").write_text(RUN_YAML)
    assert _exit_code(argv) in EXIT_CODES, argv


# Config values: mostly in range for their key, sometimes wrongly typed.
YAML_GOOD = {
    "protocol": ["sqsv", "dqsv"], "n": ["2", "4"], "k": ["0", "1"], "seed": ["0", "7"],
    "rounds": ["5", "20"], "format": ["json", "csv"], "out_dir": ["out"],
    "mode": ["fixed", "acceptances"], "target_acceptances": ["3"], "max_rounds": ["30"],
    "fidelity": ["0.9", "1.0"], "phi": ["pi", "3pi/4"], "weight": ["0.5", "1"],
    "states": ["[singlet, singlet, singlet]", "[singlet, werner(0.9), 'singlet_phi(pi/2)']"],
}
YAML_WRONG = ["3.7", "yes", "no", "null", "[1, 2]", "{a: 1}", "abc", "2024-01-01",
              "2024-13-45", ".nan", ".inf", "-1", "0", "'5'", "0x10", "''",
              "!!binary aGVsbG8="]
YAML_KEYS = {
    "": ["protocol", "n", "k", "seed", "rounds", "format", "out_dir", "stopping", "source"],
    "stopping": ["mode", "rounds", "target_acceptances", "max_rounds"],
    # A source block holds the keys that its model reads.
    "honest": ["model", "fidelity"],
    "rho1": ["model", "fidelity"],
    "rho2": ["model", "fidelity", "phi"],
    "custom": ["model", "branches"],
    "branches": ["weight", "states"],
}
MODELS = ["rho2", "custom", "honest", "rho1"]


@st.composite
def _yaml_block(draw, parent: str, indent: str) -> list[str]:
    """YAML lines for the keys under ``parent``; each key may be left out."""
    lines = []
    for key in YAML_KEYS[parent]:
        roll = draw(st.integers(0, 9))
        if roll == 9:
            continue
        if roll >= 7:
            lines.append(f"{indent}{key}: {draw(st.sampled_from(YAML_WRONG))}")
        elif key == "model":
            lines.append(f"{indent}model: {parent}")
        elif key in ("source", "stopping"):
            block = draw(st.sampled_from(MODELS)) if key == "source" else key
            lines += [f"{indent}{key}:", *draw(_yaml_block(block, indent + "  "))]
        elif key == "branches":
            lines.append(f"{indent}branches:")
            for _ in range(draw(st.integers(1, 2))):
                item = draw(_yaml_block(key, indent + "    ")) or ["{}"]
                lines += [f"{indent}  - {item[0].lstrip()}", *item[1:]]
        else:
            lines.append(f"{indent}{key}: {draw(st.sampled_from(YAML_GOOD[key]))}")
    return lines


CONFIGS = st.one_of(
    _yaml_block("", "").map(lambda lines: "\n".join([*lines, ""]).encode()),
    st.binary(max_size=64),
)


@FUZZ
@given(config=CONFIGS)
def test_fuzzed_config_exits_with_a_documented_code(tmp_path, monkeypatch, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.yaml").write_bytes(config)
    assert _exit_code(["simulate", "--config", "c.yaml"]) in EXIT_CODES, config
