"""Each command loads only the modules it runs.

Every case starts a fresh interpreter, runs ``import qsverify`` or one
command through ``qsverify.cli.main`` at a small size, and lists the modules
that ended up in ``sys.modules``.  ``numpy.ma``, ``logging`` and ``scipy``
serve no command (``logging`` only a clamp, which these runs never reach),
and PyYAML only reads ``simulate --config``.  ``hashlib`` (with OpenSSL)
serves ``simulate``'s rounds.csv, and ``numpy.random`` imports it through
``secrets``; the commands that draw no random numbers load neither.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsverify

NEVER = ("numpy.ma", "logging", "scipy")
YAML = "yaml"
UNSEEDED = ("import", "certify", "fig4")

CHILD = """\
import json, sys
report, argv = sys.argv[1], sys.argv[2:]
if argv:
    from qsverify.cli import main
    code = main(argv)
else:
    import qsverify
    code = 0
with open(report, "w", encoding="utf-8") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""

SIMULATE_YAML = (
    "protocol: dqsv\nn: 5\nk: 0\nseed: 3\nrounds: 40\n"
    "source:\n  model: rho2\n  phi: pi\n"
)

COMMANDS = {
    "import": [],
    "certify": ["certify", "--protocol", "dqsv", "--n", "50", "--k", "2", "--delta", "0.05",
                "--lambda", "1/3", "--intermediates"],
    "fig3": ["reproduce", "fig3", "--rounds", "20", "--k-max", "2", "--out-dir", "{out}"],
    "fig4": ["reproduce", "fig4", "--out-dir", "{out}"],
    "fig5": ["reproduce", "fig5", "--avg-rounds", "2", "--out-dir", "{out}"],
    "simulate": ["simulate", "--config", "{config}", "--out-dir", "{out}"],
    "dqsv-sweep": ["oracle-check", "dqsv-sweep", "--n", "6", "--k", "1", "--trials", "20"],
}


def _loaded(prefix: str, modules: list[str]) -> bool:
    return any(m == prefix or m.startswith(prefix + ".") for m in modules)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_loads_only_what_it_runs(name, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(SIMULATE_YAML, encoding="utf-8")
    argv = [a.format(out=tmp_path / "out", config=config) for a in COMMANDS[name]]
    report = tmp_path / "modules.json"
    src = str(Path(qsverify.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(report), *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text(encoding="utf-8"))
    assert result["code"] == 0
    modules = result["modules"]
    assert [m for m in NEVER if _loaded(m, modules)] == []
    assert _loaded(YAML, modules) == (name == "simulate")
    if name in UNSEEDED:
        assert [m for m in ("numpy.random", "hashlib") if _loaded(m, modules)] == []
