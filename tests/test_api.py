import os
import subprocess
import sys
from pathlib import Path

import qsverify


def test_every_exported_name_resolves():
    missing = [name for name in qsverify.__all__ if not hasattr(qsverify, name)]
    assert missing == []
    assert len(set(qsverify.__all__)) == len(qsverify.__all__)


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: the package and its CLI must import
    # without it.
    code = (
        "import sys, qsverify, qsverify.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    src = str(Path(qsverify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
