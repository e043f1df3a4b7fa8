"""The package root loads no module of its own."""

import subprocess
import sys

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_root_loads_no_submodule():
    # a fresh interpreter, so that no other test's imports are in sys.modules
    code = ("import sys, confadapt; "
            "print(sorted(m for m in sys.modules if m.startswith('confadapt.')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
