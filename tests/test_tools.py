"""The command-line tools under ``tools/``."""

import inspect
import re
import subprocess
import sys

from pathlib import Path

from confadapt import losses

ROOT = Path(__file__).resolve().parents[1]


def test_unreached_lists_lines_the_tests_never_ran():
    # importing the package runs no loss, so the lines of ctc_loss's body are listed
    run = subprocess.run([sys.executable, "tools/unreached.py", "-q", "-p", "no:cacheprovider",
                          "tests/test_namespace.py"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    section = run.stdout.split("src/confadapt/losses.py:", 1)[1].split("\n\n", 1)[0]
    listed = {int(m) for m in re.findall(r"^\s*(\d+)  ", section, re.MULTILINE)}
    body, first = inspect.getsourcelines(losses.ctc_loss)
    assert listed & set(range(first + 1, first + len(body)))
