"""The command-line tools under ``tools/``."""

import importlib.util
import inspect
import re
import subprocess
import sys

from pathlib import Path

import pytest

from confadapt import losses

ROOT = Path(__file__).resolve().parents[1]


_spec = importlib.util.spec_from_file_location("codelines", ROOT / "tools" / "codelines.py")
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)


@pytest.mark.parametrize("source, lines", [
    ('"""Module docstring,\nover two lines."""\nx = 1\n', 1),
    ('class A:\n    """Class docstring."""\n    x = 1\n', 2),
    ('def f():\n    """Function docstring,\n    over two lines."""\n    return 1\n', 2),
    ('x = 1\n\n# a comment-only line\n    # an indented one\ny = 2  # after code\n', 2),
    ('x = f(1,\n      2)\ny = [\n    3,\n]\n', 5),
    ('s = """a string,\nnot a docstring"""\n', 2),
])
def test_codelines_counts_each_line_that_holds_code(source, lines):
    assert codelines.code_lines(source) == lines


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
