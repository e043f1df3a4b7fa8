"""Print each executable line of ``src/confadapt/*.py`` that no test runs.

Run from the root of a checkout, with pytest's arguments or none:

    python3 tools/unreached.py [pytest args]

The default arguments are ``-q -p no:cacheprovider tests``. A line
tracer is installed on this thread and on every new thread before
``confadapt`` is imported, then ``pytest.main`` runs the tests in this
process, with ``src/`` on the path as ``pyproject.toml`` sets it (code
run in a subprocess is not seen). The executable lines of
a module are the lines of every code object compiled from it, nested
ones included, less its docstrings. Lines no test ran are printed under
their module. The exit code is pytest's. Tracing about doubles the
suite's time.
"""

from __future__ import annotations

import ast
import sys
import threading
import types

from pathlib import Path

import pytest

from codelines import PACKAGE, docstring_lines

ROOT = PACKAGE.parents[1]
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "tests"]


def executable_lines(source, filename):
    """Line numbers of the instructions of every code object in ``source``."""
    lines, todo = set(), [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines - docstring_lines(ast.parse(source))


def main(argv):
    hits = {str(p): set() for p in sorted(PACKAGE.glob("*.py"))}

    def local_tracer(lines):
        def trace(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    tracers = {name: local_tracer(lines) for name, lines in hits.items()}

    def trace_calls(frame, _event, _arg):
        return tracers.get(frame.f_code.co_filename)

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name, ran in hits.items():
        path = Path(name)
        source = path.read_text()
        missed = sorted(executable_lines(source, name) - ran)
        total += len(missed)
        if missed:
            text = source.splitlines()
            print(f"\n{path.relative_to(ROOT)}: {len(missed)} lines never ran")
            for n in missed:
                print(f"{n:6d}  {text[n - 1].strip()}")
    print(f"\n{total} executable lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
