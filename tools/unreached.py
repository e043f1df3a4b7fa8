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

``cli_unreached(workdir)`` answers the other question, what only a test
runs: it runs the demo recipe's command-line sequence, cut down, in this
process under a call tracer and returns the package code objects that
never ran. ``tests/test_tools.py`` compares that list with an allowlist
that gives each entry's reason.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import threading
import types

from pathlib import Path

import pytest

from codelines import PACKAGE, docstring_lines

ROOT = PACKAGE.parents[1]
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "tests"]


def code_objects(source, filename):
    """Every code object compiled from ``source``, nested ones included."""
    todo = [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        yield code
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]


def executable_lines(source, filename):
    """Line numbers of the instructions of every code object in ``source``."""
    lines = set()
    for code in code_objects(source, filename):
        lines.update(line for _, _, line in code.co_lines() if line)
    return lines - docstring_lines(ast.parse(source))


def cli_runs(workdir):
    """The argument lists of the demo recipe's command-line sequence, cut
    down to one epoch per stage and 16/8/8/8 utterances per split, with
    every output under ``workdir``: ``gen-data``, ``run``, ``evaluate``,
    ``dump-arch`` of a model and of a supernet, and ``sweep``."""
    config = ROOT / "configs" / "demo.json"
    stages = len(json.loads(config.read_text())["stages"])
    out = Path(workdir) / "run"
    sets = [f"out_dir={out}", f"data.dir={Path(workdir) / 'data'}"]
    sets += [f"data.{corpus}.counts.{split}={n}" for corpus in ("source", "target")
             for split, n in (("train", 16), ("heldout", 8), ("dev", 8), ("test", 8))]
    sets += [f"stages.{i}.epochs=1" for i in range(stages)]
    common = ["-c", str(config)] + [arg for s in sets for arg in ("--set", s)]
    return [["gen-data", *common], ["run", *common],
            ["evaluate", *common, "--checkpoint", str(out / "m_hyper_tgt.ckpt")],
            ["dump-arch", "--checkpoint", str(out / "m_hyper_tgt.ckpt")],
            ["dump-arch", "--checkpoint", str(out / "sn_tgt.ckpt")],
            ["sweep", *common]]


def cli_unreached(workdir):
    """``module.qualname`` of each code object of the package that the
    ``cli_runs`` sequence never calls, sorted, one entry per distinct
    name. Run it in a fresh process: the tracer is installed before the
    package is imported, so module and class bodies count, and it
    replaces any tracer of this thread."""
    if "confadapt" in sys.modules:
        raise RuntimeError("cli_unreached: confadapt is already imported")
    called = set()

    def trace_calls(frame, _event, _arg):
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(trace_calls)
    try:
        from confadapt import cli
        for argv in cli_runs(workdir):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"confadapt {argv[0]} exited {code}")
    finally:
        sys.settrace(None)
    ran = {(str(Path(f).resolve()), line, name) for f, line, name in called}
    missed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for code in code_objects(path.read_text(), str(path)):
            if (str(path), code.co_firstlineno, code.co_qualname) not in ran:
                missed.add(f"{path.stem}.{code.co_qualname}")
    return sorted(missed)


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
