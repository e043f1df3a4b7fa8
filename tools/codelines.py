"""Print the code lines of each module of ``src/confadapt/``, and their total.

Run from anywhere, with no arguments:

    python3 tools/codelines.py

A code line is any line that is not blank, not comment-only and not
inside a module, class or function docstring. A line that holds a token
other than a comment counts once, however many tokens it holds; every
line of a multi-line statement or string that is not a docstring counts.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "confadapt"
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers covered by the module's, each class's and each function's docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
