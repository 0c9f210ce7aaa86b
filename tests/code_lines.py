"""Net code lines of ``src/crosscap``, per module and in total.

A line counts when it holds a token other than a comment, and does not
count when it lies inside a module, class or function docstring.  So blank
lines, comment lines and docstrings are left out, and a statement split
over several lines counts each of them.  Standard library only; run from
the repository root:

    python3 tests/code_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "crosscap"

#: Tokens that hold no code.
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every module, class and function docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The net code lines of one module's source ``text``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:<16} {n:>5}")
    print(f"{'total':<16} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
