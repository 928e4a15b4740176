"""Count code lines and functions per module of a Python package.

A code line is a physical line that holds a token of code: comments,
docstrings (the leading string of a module, class or function) and blank
lines do not count.  Functions are ``def`` and ``async def`` statements,
nested ones included; lambdas are not counted.

Usage::

    python tools/code_size.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/ddehopf`` next to this script's directory.
Only the standard library is used.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (ast.Module, ast.ClassDef) + _FUNCTIONS


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def measure(source: str) -> tuple[int, int]:
    """(code lines, functions) of one module's source text."""
    tree = ast.parse(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    functions = sum(isinstance(n, _FUNCTIONS) for n in ast.walk(tree))
    return len(code - _docstring_lines(tree)), functions


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else \
        Path(__file__).resolve().parents[1] / "src" / "ddehopf"
    total_lines = total_functions = 0
    print(f"{'module':<20} {'lines':>6} {'functions':>9}")
    for path in sorted(root.glob("*.py")):
        lines, functions = measure(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_functions += functions
        print(f"{path.name:<20} {lines:>6} {functions:>9}")
    print(f"{'total':<20} {total_lines:>6} {total_functions:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
