"""Count code lines, functions and parameters per module of a Python
package.

A code line is a physical line that holds a token of code: comments,
docstrings (the leading string of a module, class or function) and blank
lines do not count.  Functions are ``def`` and ``async def`` statements,
nested ones included; lambdas are not counted.  Parameters are those of
the functions, ``*args`` and ``**kwargs`` included, except a method's
receiver (the first parameter of a ``def`` in a class body that is not a
``staticmethod``); each one is a value a caller can set.  The parameters
with defaults are those a caller may leave out.

Usage::

    python tools/code_size.py [PACKAGE_DIR] [--against REV]

PACKAGE_DIR defaults to ``src/ddehopf`` next to this script's directory.
``--against REV`` extracts the git revision REV of this repository into a
temporary directory (``bench_pairs.checkout``) and prints the four figures of
the same package directory at REV beside this tree's, module by module (a
module missing on one side reads ``-``) and in total.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

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


def _receivers(tree: ast.AST) -> set:
    """The defs of ``tree`` whose first parameter is a method's receiver."""
    return {fn for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for fn in node.body if isinstance(fn, _FUNCTIONS)
            and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in fn.decorator_list)}


def measure(source: str) -> tuple[int, int, int, int]:
    """(code lines, functions, parameters, parameters with defaults) of one
    module's source text."""
    tree = ast.parse(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    functions = [n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)]
    receivers = _receivers(tree)
    parameters = defaults = 0
    for fn in functions:
        a = fn.args
        positional = len(a.posonlyargs) + len(a.args)
        parameters += (positional + len(a.kwonlyargs)
                       + (a.vararg is not None) + (a.kwarg is not None)
                       - (fn in receivers and positional > 0))
        defaults += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
    return (len(code - _docstring_lines(tree)), len(functions), parameters,
            defaults)


def sizes(root: Path) -> dict:
    """{module file name: ``measure`` figures} of the ``*.py`` files in the
    directory ``root``."""
    return {path.name: measure(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("*.py"))}


def sizes_at(rev: str, package: Path) -> dict:
    """``sizes`` of the directory ``package`` (relative to the repository
    root) at git revision ``rev``."""
    from bench_pairs import checkout  # tools/ is on the path of a script
    with checkout(rev, package.as_posix()) as tree:
        return sizes(tree / package)


COLUMNS = ("lines", "functions", "params", "defaults")


def table(*trees: dict) -> list[str]:
    """Lines of a table with one row per module and a total row, and for
    each of ``trees`` (``sizes`` results) one column per figure."""
    names = sorted(set().union(*trees))
    width = len(COLUMNS)
    rows = [("module", *COLUMNS * len(trees))]
    for name in names:
        rows.append((name, *[v for tree in trees
                             for v in tree.get(name, ("-",) * width)]))
    rows.append(("total", *[sum(fig[k] for fig in tree.values())
                            for tree in trees for k in range(width)]))
    return [f"{row[0]:<20}" + "".join(
        f" {v:>{len(COLUMNS[i % width])}}" for i, v in enumerate(row[1:]))
        for row in rows]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path,
                        default=ROOT / "src" / "ddehopf")
    parser.add_argument("--against", metavar="REV")
    args = parser.parse_args(argv)
    trees = [sizes(args.package)]
    if args.against is not None:
        package = args.package.resolve().relative_to(ROOT)
        trees.insert(0, sizes_at(args.against, package))
        group = len(" ".join(COLUMNS))
        print(f"{'':<20} {args.against[:group]:>{group}} "
              f"{'this tree':>{group}}")
    print("\n".join(table(*trees)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
