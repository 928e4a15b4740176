"""List the statements of the ``ddehopf`` package that no test and no
benchmark workload runs.

A statement is every ``ast.stmt`` of the package's modules, nested ones
included, except docstrings (the rule of ``tools/code_size.py``).  A
statement is reached when a line of its own runs: a line it spans that is
not a line of a statement nested in its body (so the header of a compound
statement, with its decorators, is its own).  The traffic is the run of
``pytest`` over ``tests/`` and ``perfbench/tests`` followed by
``ddehopf.cli.main`` on the argv of each workload of ``perfbench/run.py`` at
seed 0, all in this one process, under ``sys.settrace`` and
``threading.settrace`` installed before ``ddehopf`` is imported.  What runs
only in a child process (the CLI tests' subprocesses, for one) is not seen.

Usage::

    python tools/reach.py [ROOT] [--against REV]

ROOT is the repository to audit (default: the one holding this script).
The unreached statements are printed as ``file:line kind``, then ``N of M
statements unreached``; pytest's own report goes to stderr.
``--against REV`` audits the git revision REV of this repository first,
with this script in a fresh interpreter (``bench_pairs.audit_at``), and
prints its list before this tree's.  Only the standard library is used;
the audit takes about two and a half times as long as the tests alone.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import sys
import tempfile
import threading
from pathlib import Path

from bench_pairs import TIER1, audit_at, load  # tools/ is on the path
from code_size import docstring_lines

ROOT = Path(__file__).resolve().parents[1]


def statements(source: str) -> list[tuple[int, str, set[int]]]:
    """(line, kind, own lines) of each statement of one module's source, in
    source order, docstrings left out."""
    tree = ast.parse(source)
    docs = docstring_lines(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) \
                or isinstance(node, ast.Expr) and node.lineno in docs:
            continue
        first = min([node.lineno]
                    + [d.lineno for d in getattr(node, "decorator_list", ())])
        own = set(range(first, node.end_lineno + 1))
        for child in ast.walk(node):
            if isinstance(child, ast.stmt) and child is not node:
                own -= set(range(child.lineno, child.end_lineno + 1))
        out.append((node.lineno, type(node).__name__, own | {node.lineno}))
    return sorted(out, key=lambda s: s[0])


def executed(files, traffic) -> dict[str, set[int]]:
    """{file: lines run} of the files ``files`` (absolute paths) while
    ``traffic()`` runs in this process, in any thread it starts.  The trace
    functions in place before are put back afterwards."""
    lines = {str(f): set() for f in files}
    seen = {}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = os.path.realpath(name)
            if seen[name] in lines:
                lines[name] = lines[seen[name]]
        return local if seen[name] in lines else None

    previous, previous_thread = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        traffic()
    finally:
        sys.settrace(previous)
        threading.settrace(previous_thread)
    return lines


def unreached(package: Path, traffic) -> tuple[list[tuple[Path, int, str]],
                                                int]:
    """([(file, line, kind) of each unreached statement], number of
    statements) of the package directory ``package`` under ``traffic``."""
    files = sorted(package.resolve().glob("*.py"))
    ran = executed(files, traffic)
    missed, total = [], 0
    for path in files:
        found = statements(path.read_text(encoding="utf-8"))
        total += len(found)
        missed += [(path, line, kind) for line, kind, own in found
                   if not own & ran[str(path)]]
    return missed, total


def suite_and_workloads(root: Path):
    """The audit's traffic for the repository ``root``: its tests, then the
    CLI on the benchmark workloads at seed 0, with pytest's report on
    stderr."""
    def run():
        import pytest
        os.chdir(root)
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(["-q", "-p", "no:cacheprovider",
                         *(str(root / path) for path in TIER1)])
        workloads = load(root / "perfbench" / "run.py").WORKLOADS
        from ddehopf import cli
        with tempfile.TemporaryDirectory() as tmp:
            for name, (args, _, suffix, _) in workloads.items():
                cli.main(args(0) + ["--out", str(Path(tmp) / (name + suffix))])
    return run


def report(root: Path) -> list[str]:
    """The printed lines of the audit of the repository at the absolute path
    ``root``."""
    missed, total = unreached(root / "src" / "ddehopf",
                              suite_and_workloads(root))
    return [f"{path.relative_to(root).as_posix()}:{line} {kind}"
            for path, line, kind in missed] \
        + [f"{len(missed)} of {total} statements unreached"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, default=ROOT)
    parser.add_argument("--against", metavar="REV")
    args = parser.parse_args(argv)
    if args.against is not None:
        print(f"{args.against}:\n{audit_at(args.against, __file__)}"
              "this tree:")
    print("\n".join(report(args.root.resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
