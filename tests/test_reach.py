"""The statement rule and the line trace of ``tools/reach.py``, on a tiny
package written for each test, with the traffic passed in as a callable."""

import sys
import threading

from conftest import TOOLS, load

SOURCE = '''"""A module docstring."""


def sign(x):
    """A function docstring."""
    if x > 0:
        return 1
    return -1


@staticmethod
def total(
        xs):
    return sum(xs)
'''


reach = load(TOOLS / "reach.py")


def test_statements_leave_out_docstrings():
    assert reach.statements(SOURCE) == [
        (4, "FunctionDef", {4}), (6, "If", {6}), (7, "Return", {7}),
        (8, "Return", {8}), (12, "FunctionDef", {11, 12, 13}),
        (14, "Return", {14})]


def test_reached_and_unreached(tmp_path):
    package = tmp_path / "tiny"
    package.mkdir()
    (package / "mod.py").write_text(SOURCE, encoding="utf-8")
    tracers = sys.gettrace(), threading.gettrace()

    def traffic():
        module = load(package / "mod.py")
        assert module.sign(2) == 1

    missed, total = reach.unreached(package, traffic)
    assert [(path.name, line, kind) for path, line, kind in missed] == [
        ("mod.py", 8, "Return"), ("mod.py", 14, "Return")]
    assert total == 6
    assert (sys.gettrace(), threading.gettrace()) == tracers
