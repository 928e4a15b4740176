"""The counting rule of ``tools/code_size.py``, on small synthetic modules,
and its side-by-side table of two package directories."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_size.py"
_spec = importlib.util.spec_from_file_location("code_size", TOOL)
code_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_size)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import math


class Shape:
    """Class docstring."""

    def area(self):
        """Method docstring."""

        def inner():  # a nested def counts
            return 1.0
        return inner() * math.pi


square = lambda s: s * s  # a lambda does not count as a function
TEXT = """a string that is not a docstring
is code"""
'''


def test_comments_docstrings_and_blank_lines_are_not_counted():
    # import, class, def area, def inner, return, return, square, TEXT (2)
    assert code_size.measure(SAMPLE) == (9, 2)


def test_an_empty_module_counts_nothing():
    assert code_size.measure('"""Only a docstring."""\n\n# and a comment\n') \
        == (0, 0)


def test_per_module_figures_add_up_to_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("def f():\n    return g()\n\n\n"
                                   "def g():\n    return 2\n",
                                   encoding="utf-8")
    (tmp_path / "notes.txt").write_text("def not_python():\n", encoding="utf-8")
    assert code_size.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "lines", "functions"]
    table = {name: (int(lines), int(functions))
             for name, lines, functions in rows[1:]}
    assert table == {"a.py": (9, 2), "b.py": (4, 2), "total": (13, 4)}


def test_two_trees_side_by_side(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "a.py").write_text(SAMPLE, encoding="utf-8")
    (old / "gone.py").write_text("def f():\n    return 1\n", encoding="utf-8")
    (new / "a.py").write_text(SAMPLE + "\n\ndef extra():\n    pass\n",
                              encoding="utf-8")
    (new / "added.py").write_text("X = 1\n", encoding="utf-8")
    rows = [line.split() for line in
            code_size.table(code_size.sizes(old), code_size.sizes(new))]
    assert rows == [
        ["module", "lines", "functions", "lines", "functions"],
        ["a.py", "9", "2", "11", "3"],
        ["added.py", "-", "-", "1", "0"],
        ["gone.py", "2", "1", "-", "-"],
        ["total", "11", "3", "12", "3"],
    ]
