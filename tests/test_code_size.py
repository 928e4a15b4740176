"""The counting rules of ``tools/code_size.py``, on small synthetic modules,
and its side-by-side table of two package directories."""

from conftest import TOOLS, load

code_size = load(TOOLS / "code_size.py")

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


PARAMETERS = '''
def f(a, b=1, *args, c, d=2, **kwargs):
    def g(x, /, y=0):
        return lambda z=3: z
    return g


class C:
    def method(self, u, v=None):
        return u

    @classmethod
    def build(cls, w):
        return cls()

    @staticmethod
    def helper(p, q=()):
        return p
'''


def test_comments_docstrings_and_blank_lines_are_not_counted():
    # import, class, def area, def inner, return, return, square, TEXT (2);
    # area's self is its receiver, and inner takes nothing
    assert code_size.measure(SAMPLE) == (9, 2, 0, 0)


def test_parameters_and_their_defaults():
    # f: a, b, args, c, d, kwargs (b and d defaulted); g: x, y (y); the
    # lambda's z is not counted; method: u, v (v), its self is the
    # receiver, as build's cls is; build: w; helper, a staticmethod,
    # has no receiver: p, q (q)
    assert code_size.measure(PARAMETERS)[1:] == (5, 13, 5)


def test_an_empty_module_counts_nothing():
    assert code_size.measure('"""Only a docstring."""\n\n# and a comment\n') \
        == (0, 0, 0, 0)


def test_per_module_figures_add_up_to_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("def f(x=1):\n    return g(x)\n\n\n"
                                   "def g(y):\n    return y\n",
                                   encoding="utf-8")
    (tmp_path / "notes.txt").write_text("def not_python():\n", encoding="utf-8")
    assert code_size.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "lines", "functions", "params", "defaults"]
    table = {name: tuple(map(int, figures)) for name, *figures in rows[1:]}
    assert table == {"a.py": (9, 2, 0, 0), "b.py": (4, 2, 2, 1),
                     "total": (13, 4, 2, 1)}


def test_two_trees_side_by_side(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "a.py").write_text(SAMPLE, encoding="utf-8")
    (old / "gone.py").write_text("def f():\n    return 1\n", encoding="utf-8")
    (new / "a.py").write_text(SAMPLE + "\n\ndef extra(n=0):\n    pass\n",
                              encoding="utf-8")
    (new / "added.py").write_text("X = 1\n", encoding="utf-8")
    rows = [line.split() for line in
            code_size.table(code_size.sizes(old), code_size.sizes(new))]
    columns = ["lines", "functions", "params", "defaults"]
    assert rows == [
        ["module", *columns, *columns],
        ["a.py", "9", "2", "0", "0", "11", "3", "1", "1"],
        ["added.py", "-", "-", "-", "-", "1", "0", "0", "0"],
        ["gone.py", "2", "1", "0", "0", "-", "-", "-", "-"],
        ["total", "11", "3", "0", "0", "12", "3", "1", "1"],
    ]
