"""The mutant rule and the audit loop of ``tools/mutate.py``, on a tiny
package written for each test, with the traffic passed in as a callable."""

import pytest
from conftest import TOOLS, load

SOURCE = '''"""Two guards."""

TOL = 1e-6


def small(x):
    if abs(x) > TOL:
        raise ValueError("not small")
    return x


def positive(x):
    if x < 1e-9:
        raise ValueError("not positive")
    return x
'''


mutate = load(TOOLS / "mutate.py")


def kinds(test):
    """{kind: mutated test line} of the loose mutants of ``if <test>:
    raise E``."""
    source = f"if {test}:\n    raise E\n"
    return {m.kind: m.source.splitlines()[0]
            for m in mutate.mutants(source) if m.kind != "off"}


def test_a_guard_tested_at_its_bound_is_caught(tmp_path):
    # small() is tested ten times past its bound, positive() far past it
    package = tmp_path / "tiny"
    package.mkdir()
    (package / "mod.py").write_text(SOURCE, encoding="utf-8")

    def traffic():
        module = load(package / "mod.py")
        for name, x in (("small", 1e-5), ("positive", -1.0)):
            try:
                getattr(module, name)(x)
            except ValueError:
                continue
            return name
        return None

    got = [(path.name, m.line, m.kind, failed)
           for path, m, failed in mutate.audit(package, traffic)]
    assert got == [("mod.py", 3, "loose:TOL*1000", "small"),
                   ("mod.py", 8, "off", "small"),
                   ("mod.py", 13, "loose:1e-9/1000", None),
                   ("mod.py", 14, "off", "positive")]
    assert (package / "mod.py").read_text(encoding="utf-8") == SOURCE
    assert list(mutate.audit(package, traffic, only=["other"])) == []


def test_off_keeps_the_lines():
    source = 'if x:\n    raise ValueError(\n        "a")\ny = 1\n'
    (off,) = [m for m in mutate.mutants(source) if m.kind == "off"]
    assert off.source == "if x:\n    pass\n\ny = 1\n"


@pytest.mark.parametrize("test,expected", [
    ("x > 1e-3", {"loose:1e-3*1000": "if x > 1.0:"}),
    ("x < 1e-3", {"loose:1e-3/1000": "if x < 1e-06:"}),
    ("not x < 1e-3", {"loose:1e-3*1000": "if not x < 1.0:"}),
    ("1e-3 > x", {"loose:1e-3/1000": "if 1e-06 > x:"}),
    ("x > 2.0 - 1e-3", {"loose:2.0*1000": "if x > 2000.0 - 1e-3:",
                        "loose:1e-3/1000": "if x > 2.0 - 1e-06:"}),
    ("x > -1e-3", {"loose:1e-3/1000": "if x > -1e-06:"}),
    ("x < 1e-3 <= y", {"loose:1e-3*1000": "if x < 1.0 <= y:",
                       "loose:1e-3/1000": "if x < 1e-06 <= y:"}),
    ("x > 0.0 or y > 2", {}),
], ids=["right-of-gt", "right-of-lt", "not", "left", "subtraction",
        "unary-minus", "chained", "no-float"])
def test_the_direction_rule(test, expected):
    assert kinds(test) == expected
