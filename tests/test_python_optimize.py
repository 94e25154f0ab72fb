"""Every check in the package still runs under `python -O`.

`-O` strips each `assert` statement and compiles away each `if __debug__:` block, so
a check written either way would not run there.  The `-O` subprocess tests in
test_cli.py run particular checks; this guard covers every module of the package.
"""

import ast
from pathlib import Path

import siegel_weights


def debug_only_code(package):
    """(module, line) of each assert statement and each read of __debug__ in the package's modules."""
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__"
                    or isinstance(node, ast.Attribute) and node.attr == "__debug__"):
                found.append((path.stem, node.lineno))
    return found


def test_no_check_is_stripped_under_python_O():
    assert debug_only_code(Path(siegel_weights.__file__).parent) == []


def test_negative_control_an_assert_and_a_debug_read_are_found(tmp_path):
    (tmp_path / "a.py").write_text("def f(x):\n    assert x >= 0\n    return x\n")
    (tmp_path / "b.py").write_text("def g(x):\n    if __debug__ and x < 0:\n        raise ValueError(x)\n")
    (tmp_path / "c.py").write_text("import builtins\n\nCHECKED = builtins.__debug__\n")
    (tmp_path / "d.py").write_text("def h(x):\n    if x < 0:\n        raise ValueError(x)\n")
    assert debug_only_code(tmp_path) == [("a", 2), ("b", 2), ("c", 3)]
