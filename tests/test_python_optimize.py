"""Every check in the package still runs under `python -O`.

`-O` strips each `assert` statement and compiles away each `if __debug__:` block, so
a check written either way would not run there.  Code that reads `sys.flags` can
branch on the optimize level, and `exec`, `eval` and `compile` compile their source
at that level.  This guard finds each of these constructs in every module of the
package, so the tests that run a check in process also prove that it runs under
`-O`.  test_cli.py's `test_verify_bytes_are_pinned_under_python_O` runs `verify`
once under `-O` end to end.
"""

import ast
from pathlib import Path

import pytest

import siegel_weights

COMPILING_BUILTINS = {"exec", "eval", "compile"}


def _is_name(node, name):
    return isinstance(node, ast.Name) and node.id == name


def follows_optimize_level(node):
    """Whether node is an assert statement, a read of __debug__ or of sys.flags, or a call
    of exec, eval or compile, by name or through the builtins module."""
    if isinstance(node, ast.Assert):
        return True
    if isinstance(node, ast.Name):
        return node.id == "__debug__"
    if isinstance(node, ast.Attribute):
        return node.attr == "__debug__" or node.attr == "flags" and _is_name(node.value, "sys")
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(alias.name == "flags" for alias in node.names)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and _is_name(func.value, "builtins"):
            return func.attr in COMPILING_BUILTINS
        return isinstance(func, ast.Name) and func.id in COMPILING_BUILTINS
    return False


def optimize_dependent_code(package):
    """(module, line) of each construct in the package's modules that follows the optimize level."""
    return [(path.stem, node.lineno) for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text())) if follows_optimize_level(node)]


def test_no_check_is_stripped_under_python_O():
    assert optimize_dependent_code(Path(siegel_weights.__file__).parent) == []


# One module per construct; the guard must find it on the line given.
CONSTRUCTS = {
    "assert": ("def f(x):\n    assert x >= 0\n    return x\n", 2),
    "debug-read": ("def g(x):\n    if __debug__ and x < 0:\n        raise ValueError(x)\n", 2),
    "debug-attribute": ("import builtins\n\nCHECKED = builtins.__debug__\n", 3),
    "sys-flags": ("import sys\n\nSTRIPPED = sys.flags.optimize > 0\n", 3),
    "sys-flags-import": ("from sys import argv, flags\n", 1),
    "exec": ("def h(source):\n    exec(source)\n", 2),
    "eval": ("def h(source):\n    return eval(source)\n", 2),
    "compile": ("CODE = compile('x = 1', '<check>', 'exec')\n", 1),
    "builtins-exec": ("import builtins\n\nbuiltins.exec('x = 1')\n", 3),
}


@pytest.mark.parametrize("construct", list(CONSTRUCTS))
def test_negative_control_each_construct_is_found(construct, tmp_path):
    source, line = CONSTRUCTS[construct]
    (tmp_path / "m.py").write_text(source)
    assert optimize_dependent_code(tmp_path) == [("m", line)]


def test_look_alikes_of_the_constructs_are_not_found(tmp_path):
    # a local or another object's attribute named flags (cli.py reads a local `flags`),
    # and compile, exec and eval as attributes of other objects, do not follow the level
    (tmp_path / "m.py").write_text(
        "import re\n\n"
        "def f(flags, args):\n"
        "    if x := [flag for flag in flags if args.flags]:\n"
        "        raise ValueError(x)\n"
        "    return re.compile('a'), args.cursor.exec('b'), args.eval\n"
    )
    assert optimize_dependent_code(tmp_path) == []
