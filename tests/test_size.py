"""Size ratchet: the public API and the source may shrink but not grow.

Lower the bounds when a change makes either smaller.  The public API is also
the list in the README's "Python API" section.  No top-level function or
class of the package may go unused.
"""

import ast
from pathlib import Path

import siegel_weights

MAX_PUBLIC_NAMES = 26
MAX_SOURCE_LINES = 1705


def readme_api_names():
    """The names listed in the README's Python API section, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("The package exports exactly these names")[1]
    return [line.split()[0] for line in block.split("```")[1].strip().splitlines()]


def test_public_api_does_not_grow():
    assert len(siegel_weights.__all__) <= MAX_PUBLIC_NAMES


def test_readme_lists_exactly_the_public_api():
    names = readme_api_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(siegel_weights.__all__)
    assert all(hasattr(siegel_weights, name) for name in names)


def test_source_does_not_grow():
    package = Path(siegel_weights.__file__).parent
    lines = sum(len(p.read_text().splitlines()) for p in package.glob("*.py"))
    assert lines <= MAX_SOURCE_LINES


def unused_definitions(package):
    """Top-level functions and classes of the package's modules that are
    neither in __all__ nor referenced in the package: by a loaded name, by
    an attribute of a sibling module imported as one, or by a relative
    import outside __init__.py."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    used = set()  # (module, name)
    for stem, tree in trees.items():
        siblings = {}  # local name -> sibling module, from `from . import x as y`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings[alias.asname or alias.name] = alias.name
                    elif stem != "__init__":
                        used.add((node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((stem, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings):
                used.add((siblings[node.value.id], node.attr))
    public = set(siegel_weights.__all__)
    return [
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in public
        and (stem, node.name) not in used
    ]


def test_every_definition_is_public_or_used():
    assert unused_definitions(Path(siegel_weights.__file__).parent) == []


def test_unused_definitions_finds_a_dead_function(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used\n")
    (tmp_path / "a.py").write_text("def used():\n    pass\n\n\ndef dead():\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a as alias\n\n\ndef caller():\n    alias.used()\n")
    assert unused_definitions(tmp_path) == ["a.dead", "b.caller"]
