"""Size ratchet: the public API and the source may shrink but not grow.

Each bound equals its measured count, so a change that makes either smaller
lowers the bound with it, and no later change can grow back into the slack.
The source is counted twice: all its lines, and its code lines, which leave
out comments, docstrings and blank lines, so that cutting prose does not count
as making the code smaller.  The public API is also the list in the README's
"Python API" section.  No top-level function or class of the package, and no
method or property of its classes, may go unused: a public name too needs a
caller in the package, unless only the acceptance gate calls it.
"""

import ast
import io
import tokenize
from pathlib import Path

import siegel_weights

MAX_PUBLIC_NAMES = 24
MAX_SOURCE_LINES = 1613
MAX_CODE_LINES = 961
PACKAGE = Path(siegel_weights.__file__).parent

# The dunder methods the package defines.  An AST walk cannot see a dunder used
# through an operator, a call or a constructor, so any dunder not listed here fails.
NEEDED_DUNDERS = {
    "boundary.StratumDatum.__new__",
    "boundary.CohomologyEntry.__new__",
    "weyl.WeylElement.__call__",
}
# Methods that only code outside the package calls, and methods named like one of
# BUILTIN_METHODS that the package does use.  None today: cli's argparse subclass,
# whose error only argparse calls, is local to the function that builds the parser.
OVERRIDES = set()
# Public functions that no code of the package calls and that the acceptance gate
# does.  None today: verify's reference_rows calls avoided_interval.
ACCEPTANCE_ONLY = set()
# A read of x.items may be of any dict, so an attribute read cannot show that a
# method of one of these names is used: such a method must be in OVERRIDES.
BUILTIN_METHODS = {name for kind in (dict, list, tuple, str, set, int) for name in dir(kind)
                   if not name.startswith("__")}


def readme_api_names():
    """The names listed in the README's Python API section, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("The package exports exactly these names")[1]
    return [line.split()[0] for line in block.split("```")[1].strip().splitlines()]


def test_public_api_does_not_grow():
    count = len(siegel_weights.__all__)
    assert count <= MAX_PUBLIC_NAMES, f"{count} public names, bound {MAX_PUBLIC_NAMES}"


def test_readme_lists_exactly_the_public_api():
    names = readme_api_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(siegel_weights.__all__)
    assert all(hasattr(siegel_weights, name) for name in names)


def source_lines(package):
    return sum(len(p.read_text().splitlines()) for p in package.glob("*.py"))


def test_source_does_not_grow():
    count = source_lines(PACKAGE)
    assert count <= MAX_SOURCE_LINES, f"{count} source lines, bound {MAX_SOURCE_LINES}"


# Token types that carry no code: comments, line ends and indentation.
PROSE_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                tokenize.ENDMARKER}


def code_lines(package):
    """The lines of the package's modules that carry a token other than a comment,
    outside the docstrings of the modules, classes and functions."""
    total = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        docstrings = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.body[0] if node.body else None
                if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                        and isinstance(first.value.value, str)):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
        lines = set()
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type not in PROSE_TOKENS:
                lines.update(range(token.start[0], token.end[0] + 1))
        total += len(lines - docstrings)
    return total


def test_code_does_not_grow():
    count = code_lines(PACKAGE)
    assert count <= MAX_CODE_LINES, f"{count} code lines, bound {MAX_CODE_LINES}"


def measured_counts():
    """Each size bound's name with the count it bounds, measured now."""
    return {"MAX_PUBLIC_NAMES": len(siegel_weights.__all__), "MAX_SOURCE_LINES": source_lines(PACKAGE),
            "MAX_CODE_LINES": code_lines(PACKAGE)}


def loose_bounds(bounds, counts):
    """The names of the bounds above their counts: slack that a later change could grow into."""
    return [name for name in bounds if bounds[name] > counts[name]]


def test_bounds_equal_the_measured_counts():
    counts = measured_counts()
    bounds = {"MAX_PUBLIC_NAMES": MAX_PUBLIC_NAMES, "MAX_SOURCE_LINES": MAX_SOURCE_LINES,
              "MAX_CODE_LINES": MAX_CODE_LINES}
    assert loose_bounds(bounds, counts) == [], f"lower the bounds to the measured counts {counts}"


def test_loose_bounds_finds_a_bound_one_above_its_count():
    counts = measured_counts()
    assert loose_bounds(counts, counts) == []
    for name in counts:
        assert loose_bounds({**counts, name: counts[name] + 1}, counts) == [name]


def test_code_lines_ignore_prose_and_count_statements(tmp_path):
    module = tmp_path / "a.py"
    module.write_text('"""Module."""\n\n\ndef f(x):\n    """Twice x,\n    exactly."""\n    return 2 * x\n')
    assert code_lines(tmp_path) == 2  # `def f(x):` and `return 2 * x`
    module.write_text("def f(x):\n    # twice x\n    return 2 * x\n")  # docstrings gone, a comment in
    assert code_lines(tmp_path) == 2
    module.write_text("def f(x):\n    y = 2 * x\n    return y\n")  # one statement more
    assert code_lines(tmp_path) == 3


def unused_definitions(package, dunders=NEEDED_DUNDERS, overrides=OVERRIDES, acceptance_only=ACCEPTANCE_ONLY):
    """Top-level functions and classes of the package's modules that are
    neither in acceptance_only nor referenced in the package: by a loaded name,
    by an attribute of a sibling module imported as one, or by a relative
    import outside __init__.py, so that exporting a name does not count as
    using it.  Then the methods and properties of the
    top-level classes, by qualified name: a dunder not in dunders, and any
    other method not in overrides whose name no attribute read in the package
    uses or is in BUILTIN_METHODS."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    used = set()  # (module, name)
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
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
    unused = [
        f"{stem}.{name}"
        for stem, name in definitions(trees)
        if f"{stem}.{name}" not in acceptance_only and (stem, name) not in used
    ]
    for name, method in methods(trees):
        if method.startswith("__") and method.endswith("__"):
            if name not in dunders:
                unused.append(name)
        elif name not in overrides and (method not in attributes or method in BUILTIN_METHODS):
            unused.append(name)
    return unused


def definitions(trees):
    """(module, name) of each top-level function and class."""
    return [
        (stem, node.name)
        for stem, tree in trees.items()
        for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def methods(trees):
    """(qualified name, name) of each method and property of the top-level classes."""
    return [
        (f"{stem}.{cls.name}.{node.name}", node.name)
        for stem, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
    ]


def stale_entries(package, dunders=NEEDED_DUNDERS, overrides=OVERRIDES, acceptance_only=ACCEPTANCE_ONLY):
    """The entries of dunders and overrides that name no method of the package,
    and those of acceptance_only that name no top-level function or class."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    stale = (dunders | overrides) - {name for name, _ in methods(trees)}
    return sorted(stale | (acceptance_only - {f"{stem}.{name}" for stem, name in definitions(trees)}))


def test_every_definition_is_used():
    assert unused_definitions(PACKAGE) == []


def test_every_listed_method_exists():
    assert stale_entries(PACKAGE) == []


def test_unused_definitions_finds_a_dead_function(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used\n")
    (tmp_path / "a.py").write_text("def used():\n    pass\n\n\ndef dead():\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a as alias\n\n\ndef caller():\n    alias.used()\n")
    assert unused_definitions(tmp_path) == ["a.dead", "b.caller"]


def test_unused_definitions_finds_dead_methods_and_unlisted_dunders(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Point\n")
    methods = ["__init__", "__add__", "norm", "dead", "area", "hook"]
    body = "".join(f"    def {name}(self):\n        pass\n\n" for name in methods)
    (tmp_path / "a.py").write_text(f"class Point:\n{body}\n\ndef caller(p):\n    return p.norm\n")
    (tmp_path / "b.py").write_text("from .a import Point, caller\n\n\nV = caller(Point()).area\n")
    found = unused_definitions(tmp_path, dunders={"a.Point.__init__"}, overrides={"a.Point.hook"})
    assert found == ["a.Point.__add__", "a.Point.dead"]


def test_unused_definitions_refuses_a_method_named_like_a_builtin_one(tmp_path):
    # a dead `items` is read nowhere as a method of Table, but every dict.items()
    # read matches its name; only OVERRIDES can vouch for such a method
    (tmp_path / "__init__.py").write_text("from .a import Table\n")
    (tmp_path / "a.py").write_text(
        "class Table:\n    def items(self):\n        pass\n\n    def count(self):\n        pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import Table\n\n\nV = {}.items(), Table().count()\n")
    assert unused_definitions(tmp_path, dunders=set(), overrides=set()) == ["a.Table.items", "a.Table.count"]
    assert unused_definitions(tmp_path, dunders=set(), overrides={"a.Table.count"}) == ["a.Table.items"]


def test_unused_definitions_refuses_stale_list_entries(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Point\n")
    (tmp_path / "a.py").write_text("class Point:\n    def __init__(self):\n        pass\n")
    found = stale_entries(tmp_path, dunders={"a.Point.__init__", "a.Point.__eq__"},
                          overrides={"a.Parser.error"}, acceptance_only=set())
    assert found == ["a.Parser.error", "a.Point.__eq__"]


def write_public_package(tmp_path):
    """A package that exports helper and public; public calls helper, nothing calls public."""
    (tmp_path / "__init__.py").write_text('from .a import helper, public\n\n__all__ = ["helper", "public"]\n')
    (tmp_path / "a.py").write_text("def helper():\n    pass\n\n\ndef public():\n    helper()\n")


def test_unused_definitions_finds_a_public_function_nothing_calls(tmp_path):
    # exporting a name is not a call: only acceptance_only vouches for it
    write_public_package(tmp_path)
    assert unused_definitions(tmp_path, acceptance_only=set()) == ["a.public"]


def test_unused_definitions_skips_an_acceptance_only_name(tmp_path):
    write_public_package(tmp_path)
    assert unused_definitions(tmp_path, acceptance_only={"a.public"}) == []


def test_stale_entries_finds_an_acceptance_only_name_that_is_not_defined(tmp_path):
    write_public_package(tmp_path)
    found = stale_entries(tmp_path, dunders=set(), overrides=set(), acceptance_only={"a.public", "a.gone"})
    assert found == ["a.gone"]
