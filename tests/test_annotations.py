"""Every annotation in the package names something its module can resolve.

The modules use `from __future__ import annotations`, so an annotation is a string
that nothing evaluates until `typing.get_type_hints` does; a name that a module no
longer imports shows only then.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import siegel_weights


def annotated_objects(package=siegel_weights):
    """(qualified name, object) of each function, class, method and property getter
    defined in the package's modules other than __main__."""
    found = []
    for info in pkgutil.iter_modules(package.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported, or not a definition
            if inspect.isclass(obj):
                found.append((f"{info.name}.{name}", obj))
                for attr, member in vars(obj).items():
                    member = member.fget if isinstance(member, property) else member
                    if inspect.isfunction(member):
                        found.append((f"{info.name}.{name}.{attr}", member))
            elif inspect.isfunction(inspect.unwrap(obj)):
                found.append((f"{info.name}.{name}", obj))
    return found


def unresolved(objects):
    """The names of the objects whose annotations `typing.get_type_hints` cannot resolve."""
    failed = []
    for name, obj in objects:
        try:
            typing.get_type_hints(obj)
        except NameError:
            failed.append(name)
    return failed


def test_every_annotation_resolves():
    objects = dict(annotated_objects())
    assert {"checks.suite_euler", "cli._cmd_verify", "cli._stratum", "boundary.StratumDatum.euler_term",
            "laurent.LaurentPolynomial.__init__", "cli._Raw"} <= set(objects)
    assert unresolved(objects.items()) == []


def test_negative_control_an_annotation_of_a_module_not_imported_fails(tmp_path, monkeypatch):
    package = tmp_path / "probe_package"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text(
        "from __future__ import annotations\n\n\n"
        "def draw(rng: random.Random) -> int:\n    return rng.randint(0, 1)\n\n\n"
        "class Box:\n    def put(self, item: Item) -> None:\n        pass\n\n"
        "    @property\n    def size(self) -> int:\n        return 0\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    probe = importlib.import_module("probe_package")
    assert unresolved(annotated_objects(probe)) == ["a.draw", "a.Box.put"]
