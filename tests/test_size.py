"""Size ratchet: the public API and the source may shrink but not grow.

Lower the bounds when a change makes either smaller.  The public API is also
the list in the README's "Python API" section.
"""

from pathlib import Path

import siegel_weights

MAX_PUBLIC_NAMES = 27
MAX_SOURCE_LINES = 1732


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
