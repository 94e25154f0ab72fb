"""Size ratchet: the public API and the source may shrink but not grow.

Lower the bounds when a change makes either smaller.
"""

from pathlib import Path

import siegel_weights

MAX_PUBLIC_NAMES = 55
MAX_SOURCE_LINES = 1968


def test_public_api_does_not_grow():
    assert len(siegel_weights.__all__) <= MAX_PUBLIC_NAMES


def test_source_does_not_grow():
    package = Path(siegel_weights.__file__).parent
    lines = sum(len(p.read_text().splitlines()) for p in package.glob("*.py"))
    assert lines <= MAX_SOURCE_LINES
