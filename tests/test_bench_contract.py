"""The benchmark's traced run replaces program functions by name (see
bench/layers.py), so each name it patches must exist in the program.  A
rename or deletion then fails here rather than in a benchmark run."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402


def test_every_patch_point_resolves():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in layers.PATCH_POINTS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
