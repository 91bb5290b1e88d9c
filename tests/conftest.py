import sys
from pathlib import Path

import pytest

# Allow running the suite from a fresh checkout without installing.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture
def small_grids(monkeypatch):
    """Let cosets start at any grid of at least 4 L0 nodes."""
    import zygmund.trig

    monkeypatch.setattr(zygmund.trig, "_COSET_MIN_NODES", 16)
    monkeypatch.setattr(zygmund.trig, "_COSET_MIN_RATIO", 4)
