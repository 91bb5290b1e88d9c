import pytest


@pytest.fixture
def small_grids(monkeypatch):
    """Let cosets start at any grid of at least 4 L0 nodes."""
    import zygmund.norms

    monkeypatch.setattr(zygmund.norms, "_COSET_MIN_NODES", 16)
    monkeypatch.setattr(zygmund.norms, "_COSET_MIN_RATIO", 4)
